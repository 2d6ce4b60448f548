// Package chaos sweeps fault plans across the collective algorithms and
// classifies each run: did it complete with bit-correct output, fail
// cleanly with a diagnosis naming the injected fault's victim, or — the
// only unacceptable outcome — produce a wrong answer or an unattributed
// failure? The sweep is the robustness gate every algorithm change must
// pass: never a hang, never an unattributed panic, never a silently wrong
// result.
//
// Everything is deterministic: plans are plain data (or derived from seeds
// via fault.GenPlan), the simulator is virtual-time ordered, and repeated
// runs of a case produce identical outcomes and makespans.
package chaos

import (
	"fmt"
	"io"
	"strings"

	"yhccl/internal/coll"
	"yhccl/internal/fault"
	"yhccl/internal/mpi"
	"yhccl/internal/topo"
)

// Case is one cell of the sweep: a collective algorithm under a fault plan.
type Case struct {
	Collective string // "allreduce", "reduce-scatter", "reduce", "bcast", "allgather"
	Algo       string // registry name within the collective
	Ranks      int
	Elems      int64 // per the collective's convention (block size for reduce-scatter)
	Plan       *fault.Plan
}

func (c Case) String() string {
	plan := "healthy"
	if !c.Plan.Empty() {
		plan = c.Plan.Name
	}
	return fmt.Sprintf("%s/%s p=%d n=%d plan=%s", c.Collective, c.Algo, c.Ranks, c.Elems, plan)
}

// Outcome classifies one run.
type Outcome int

const (
	// CleanPass: the run completed and every rank's output validated.
	CleanPass Outcome = iota
	// DiagnosedFailure: the run failed with an error naming the fault's
	// victim rank (a stall diagnosed as deadlock, an attributed crash).
	DiagnosedFailure
	// ValidationCaught: the run completed but self-validation caught the
	// corrupted output, locating the diverging rank and chunk.
	ValidationCaught
	// Undiagnosed: the unacceptable bucket — a wrong answer nobody caught,
	// a failure that does not name its victim, or a raw panic.
	Undiagnosed
)

func (o Outcome) String() string {
	switch o {
	case CleanPass:
		return "clean-pass"
	case DiagnosedFailure:
		return "diagnosed-failure"
	case ValidationCaught:
		return "validation-caught"
	case Undiagnosed:
		return "UNDIAGNOSED"
	}
	return fmt.Sprintf("outcome(%d)", int(o))
}

// Result is the classified outcome of one case.
type Result struct {
	Case     Case
	Outcome  Outcome
	Makespan float64 // 0 when the run failed
	Err      error   // the diagnosis (run or validation error); nil on CleanPass
}

// Acceptable reports whether the outcome is one of the three allowed ones.
func (r Result) Acceptable() bool { return r.Outcome != Undiagnosed }

// Run executes one case and classifies it. It never panics: a raw panic
// escaping the machine layer is caught and classified Undiagnosed.
func Run(c Case) (res Result) {
	res = Result{Case: c}
	defer func() {
		if r := recover(); r != nil {
			res.Outcome = Undiagnosed
			res.Err = fmt.Errorf("chaos: unattributed panic: %v", r)
		}
	}()

	m := mpi.NewMachine(topo.NodeA(), c.Ranks, true)
	if err := m.SetFaultPlan(c.Plan); err != nil {
		res.Outcome = Undiagnosed
		res.Err = fmt.Errorf("chaos: bad plan: %w", err)
		return res
	}
	body, err := c.body(m)
	if err != nil {
		res.Outcome = Undiagnosed
		res.Err = err
		return res
	}

	makespan, runErr := m.Run(body.Run)
	switch {
	case runErr != nil:
		res.Err = runErr
		if namesVictim(runErr, c.Plan) {
			res.Outcome = DiagnosedFailure
		} else {
			res.Outcome = Undiagnosed
		}
	case body.Err() != nil:
		res.Err = body.Err()
		if c.Plan != nil && len(c.Plan.Corruptions) > 0 {
			res.Outcome = ValidationCaught
		} else {
			res.Outcome = Undiagnosed // wrong answer with no fault to blame
		}
	default:
		res.Outcome = CleanPass
		res.Makespan = makespan
	}
	return res
}

// body binds the case at the head of its fallback chain with the canonical
// fill pattern — the shape the plain (diagnose-only) sweep runs.
func (c Case) body(m *mpi.Machine) (*coll.Checked, error) {
	return c.bind(m, 0, 0)
}

// bind builds the case's validated per-rank body for the given machine
// (whose size may differ from c.Ranks after a communicator shrink),
// fallback depth along the collective's resilient chain, and fill-pattern
// salt. Depth 0 with salt 0 dispatches exactly what the plain sweep runs.
func (c Case) bind(m *mpi.Machine, depth, salt int) (*coll.Checked, error) {
	if !coll.PaperCollective(c.Collective) {
		return nil, fmt.Errorf("chaos: unknown collective %q", c.Collective)
	}
	return coll.BindChecked(c.Collective, c.Algo, m.Size(), c.Elems, depth, salt)
}

// namesVictim reports whether a failed run's diagnosis names at least one
// rank the plan could have victimized. Only stalls and crashes can fail a
// run; stragglers and corruptions must never surface here.
func namesVictim(err error, pl *fault.Plan) bool {
	if pl.Empty() {
		return false
	}
	msg := err.Error()
	for _, s := range pl.Stalls {
		if strings.Contains(msg, fmt.Sprintf("rank%d", s.Rank)) {
			return true
		}
	}
	return false
}

// Sweep runs every case in order.
func Sweep(cases []Case) []Result {
	out := make([]Result, len(cases))
	for i, c := range cases {
		out[i] = Run(c)
	}
	return out
}

// Report renders a sweep's results, one line per case, plus a summary
// tallying outcomes. It returns the number of unacceptable results.
func Report(w io.Writer, results []Result) int {
	counts := map[Outcome]int{}
	for _, r := range results {
		counts[r.Outcome]++
		line := fmt.Sprintf("%-11s  %s", r.Outcome, r.Case)
		if r.Err != nil {
			line += fmt.Sprintf("\n             %v", r.Err)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "\n%d cases: %d clean, %d diagnosed, %d caught by validation, %d UNDIAGNOSED\n",
		len(results), counts[CleanPass], counts[DiagnosedFailure],
		counts[ValidationCaught], counts[Undiagnosed])
	return counts[Undiagnosed]
}

// DefaultPlans returns the hand-written fault plans the default sweep pairs
// with every collective: a healthy baseline, a heavy straggler, an
// immediate stall, an immediate crash, and an early-write bit flip.
func DefaultPlans(p int) []*fault.Plan {
	return []*fault.Plan{
		nil,
		{Name: "straggle1x8", Stragglers: []fault.Straggler{{Rank: 1 % p, Factor: 8}}},
		{Name: "stall1@0", Stalls: []fault.Stall{{Rank: 1 % p, At: 0}}},
		{Name: "crashlast@0", Stalls: []fault.Stall{{Rank: p - 1, At: 0, Crash: true}}},
		{Name: "flip2w0", Corruptions: []fault.Corruption{{Rank: 2 % p, SharedWrite: 0, Elem: 13, Bit: 51}}},
	}
}

// DefaultCases builds the default sweep: every allreduce algorithm against
// every default plan, the other collectives against a representative
// subset, plus a band of seed-generated plans exercising fault combinations
// the hand-written ones don't.
func DefaultCases() []Case {
	const p, n = 8, 4096
	var cases []Case
	add := func(collective, algo string, plans ...*fault.Plan) {
		for _, pl := range plans {
			cases = append(cases, Case{Collective: collective, Algo: algo, Ranks: p, Elems: n, Plan: pl})
		}
	}
	plans := DefaultPlans(p)
	for _, algo := range []string{"yhccl", "ring", "rabenseifner", "two-level", "xpmem"} {
		add("allreduce", algo, plans...)
	}
	for _, algo := range []string{"binomial", "pipelined"} {
		add("bcast", algo, plans[0], plans[2], plans[3])
	}
	add("reduce", "yhccl", plans[0], plans[2])
	for _, algo := range []string{"ring", "socket-ma"} {
		add("reduce-scatter", algo, plans[0], plans[4])
	}
	add("allgather", "ring", plans[0], plans[1])
	// Seeded band: replayable pseudo-random plans (the horizon matches the
	// virtual-time scale of these runs so stalls can land mid-collective).
	for seed := uint64(1); seed <= 8; seed++ {
		add("allreduce", "yhccl", fault.GenPlan(seed, p, 2e-4))
	}
	return cases
}
