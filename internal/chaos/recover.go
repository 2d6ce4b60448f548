package chaos

import (
	"fmt"
	"io"
	"sort"

	"yhccl/internal/coll"
	"yhccl/internal/mpi"
	"yhccl/internal/resilient"
	"yhccl/internal/topo"
)

// Recovery sweep: the diagnose-only sweep upgraded with the resilient
// supervisor. The bar moves from "everything must be diagnosed" to
// "everything must be diagnosed AND every recoverable plan must end in a
// verified-correct result": transient bit flips must recover by retry,
// stragglers by quarantine (or algorithm fallback), crashes and stalls by
// communicator shrink. The only acceptable terminal failures are
// unrecoverable-but-diagnosed runs of fault classes the gate does not
// require recovery for (e.g. heavy mixed seeded plans).

// RecoverySpares is the number of spare cores every recovery-sweep machine
// reserves for straggler quarantine.
const RecoverySpares = 4

// RecoveryResult pairs a case with the supervisor's verdict on it.
type RecoveryResult struct {
	Case   Case
	Report resilient.Report
}

// Class is the case's fault class ("healthy", "straggler", "stall",
// "crash", "bitflip", "mixed") — the key of the recovery gate.
func (r RecoveryResult) Class() string { return r.Case.Plan.Class() }

// RunRecover executes one case under the resilient supervisor and never
// panics: a raw panic escaping the stack is classified UNDIAGNOSED.
func RunRecover(c Case) (res RecoveryResult) {
	res.Case = c
	defer func() {
		if r := recover(); r != nil {
			res.Report = resilient.Report{
				Job:     c.Collective + "/" + c.Algo,
				Outcome: resilient.Undiagnosed,
				Err:     fmt.Errorf("chaos: unattributed panic: %v", r),
			}
		}
	}()

	m := mpi.NewMachineWithSpares(topo.NodeA(), c.Ranks, RecoverySpares, true)
	if err := m.SetFaultPlan(c.Plan); err != nil {
		res.Report = resilient.Report{
			Job:     c.Collective + "/" + c.Algo,
			Outcome: resilient.Undiagnosed,
			Err:     fmt.Errorf("chaos: bad plan: %w", err),
		}
		return res
	}
	job := resilient.Job{
		Name:     c.Collective + "/" + c.Algo,
		MaxDepth: coll.MaxFallbackDepth(c.Collective, c.Algo),
		Bind: func(m *mpi.Machine, depth, salt int) (func(*mpi.Rank), func() error, error) {
			b, err := c.bind(m, depth, salt)
			if err != nil {
				return nil, nil, err
			}
			return b.Run, b.Err, nil
		},
	}
	res.Report = resilient.Supervise(m, job, resilient.DefaultPolicy())
	return res
}

// SweepRecover runs every case in order under the supervisor.
func SweepRecover(cases []Case) []RecoveryResult {
	out := make([]RecoveryResult, len(cases))
	for i, c := range cases {
		out[i] = RunRecover(c)
	}
	return out
}

// RecoveryGate returns one violation string per unacceptable result:
// any UNDIAGNOSED outcome anywhere (the PR 3 invariant), and any
// unrecoverable run of a fault class the policy chain must always handle —
// transient bit flips and single stragglers.
func RecoveryGate(results []RecoveryResult) []string {
	var bad []string
	for _, r := range results {
		switch r.Report.Outcome {
		case resilient.Undiagnosed:
			bad = append(bad, fmt.Sprintf("UNDIAGNOSED: %s: %v", r.Case, r.Report.Err))
		case resilient.Unrecoverable:
			if cl := r.Class(); cl == "bitflip" || cl == "straggler" {
				bad = append(bad, fmt.Sprintf("unrecoverable %s plan: %s: %v", cl, r.Case, r.Report.Err))
			}
		}
	}
	return bad
}

// ReportRecovery renders the sweep — one line per case, a per-fault-class
// recovery-rate table, and the gate verdict — and returns the number of
// gate violations.
func ReportRecovery(w io.Writer, results []RecoveryResult) int {
	for _, r := range results {
		line := fmt.Sprintf("%-27s  %s", r.Report.Outcome, r.Case)
		if len(r.Report.Excluded) > 0 {
			line += fmt.Sprintf(" excluded=%v", r.Report.Excluded)
		}
		if len(r.Report.Remapped) > 0 {
			line += fmt.Sprintf(" remapped=%v", r.Report.Remapped)
		}
		if r.Report.Depth > 0 {
			line += fmt.Sprintf(" depth=%d", r.Report.Depth)
		}
		if r.Report.Err != nil {
			line += fmt.Sprintf("\n             %v", r.Report.Err)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprint(w, "\n", RecoveryTable(results))
	bad := RecoveryGate(results)
	for _, v := range bad {
		fmt.Fprintf(w, "GATE VIOLATION: %s\n", v)
	}
	if len(bad) == 0 {
		fmt.Fprintln(w, "recovery gate: PASS")
	}
	return len(bad)
}

// RecoveryTable renders the per-fault-class recovery-rate table: for each
// class, how many cases ended in each outcome and the recovery rate over
// the cases that needed recovering.
func RecoveryTable(results []RecoveryResult) string {
	type tally struct {
		total, clean, recovered, unrecoverable, undiagnosed int
	}
	byClass := map[string]*tally{}
	for _, r := range results {
		cl := r.Class()
		t := byClass[cl]
		if t == nil {
			t = &tally{}
			byClass[cl] = t
		}
		t.total++
		switch {
		case r.Report.Outcome == resilient.CleanPass:
			t.clean++
		case r.Report.Outcome.Recovered():
			t.recovered++
		case r.Report.Outcome == resilient.Unrecoverable:
			t.unrecoverable++
		default:
			t.undiagnosed++
		}
	}
	classes := make([]string, 0, len(byClass))
	for cl := range byClass {
		classes = append(classes, cl)
	}
	sort.Strings(classes)
	s := fmt.Sprintf("%-10s %6s %6s %10s %14s %12s %9s\n",
		"class", "cases", "clean", "recovered", "unrecoverable", "UNDIAGNOSED", "recovery")
	for _, cl := range classes {
		t := byClass[cl]
		rate := "-"
		if needed := t.total - t.clean; needed > 0 {
			rate = fmt.Sprintf("%d/%d", t.recovered, needed)
		}
		s += fmt.Sprintf("%-10s %6d %6d %10d %14d %12d %9s\n",
			cl, t.total, t.clean, t.recovered, t.unrecoverable, t.undiagnosed, rate)
	}
	return s
}
