package serve

import (
	"fmt"
	"io"
	"sort"

	"yhccl/internal/topo"
)

// Elastic capacity: the serving mirror of cluster membership churn. A
// CapacityEvent removes cores from or returns cores to the scheduler's
// pool at a planned virtual time. Shrink honors leases — an admitted job
// is never killed; its cores drain and retire when the lease ends, and
// placement re-solves over what remains. Grow returns cores and widens
// re-admission immediately. Every applied event bumps the scheduler's
// capacity epoch, logged so a churned schedule is replayable and
// auditable line by line.

// CapacityEvent is one planned capacity change.
type CapacityEvent struct {
	// At is the virtual time the change takes effect.
	At float64
	// Remove lists core ids leaving service: free cores go offline now,
	// leased cores drain (retire when their current lease completes).
	Remove []int
	// Add lists core ids returning to service: offline cores rejoin the
	// free pool now; draining cores have their drain cancelled.
	Add []int
}

func (ev CapacityEvent) validate(node *topo.Node) error {
	for _, c := range append(append([]int{}, ev.Remove...), ev.Add...) {
		if c < 0 || c >= node.Cores() {
			return fmt.Errorf("serve: capacity event at t=%.9f names core %d outside %s's %d cores",
				ev.At, c, node.Name, node.Cores())
		}
	}
	if ev.At < 0 {
		return fmt.Errorf("serve: capacity event at negative time %.9f", ev.At)
	}
	return nil
}

// Capacity returns the number of cores that are (or will again be)
// available for admission: total minus offline minus draining.
func (s *Scheduler) Capacity() int {
	return s.node.Cores() - len(s.offline) - len(s.draining)
}

// Epochs returns how many capacity events have been applied.
func (s *Scheduler) Epochs() int { return s.epoch }

// applyCapacity applies one capacity event: retire/drain removed cores,
// return added ones, shed queued jobs that can never fit the new
// capacity, then re-solve admission.
func (s *Scheduler) applyCapacity(ev CapacityEvent) {
	s.epoch++
	for _, c := range ev.Remove {
		if s.offline[c] || s.draining[c] {
			continue
		}
		sk := s.node.SocketOf(c)
		if removeCore(&s.freeBySocket[sk], c) {
			s.offline[c] = true
		} else {
			s.draining[c] = true
		}
	}
	for _, c := range ev.Add {
		switch {
		case s.offline[c]:
			delete(s.offline, c)
			sk := s.node.SocketOf(c)
			s.freeBySocket[sk] = append(s.freeBySocket[sk], c)
			sort.Ints(s.freeBySocket[sk])
		case s.draining[c]:
			// Drain cancelled: the core stays leased and returns to the
			// pool normally when the lease ends.
			delete(s.draining, c)
		}
	}
	s.logf("t=%.9f capacity epoch=%d remove=%v add=%v online=%d draining=%d",
		s.clock, s.epoch, ev.Remove, ev.Add, s.Capacity(), len(s.draining))
	// Queued jobs that can never fit the shrunken machine would block the
	// FIFO head forever: shed them now, with the reason on record.
	kept := s.queue[:0]
	for _, j := range s.queue {
		if j.spec.Ranks > s.Capacity() {
			s.logf("t=%.9f shed job=%d class=%s reason=capacity ranks=%d online=%d",
				s.clock, j.id, j.spec.Name, j.spec.Ranks, s.Capacity())
			s.results = append(s.results, JobResult{
				ID: j.id, Class: j.spec.Name, Ranks: j.spec.Ranks,
				Arrive: j.arrive, Shed: true, Deadline: j.spec.Deadline,
			})
			continue
		}
		kept = append(kept, j)
	}
	s.queue = kept
	// Re-solve admission: a grow widens what fits right now.
	if s.admitFromQueue() {
		s.recomputeRates()
	}
}

// removeCore deletes one core id from a sorted free list; reports whether
// it was present (i.e. the core was free, not leased).
func removeCore(free *[]int, c int) bool {
	f := *free
	i := sort.SearchInts(f, c)
	if i < len(f) && f[i] == c {
		*free = append(f[:i], f[i+1:]...)
		return true
	}
	return false
}

// SaturatingRate is the offered load (jobs per virtual second) at which
// the reference mix saturates NodeA — the knee the overload and churn
// gates scale from.
const SaturatingRate = 1600

// ChurnConfig parameterizes the serving churn gate.
type ChurnConfig struct {
	Seed   uint64
	Jobs   int
	Cycles int // shrink+grow cycles spread over the stream (min 8)
	// LoadMult scales SaturatingRate (the gate's contract is 1.2x).
	LoadMult float64
	// DrainCores is how many cores each shrink takes (the top ids of the
	// last socket); defaults to 8.
	DrainCores int
}

// withDefaults fills the churn gate's defaults: 8 cycles (the minimum),
// 1.2x load, 8 drained cores, 600 jobs.
func (cfg ChurnConfig) withDefaults() ChurnConfig {
	if cfg.Cycles < 8 {
		cfg.Cycles = 8
	}
	if cfg.LoadMult <= 0 {
		cfg.LoadMult = 1.2
	}
	if cfg.DrainCores <= 0 {
		cfg.DrainCores = 8
	}
	if cfg.Jobs <= 0 {
		cfg.Jobs = 600
	}
	return cfg
}

// load builds the churn point: the overload mix's arrival stream at
// LoadMult times the saturating rate under the overload queue budget, and
// one shrink/grow capacity cycle per Cycles slice of the arrival window.
func (cfg ChurnConfig) load(node *topo.Node) (StreamConfig, []Arrival, []CapacityEvent, error) {
	if cfg.DrainCores >= node.Cores()/2 {
		return StreamConfig{}, nil, nil, fmt.Errorf("serve churn gate: draining %d of %d cores is not a churn test",
			cfg.DrainCores, node.Cores())
	}
	scfg := StreamConfig{
		Seed:        cfg.Seed,
		Mix:         OverloadMix(),
		Jobs:        cfg.Jobs,
		Rate:        cfg.LoadMult * SaturatingRate,
		QueueBudget: OverloadQueueBudget,
	}
	arrivals, err := GenStream(scfg)
	if err != nil {
		return StreamConfig{}, nil, nil, err
	}
	drain := make([]int, cfg.DrainCores)
	for i := range drain {
		drain[i] = node.Cores() - cfg.DrainCores + i
	}
	return scfg, arrivals, capacityCycles(arrivals[len(arrivals)-1].At, cfg.Cycles, drain), nil
}

// capacityCycles splits [0, span] into cycles equal slices and drains the
// given cores for the middle half of each: shrink at the slice's quarter
// point, grow back at its three-quarter point.
func capacityCycles(span float64, cycles int, drain []int) []CapacityEvent {
	var events []CapacityEvent
	for i := 0; i < cycles; i++ {
		base := span * float64(i) / float64(cycles)
		step := span / float64(cycles)
		events = append(events,
			CapacityEvent{At: base + 0.25*step, Remove: drain},
			CapacityEvent{At: base + 0.75*step, Add: drain})
	}
	return events
}

// ChurnGate drives the deadline-carrying overload mix at LoadMult times
// the saturating rate through repeated capacity shrink/grow cycles and
// holds the scheduler to the churn contract: every cycle applies exactly
// two capacity epochs (down, up), no tenant goes UNDIAGNOSED, and no
// admitted job misses its deadline — capacity loss is paid by shedding
// and longer queues, never by serving an accepted job late or killing a
// lease. The load point is written to w.
func ChurnGate(w io.Writer, node *topo.Node, cfg ChurnConfig) error {
	cfg = cfg.withDefaults()
	scfg, arrivals, events, err := cfg.load(node)
	if err != nil {
		return err
	}
	rate := scfg.Rate

	s := NewScheduler(node, PlaceAuto)
	s.SetQueueBudget(scfg.QueueBudget)
	results, err := s.RunWithEvents(arrivals, events)
	if err != nil {
		return err
	}
	lp := summarize(results, rate, PlaceAuto, s.EventLog())

	fmt.Fprintf(w, "churn point: node=%s rate=%.0f jobs/s (%.1fx saturating) cycles=%d drain=%d cores seed=%d jobs=%d\n\n",
		node.Name, rate, cfg.LoadMult, cfg.Cycles, cfg.DrainCores, cfg.Seed, cfg.Jobs)
	fmt.Fprint(w, Render([]LoadPoint{lp}))
	fmt.Fprintf(w, "\nadmitted=%d shed=%d deadline-violations=%d capacity-epochs=%d\n",
		lp.Jobs, lp.Shed, lp.DeadlineViolations, s.Epochs())

	var violations []string
	if got, want := s.Epochs(), 2*cfg.Cycles; got != want {
		violations = append(violations,
			fmt.Sprintf("applied %d capacity epochs, want %d (2 per cycle)", got, want))
	}
	if lp.Undiag > 0 {
		violations = append(violations, fmt.Sprintf("%d UNDIAGNOSED jobs under churn", lp.Undiag))
	}
	if lp.DeadlineViolations > 0 {
		violations = append(violations,
			fmt.Sprintf("%d admitted jobs missed their deadline under churn", lp.DeadlineViolations))
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(w, "GATE VIOLATION: %s\n", v)
		}
		return fmt.Errorf("serve churn gate: %d violations", len(violations))
	}
	fmt.Fprintln(w, "serve churn gate: PASS")
	return nil
}
