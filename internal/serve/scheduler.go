package serve

import (
	"fmt"
	"math"
	"sort"

	"yhccl/internal/resilient"
	"yhccl/internal/topo"
)

// Scheduler is the admission/placement engine: jobs arrive, wait FIFO for
// enough free cores (head-of-line blocking — no job overtakes, so ordering
// is deterministic), lease cores exclusively under a placement policy, and
// progress at fluid rates set by who shares their sockets. Time is virtual
// and entirely event-driven: rates only change at admissions and
// completions, so between events every job's remaining work drains
// linearly and the next completion is solved in closed form.
type Scheduler struct {
	node     *topo.Node
	override Placement // PlaceAuto respects each job's hint
	ms       *measurer
	solo     []int // all-zero co-tenant counts: an uncontended measurement

	freeBySocket [][]int // ascending free core IDs per socket
	queue        []*job  // FIFO admission queue
	running      []*job  // admission order
	clock        float64
	log          []string
	results      []JobResult
	// queueBudget caps the admission queue length (0 = unbounded). An
	// arrival that would push the queue past the budget is shed — rejected
	// deterministically at submission (reject-newest: queued jobs keep
	// their FIFO position, the newcomer is turned away).
	queueBudget int

	// Elastic capacity (RunWithEvents). offline holds cores currently out
	// of service; draining holds leased cores due offline when their lease
	// ends — admitted jobs are never killed, the lease runs to completion
	// and the core retires instead of returning to the pool. epoch counts
	// capacity changes applied. All empty/zero on the plain Run path, which
	// stays byte-identical.
	offline  map[int]bool
	draining map[int]bool
	epoch    int
}

// job is one admitted or queued request.
type job struct {
	id        int
	spec      JobSpec
	arrive    float64
	admit     float64
	cores     []int
	perSocket []int
	work      float64 // solo service time on its placement shape
	remaining float64 // work units left
	rate      float64 // work units per virtual second under current tenancy
	outcome   resilient.Outcome
	fresh     bool // admitted; work not yet measured (recomputeRates does)
}

// Arrival schedules one job submission at a virtual time.
type Arrival struct {
	At   float64
	Spec JobSpec
}

// JobResult is the completed-job record the harness aggregates.
type JobResult struct {
	ID     int
	Class  string
	Ranks  int
	Arrive float64
	Admit  float64
	Done   float64
	// Outcome is the resilient supervisor's verdict for fault-seeded
	// tenants (CleanPass for healthy jobs).
	Outcome resilient.Outcome
	// Shed marks a job rejected at admission by the queue budget; only
	// ID/Class/Ranks/Arrive are meaningful then.
	Shed bool
	// Deadline is the spec's submission-to-completion budget (0 = none).
	Deadline float64
}

// DeadlineMiss reports whether an admitted job finished past its deadline.
func (r JobResult) DeadlineMiss() bool {
	return !r.Shed && r.Deadline > 0 && r.Makespan() > r.Deadline
}

// Makespan is the job's submission-to-completion time (queueing included).
func (r JobResult) Makespan() float64 { return r.Done - r.Arrive }

// Wait is the time spent queued before admission.
func (r JobResult) Wait() float64 { return r.Admit - r.Arrive }

// NewScheduler builds a scheduler for one node. placement overrides every
// job's hint when not PlaceAuto (the pack-vs-spread comparison switch).
func NewScheduler(node *topo.Node, placement Placement) *Scheduler {
	s := &Scheduler{
		node:     node,
		override: placement,
		ms:       newMeasurer(node),
		offline:  map[int]bool{},
		draining: map[int]bool{},
		solo:     make([]int, node.Sockets),
	}
	s.freeBySocket = make([][]int, node.Sockets)
	for sk := 0; sk < node.Sockets; sk++ {
		base := sk * node.CoresPerSocket
		for c := 0; c < node.CoresPerSocket; c++ {
			s.freeBySocket[sk] = append(s.freeBySocket[sk], base+c)
		}
	}
	return s
}

// SetServiceOracle replaces sim-backed service measurement with a pure
// function — for scheduler micro-benchmarks only.
func (s *Scheduler) SetServiceOracle(o Oracle) { s.ms.oracle = o }

// SetQueueBudget bounds the admission queue (0 = unbounded, the default).
func (s *Scheduler) SetQueueBudget(n int) { s.queueBudget = n }

// EventLog returns the admission/placement event log: one line per
// arrival, admission and completion, with fixed formatting so identical
// streams produce byte-identical logs.
func (s *Scheduler) EventLog() []string { return s.log }

// Clock returns the current virtual time (end-of-stream time after Run).
func (s *Scheduler) Clock() float64 { return s.clock }

// Run executes an arrival stream to completion and returns the per-job
// results in completion order. Arrivals must be sorted by time.
func (s *Scheduler) Run(arrivals []Arrival) ([]JobResult, error) {
	return s.RunWithEvents(arrivals, nil)
}

// RunWithEvents executes an arrival stream under a planned sequence of
// capacity changes. Tie order is completions, then capacity events, then
// arrivals: a leaving tenant frees cores a capacity change may retire and
// an arriving job may need. With no events the schedule — and the event
// log — is byte-identical to Run.
func (s *Scheduler) RunWithEvents(arrivals []Arrival, events []CapacityEvent) ([]JobResult, error) {
	for i, a := range arrivals {
		if err := a.Spec.Validate(); err != nil {
			return nil, err
		}
		if a.Spec.Ranks > s.node.Cores() {
			return nil, fmt.Errorf("serve: job %q needs %d ranks; %s has %d cores",
				a.Spec.Name, a.Spec.Ranks, s.node.Name, s.node.Cores())
		}
		if i > 0 && a.At < arrivals[i-1].At {
			return nil, fmt.Errorf("serve: arrivals not sorted at index %d", i)
		}
	}
	for i, ev := range events {
		if err := ev.validate(s.node); err != nil {
			return nil, err
		}
		if i > 0 && ev.At < events[i-1].At {
			return nil, fmt.Errorf("serve: capacity events not sorted at index %d", i)
		}
	}
	ai, ei := 0, 0
	for ai < len(arrivals) || len(s.running) > 0 || len(s.queue) > 0 {
		tc, cj := s.nextCompletion()
		ta, te := math.Inf(1), math.Inf(1)
		if ai < len(arrivals) {
			ta = arrivals[ai].At
		}
		if ei < len(events) {
			te = events[ei].At
		}
		switch {
		case cj != nil && tc <= ta && tc <= te:
			// Completions before arrivals at ties: a leaving tenant frees
			// cores the arriving one may need.
			s.advanceTo(tc)
			s.complete(cj)
			s.admitFromQueue()
			s.recomputeRates()
		case ei < len(events) && te <= ta:
			// A pending grow event can be the only thing that unblocks a
			// queued job on a shrunken machine, so events are part of the
			// main loop, not a side channel.
			s.advanceTo(te)
			s.applyCapacity(events[ei])
			ei++
		case ai < len(arrivals):
			s.advanceTo(ta)
			s.submit(arrivals[ai], ai)
			ai++
			if s.admitFromQueue() {
				s.recomputeRates()
			}
		default:
			// Nothing running, nothing arriving, no capacity pending, but
			// jobs queued: cannot happen — a job that can never fit the
			// current capacity is shed, not queued.
			return nil, fmt.Errorf("serve: scheduler stuck with %d queued jobs", len(s.queue))
		}
	}
	return s.results, nil
}

// advanceTo drains every running job's remaining work at its current rate
// up to virtual time t.
func (s *Scheduler) advanceTo(t float64) {
	dt := t - s.clock
	if dt > 0 {
		for _, j := range s.running {
			j.remaining -= dt * j.rate
		}
	}
	s.clock = t
}

// nextCompletion returns the earliest completion time over running jobs
// (ties broken by job id, guaranteed by admission-order iteration).
func (s *Scheduler) nextCompletion() (float64, *job) {
	t := math.Inf(1)
	var pick *job
	for _, j := range s.running {
		rem := j.remaining
		if rem < 0 {
			rem = 0
		}
		at := s.clock + rem/j.rate
		if at < t {
			t, pick = at, j
		}
	}
	return t, pick
}

// submit logs an arrival and queues the job — or sheds it when the queue
// is at budget.
func (s *Scheduler) submit(a Arrival, idx int) {
	j := &job{id: idx, spec: a.Spec, arrive: a.At}
	s.logf("t=%.9f arrive job=%d class=%s ranks=%d", s.clock, j.id, j.spec.Name, j.spec.Ranks)
	if (len(s.offline) > 0 || len(s.draining) > 0) && j.spec.Ranks > s.Capacity() {
		// The shrunken machine can never hold this job: shed at submission
		// rather than blocking the FIFO queue forever.
		s.logf("t=%.9f shed job=%d class=%s reason=capacity ranks=%d online=%d",
			s.clock, j.id, j.spec.Name, j.spec.Ranks, s.Capacity())
		s.results = append(s.results, JobResult{
			ID: j.id, Class: j.spec.Name, Ranks: j.spec.Ranks,
			Arrive: j.arrive, Shed: true, Deadline: j.spec.Deadline,
		})
		return
	}
	if s.queueBudget > 0 && len(s.queue) >= s.queueBudget {
		s.logf("t=%.9f shed job=%d class=%s queued=%d budget=%d",
			s.clock, j.id, j.spec.Name, len(s.queue), s.queueBudget)
		s.results = append(s.results, JobResult{
			ID: j.id, Class: j.spec.Name, Ranks: j.spec.Ranks,
			Arrive: j.arrive, Shed: true, Deadline: j.spec.Deadline,
		})
		return
	}
	s.queue = append(s.queue, j)
}

// admitFromQueue admits queue-head jobs while they fit, in strict FIFO
// order. Returns whether any admission happened.
func (s *Scheduler) admitFromQueue() bool {
	admitted := false
	for len(s.queue) > 0 {
		j := s.queue[0]
		cores, perSocket, ok := s.place(j.spec)
		if !ok {
			break // head-of-line blocking keeps admission order deterministic
		}
		s.queue = s.queue[1:]
		j.cores, j.perSocket = cores, perSocket
		j.admit = s.clock
		j.fresh = true
		s.running = append(s.running, j)
		s.logf("t=%.9f admit job=%d class=%s place=%s sockets=%v wait=%.9f",
			s.clock, j.id, j.spec.Name, s.effective(j.spec), perSocket, j.admit-j.arrive)
		admitted = true
	}
	return admitted
}

// complete retires a job: frees its lease, logs, records the result.
func (s *Scheduler) complete(j *job) {
	for i, r := range s.running {
		if r == j {
			s.running = append(s.running[:i], s.running[i+1:]...)
			break
		}
	}
	var retired []int
	for _, c := range j.cores {
		if len(s.draining) > 0 && s.draining[c] {
			// The lease ran to completion; the core retires instead of
			// returning to the pool.
			delete(s.draining, c)
			s.offline[c] = true
			retired = append(retired, c)
			continue
		}
		sk := s.node.SocketOf(c)
		s.freeBySocket[sk] = append(s.freeBySocket[sk], c)
	}
	for sk := range s.freeBySocket {
		sort.Ints(s.freeBySocket[sk])
	}
	if len(retired) > 0 {
		s.logf("t=%.9f retire job=%d cores=%v online=%d", s.clock, j.id, retired, s.Capacity())
	}
	res := JobResult{
		ID: j.id, Class: j.spec.Name, Ranks: j.spec.Ranks,
		Arrive: j.arrive, Admit: j.admit, Done: s.clock,
		Outcome: j.outcome, Deadline: j.spec.Deadline,
	}
	s.results = append(s.results, res)
	s.logf("t=%.9f complete job=%d class=%s makespan=%.9f outcome=%s",
		s.clock, j.id, j.spec.Name, res.Makespan(), j.outcome)
}

// recomputeRates refreshes every running job's fluid rate (and, for
// fault-seeded tenants, the supervised outcome) for the current tenancy:
// ext[s] is the number of co-tenant ranks sharing socket s. It follows
// every admission, so it also sets each fresh job's work from its solo
// measurement. All of the event's measurement misses go to one prefetch;
// the loop after it only reads the memo.
func (s *Scheduler) recomputeRates() {
	n := s.node.Sockets
	exts := make([]int, (len(s.running)+1)*n)
	total := exts[:n] // all leased ranks per socket; job i's ext follows
	for _, j := range s.running {
		for sk, c := range j.perSocket {
			total[sk] += c
		}
	}
	reqs := make([]request, 0, 2*len(s.running))
	for i, j := range s.running {
		if j.fresh {
			reqs = append(reqs, s.ms.request(j.spec, j.perSocket, s.solo))
		}
		ext := exts[(i+1)*n : (i+2)*n]
		for sk := range ext {
			ext[sk] = total[sk] - j.perSocket[sk]
		}
		reqs = append(reqs, s.ms.request(j.spec, j.perSocket, ext))
	}
	s.ms.prefetch(reqs)
	r := 0
	for _, j := range s.running {
		if j.fresh {
			j.work = s.ms.measure(&reqs[r]).t
			j.remaining = j.work
			j.fresh = false
			r++
		}
		m := s.ms.measure(&reqs[r])
		j.rate = j.work / m.t
		j.outcome = m.out
		r++
	}
}

// effective resolves the placement policy for a spec: the scheduler
// override first, then the job hint, then the auto rule.
func (s *Scheduler) effective(spec JobSpec) Placement {
	p := spec.Placement
	if s.override != PlaceAuto {
		p = s.override
	}
	if p == PlaceAuto {
		if spec.MsgBytes >= AutoSpreadBytes {
			return PlaceSpread
		}
		return PlacePack
	}
	return p
}

// place maps a spec onto free cores under its effective policy. Returns
// the leased cores, the per-socket rank counts, and whether it fits now.
func (s *Scheduler) place(spec JobSpec) ([]int, []int, bool) {
	free := 0
	for _, f := range s.freeBySocket {
		free += len(f)
	}
	if spec.Ranks > free {
		return nil, nil, false
	}
	counts := make([]int, s.node.Sockets)
	switch s.effective(spec) {
	case PlaceSpread:
		// Balance: each rank goes to the socket with the most free cores
		// left (ties to the lower index).
		left := make([]int, s.node.Sockets)
		for sk, f := range s.freeBySocket {
			left[sk] = len(f)
		}
		for k := 0; k < spec.Ranks; k++ {
			best := 0
			for sk := 1; sk < len(left); sk++ {
				if left[sk] > left[best] {
					best = sk
				}
			}
			counts[best]++
			left[best]--
		}
	default: // PlacePack
		// Best-fit: the fullest socket that still holds the whole job;
		// otherwise spill across sockets in index order.
		best := -1
		for sk, f := range s.freeBySocket {
			if len(f) >= spec.Ranks && (best < 0 || len(f) < len(s.freeBySocket[best])) {
				best = sk
			}
		}
		if best >= 0 {
			counts[best] = spec.Ranks
		} else {
			need := spec.Ranks
			for sk := 0; sk < s.node.Sockets && need > 0; sk++ {
				take := len(s.freeBySocket[sk])
				if take > need {
					take = need
				}
				counts[sk] = take
				need -= take
			}
		}
	}
	var cores []int
	for sk, k := range counts {
		cores = append(cores, s.freeBySocket[sk][:k]...)
		s.freeBySocket[sk] = s.freeBySocket[sk][k:]
	}
	return cores, counts, true
}

func (s *Scheduler) logf(format string, args ...any) {
	s.log = append(s.log, fmt.Sprintf(format, args...))
}
