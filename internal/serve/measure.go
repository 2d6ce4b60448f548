package serve

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"yhccl/internal/coll"
	"yhccl/internal/fault"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/resilient"
	"yhccl/internal/topo"
)

// Service-time measurement: the scheduler's fluid rates come from real sim
// runs of the job body on a machine with exactly the job's per-socket rank
// shape and the current co-tenant counts folded into the bandwidth shares
// (mpi.NewMachineWithContention). Measurements are memoized per distinct
// (spec, shape, contention) state — the binding is canonicalized to the
// lowest cores of each socket, so two jobs with the same shape share one
// measurement no matter which cores they actually lease.
//
// Every miss one scheduler event raises is measured in one batch
// (prefetch), spread over GOMAXPROCS short-lived workers. A measurement is
// a pure function of its key — a fresh machine, a deterministic sim, no
// shared mutable state — and only the calling goroutine writes the memo,
// so the batch changes when a measurement runs, never what it returns.

// Oracle replaces the sim-backed service-time measurement (used by
// scheduler micro-benchmarks that exercise admission/placement logic
// without paying for simulation). It must be deterministic.
type Oracle func(spec JobSpec, perSocket, ext []int) float64

// measured is one memoized measurement: the service time and, for
// fault-seeded jobs, the supervisor's verdict.
type measured struct {
	t   float64
	out resilient.Outcome
}

// request is one measurement lookup: the job's total service time (all
// Calls) on its per-socket shape under the given per-socket co-tenant
// counts, with its memo key built once.
type request struct {
	spec      JobSpec
	perSocket []int
	ext       []int
	key       string
}

// measurer memoizes sim-backed service times for one node.
type measurer struct {
	node   *topo.Node
	memo   map[string]measured
	oracle Oracle
	buf    []byte // key scratch
	// batches counts prefetches that measured anything.
	batches int
}

func newMeasurer(node *topo.Node) *measurer {
	return &measurer{node: node, memo: make(map[string]measured)}
}

// request builds a lookup, canonicalizing its key.
func (ms *measurer) request(spec JobSpec, perSocket, ext []int) request {
	b := append(ms.buf[:0], spec.Collective...)
	b = append(b, '|')
	b = append(b, spec.Alg...)
	b = append(b, '|')
	b = strconv.AppendInt(b, spec.MsgBytes, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(spec.Calls), 10)
	b = append(b, '|')
	b = strconv.AppendUint(b, spec.FaultSeed, 10)
	for _, counts := range [2][]int{perSocket, ext} {
		b = append(b, '|')
		for i, c := range counts {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(c), 10)
		}
	}
	ms.buf = b
	return request{spec: spec, perSocket: perSocket, ext: ext, key: string(b)}
}

// canonicalCores turns a per-socket shape into a deterministic binding on
// the lowest cores of each socket.
func canonicalCores(node *topo.Node, perSocket []int) []int {
	var cores []int
	for s, k := range perSocket {
		base := s * node.CoresPerSocket
		for i := 0; i < k; i++ {
			cores = append(cores, base+i)
		}
	}
	return cores
}

// measure returns a request's service time and outcome: the oracle's
// answer, or the memoized measurement a prefetch made.
func (ms *measurer) measure(r *request) measured {
	if ms.oracle != nil {
		return measured{t: ms.oracle(r.spec, r.perSocket, r.ext), out: resilient.CleanPass}
	}
	m, ok := ms.memo[r.key]
	if !ok {
		panic("serve: measurement " + r.key + " was not prefetched") // a scheduler bug
	}
	return m
}

// prefetch measures every request not yet memoized, each distinct key
// once. Healthy jobs are measured model-only; fault-seeded jobs run
// supervised on real data (bit-flip validation needs payloads) via
// faultService, which charges the healthy per-call time — so the healthy
// wave, including every missing fault key's healthy twin, runs first and
// the fault wave second. Each wave is spread over GOMAXPROCS workers and
// memoized, in request order, by the calling goroutine once it is done.
func (ms *measurer) prefetch(reqs []request) {
	if ms.oracle != nil {
		return
	}
	var healthy, faulty []request
	var twins []string // healthy twin key of each faulty request
	for _, r := range reqs {
		if r.spec.FaultSeed == 0 {
			if ms.missing(healthy, r.key) {
				healthy = append(healthy, r)
			}
			continue
		}
		if !ms.missing(faulty, r.key) {
			continue
		}
		hs := r.spec
		hs.FaultSeed = 0
		twin := ms.request(hs, r.perSocket, r.ext)
		faulty, twins = append(faulty, r), append(twins, twin.key)
		if ms.missing(healthy, twin.key) {
			healthy = append(healthy, twin)
		}
	}
	if len(healthy)+len(faulty) == 0 {
		return
	}
	ms.batches++
	ms.wave(healthy, func(i int) measured {
		r := &healthy[i]
		return measured{t: ms.healthyService(r.spec, r.perSocket, r.ext), out: resilient.CleanPass}
	})
	perCall := make([]float64, len(faulty))
	for i := range faulty {
		perCall[i] = ms.memo[twins[i]].t / float64(faulty[i].spec.Calls)
	}
	ms.wave(faulty, func(i int) measured {
		r := &faulty[i]
		var m measured
		m.t, m.out = ms.faultService(r.spec, r.perSocket, r.ext, perCall[i])
		return m
	})
}

// wave measures every request of a wave (measure(i) for reqs[i]) on up to
// GOMAXPROCS short-lived workers that take indices in order and write only
// their own result slot (inline with one worker), then memoizes the
// results in request order on the calling goroutine.
func (ms *measurer) wave(reqs []request, measure func(i int) measured) {
	out := make([]measured, len(reqs))
	if workers := min(runtime.GOMAXPROCS(0), len(reqs)); workers <= 1 {
		for i := range reqs {
			out[i] = measure(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
					out[i] = measure(i)
				}
			}()
		}
		wg.Wait()
	}
	for i := range reqs {
		ms.memo[reqs[i].key] = out[i]
	}
}

// missing reports whether key is neither memoized nor already in wave.
func (ms *measurer) missing(wave []request, key string) bool {
	if _, ok := ms.memo[key]; ok {
		return false
	}
	for i := range wave {
		if wave[i].key == key {
			return false
		}
	}
	return true
}

// healthyService measures the full Calls-loop once, cold, on a contended
// machine. Cold-start costs appear identically in every contention state,
// so solo/co-tenant ratios — all the scheduler consumes — stay meaningful.
func (ms *measurer) healthyService(spec JobSpec, perSocket, ext []int) float64 {
	m := mpi.NewMachineWithContention(ms.node, canonicalCores(ms.node, perSocket), ext, false)
	body, err := healthyBody(spec, m.Size())
	if err != nil {
		panic(err) // specs are validated at submission; this is a scheduler bug
	}
	return m.MustRun(body)
}

// healthyBody builds the model-only per-rank loop for a spec: Calls
// back-to-back collective calls with OSU-style buffer re-warming between
// iterations.
func healthyBody(spec JobSpec, p int) (func(*mpi.Rank), error) {
	n := spec.MsgBytes / memmodel.ElemSize
	if n < 1 {
		n = 1
	}
	calls := spec.Calls
	alg := spec.Alg
	if alg == "" {
		alg = "yhccl"
	}
	o := coll.Options{}
	pp := int64(p)
	switch spec.Collective {
	case "allreduce":
		f, err := coll.Lookup(coll.AllreduceAlgos, alg)
		if err != nil {
			return nil, err
		}
		return func(r *mpi.Rank) {
			sb := r.PersistentBuffer("serve/sb", n)
			rb := r.PersistentBuffer("serve/rb", n)
			for i := 0; i < calls; i++ {
				r.Warm(sb, 0, n)
				f(r, r.World(), sb, rb, n, mpi.Sum, o)
			}
		}, nil
	case "reduce-scatter":
		f, err := coll.Lookup(coll.ReduceScatterAlgos, alg)
		if err != nil {
			return nil, err
		}
		return func(r *mpi.Rank) {
			sb := r.PersistentBuffer("serve/sb", n*pp)
			rb := r.PersistentBuffer("serve/rb", n)
			for i := 0; i < calls; i++ {
				r.Warm(sb, 0, n*pp)
				f(r, r.World(), sb, rb, n, mpi.Sum, o)
			}
		}, nil
	case "reduce":
		f, err := coll.Lookup(coll.ReduceAlgos, alg)
		if err != nil {
			return nil, err
		}
		return func(r *mpi.Rank) {
			sb := r.PersistentBuffer("serve/sb", n)
			rb := r.PersistentBuffer("serve/rb", n)
			for i := 0; i < calls; i++ {
				r.Warm(sb, 0, n)
				f(r, r.World(), sb, rb, n, mpi.Sum, 0, o)
			}
		}, nil
	case "bcast":
		f, err := coll.Lookup(coll.BcastAlgos, alg)
		if err != nil {
			return nil, err
		}
		return func(r *mpi.Rank) {
			buf := r.PersistentBuffer("serve/buf", n)
			for i := 0; i < calls; i++ {
				if r.ID() == 0 {
					r.Warm(buf, 0, n)
				}
				f(r, r.World(), buf, n, 0, o)
			}
		}, nil
	case "allgather":
		f, err := coll.Lookup(coll.AllgatherAlgos, alg)
		if err != nil {
			return nil, err
		}
		return func(r *mpi.Rank) {
			sb := r.PersistentBuffer("serve/sb", n)
			rb := r.PersistentBuffer("serve/rb", n*pp)
			for i := 0; i < calls; i++ {
				r.Warm(sb, 0, n)
				f(r, r.World(), sb, rb, n, o)
			}
		}, nil
	case "alltoall":
		f, err := coll.Lookup(coll.AlltoallAlgos, alg)
		if err != nil {
			return nil, err
		}
		return func(r *mpi.Rank) {
			sb := r.PersistentBuffer("serve/sb", n*pp)
			rb := r.PersistentBuffer("serve/rb", n*pp)
			for i := 0; i < calls; i++ {
				r.Warm(sb, 0, n*pp)
				f(r, r.World(), sb, rb, n, o)
			}
		}, nil
	}
	return nil, fmt.Errorf("serve: unsupported collective %q", spec.Collective)
}

// faultService measures a fault-seeded tenant: one validated collective
// call runs under the resilient supervisor (real data, the seed's
// GenPlan), and the remaining Calls-1 are charged at the healthy
// per-call time — the fault fires once, recovery happens once. Failed
// attempts charge the virtual time they actually burned before being
// diagnosed (Attempt.Elapsed) — not a flat healthy call — so deadline
// accounting sees the true cost of every retry. Returns the total service
// time and the supervisor's outcome.
func (ms *measurer) faultService(spec JobSpec, perSocket, ext []int, perCall float64) (float64, resilient.Outcome) {
	cores := canonicalCores(ms.node, perSocket)
	m := mpi.NewMachineWithContention(ms.node, cores, ext, true)
	plan := fault.GenPlan(spec.FaultSeed, len(cores), perCall)
	if err := m.SetFaultPlan(plan); err != nil {
		panic(fmt.Sprintf("serve: bad generated plan: %v", err))
	}
	alg := spec.Alg
	if alg == "" {
		alg = "yhccl"
	}
	job := resilient.Job{
		Name:     spec.Name,
		MaxDepth: coll.MaxFallbackDepth(spec.Collective, alg),
		Bind: func(m *mpi.Machine, depth, salt int) (func(*mpi.Rank), func() error, error) {
			b, err := faultBody(spec, m, depth, salt)
			if err != nil {
				return nil, nil, err
			}
			return b.run, func() error { return b.verr }, nil
		},
	}
	pol := resilient.DefaultPolicy()
	pol.AllowRemap = false // leased cores come with no spares to quarantine onto
	rep := resilient.Supervise(m, job, pol)

	total := 0.0
	for _, a := range rep.Attempts {
		switch {
		case a.Makespan > 0:
			total += a.Makespan
		case a.Elapsed > 0:
			total += a.Elapsed
		default:
			// Diagnosed before any rank advanced (e.g. bind failure):
			// charge one healthy call as the floor.
			total += perCall
		}
	}
	total += float64(spec.Calls-1) * perCall
	return total, rep.Outcome
}

// faultBody is the chaos-style validated single-call body: fill-pattern
// bases salted per attempt, resilient dispatch at the given depth, exact
// self-validation capturing the first divergence.
type bodyState struct {
	run  func(*mpi.Rank)
	verr error
}

func faultBody(spec JobSpec, m *mpi.Machine, depth, salt int) (*bodyState, error) {
	p := m.Size()
	bases := coll.SumBasesSalted(p, salt)
	b := &bodyState{}
	check := func(err error) {
		if err != nil && b.verr == nil {
			b.verr = err
		}
	}
	n := spec.MsgBytes / memmodel.ElemSize
	if n < 1 {
		n = 1
	}
	alg := spec.Alg
	if alg == "" {
		alg = "yhccl"
	}
	o := coll.Options{FallbackDepth: depth}
	switch spec.Collective {
	case "allreduce":
		name, f, err := coll.ResilientAR(alg, o)
		if err != nil {
			return nil, err
		}
		opName := spec.Collective + "/" + name
		b.run = func(r *mpi.Rank) {
			sb := r.NewBuffer("sb", n)
			rb := r.NewBuffer("rb", n)
			r.FillPattern(sb, bases[r.ID()])
			f(r, r.World(), sb, rb, n, mpi.Sum, o)
			check(coll.ValidateAllreduceSum(opName, r.ID(), rb, n, bases))
		}
	case "reduce-scatter":
		name, f, err := coll.ResilientRS(alg, o)
		if err != nil {
			return nil, err
		}
		opName := spec.Collective + "/" + name
		b.run = func(r *mpi.Rank) {
			sb := r.NewBuffer("sb", int64(p)*n)
			rb := r.NewBuffer("rb", n)
			r.FillPattern(sb, bases[r.ID()])
			f(r, r.World(), sb, rb, n, mpi.Sum, o)
			check(coll.ValidateReduceScatterSum(opName, r.ID(), rb, n, bases))
		}
	case "reduce":
		name, f, err := coll.ResilientReduce(alg, o)
		if err != nil {
			return nil, err
		}
		opName := spec.Collective + "/" + name
		b.run = func(r *mpi.Rank) {
			sb := r.NewBuffer("sb", n)
			rb := r.NewBuffer("rb", n)
			r.FillPattern(sb, bases[r.ID()])
			f(r, r.World(), sb, rb, n, mpi.Sum, 0, o)
			check(coll.ValidateReduceSum(opName, r.ID(), 0, rb, n, bases))
		}
	case "bcast":
		name, f, err := coll.ResilientBcast(alg, o)
		if err != nil {
			return nil, err
		}
		opName := spec.Collective + "/" + name
		rootBase := 777 + float64(salt*17)
		b.run = func(r *mpi.Rank) {
			buf := r.NewBuffer("buf", n)
			if r.ID() == 0 {
				r.FillPattern(buf, rootBase)
			}
			f(r, r.World(), buf, n, 0, o)
			check(coll.ValidateBcast(opName, r.ID(), buf, n, rootBase))
		}
	case "allgather":
		name, f, err := coll.ResilientAG(alg, o)
		if err != nil {
			return nil, err
		}
		opName := spec.Collective + "/" + name
		b.run = func(r *mpi.Rank) {
			sb := r.NewBuffer("sb", n)
			rb := r.NewBuffer("rb", int64(p)*n)
			r.FillPattern(sb, bases[r.ID()])
			f(r, r.World(), sb, rb, n, o)
			check(coll.ValidateAllgather(opName, r.ID(), rb, n, bases))
		}
	default:
		return nil, fmt.Errorf("serve: fault-seeded job on unsupported collective %q", spec.Collective)
	}
	return b, nil
}
