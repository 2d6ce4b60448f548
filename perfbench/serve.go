package main

import (
	"fmt"
	"math"

	"yhccl/internal/fault"
	"yhccl/internal/resilient"
	"yhccl/internal/serve"
	"yhccl/internal/topo"
)

// serve_churn: the multi-tenant scheduler. One op is one load point: a
// seeded serve.GenStream arrival stream (OverloadMix plus one fault-seeded
// tenant) offered at a fixed multiple of serve.SaturatingRate, seeded
// capacity shrink/grow pairs and a bounded admission queue (1 to
// serve.OverloadQueueBudget jobs, so small load points shed too), run through a
// fresh serve.NewScheduler(...).RunWithEvents. Arrivals form an open loop
// in virtual time; the benchmark drives load points as a closed loop.

const (
	serveLoad        = 1.5 // offered rate as a multiple of serve.SaturatingRate, the overload gate's point
	servePoints      = 4   // load points per pass
	serveMinJobs     = 16
	serveMaxJobs     = 48
	serveMaxCycles   = 4 // shrink/grow pairs per load point
	serveMinDrain    = 4
	serveMaxDrain    = 16
	faultTenantName  = "fault-tenant"
	faultTenantRanks = 4
)

// serveOp is one load point.
type serveOp struct {
	stream serve.StreamConfig
	drain  int
	// cuts[i] = {shrink, grow} positions of cycle i as fractions of the
	// cycle's slice of the arrival window.
	cuts [][2]float64
}

func (o serveOp) String() string {
	return fmt.Sprintf("load point seed=%d jobs=%d rate=%.0f budget=%d drain=%d cycles=%d",
		o.stream.Seed, o.stream.Jobs, o.stream.Rate, o.stream.QueueBudget, o.drain, len(o.cuts))
}

type serveChurn struct {
	seed   uint64
	node   *topo.Node
	first  []serveOp // pass 0, drawn during set-up
	counts map[string]float64
}

func newServeChurn(seed uint64) *serveChurn {
	return &serveChurn{seed: seed, node: topo.NodeA(), counts: map[string]float64{}}
}

// mix is the overload mix plus one tenant whose jobs run under the
// rank-level supervisor with a seeded fault plan.
func mix(faultSeed uint64) []serve.JobSpec {
	return append(serve.OverloadMix(), serve.JobSpec{
		Name: faultTenantName, Collective: "allreduce", MsgBytes: 64 << 10, Calls: 2, Ranks: faultTenantRanks,
		Placement: serve.PlaceAuto, Weight: 0.5, FaultSeed: faultSeed, Deadline: 0.5,
	})
}

// design draws points load points. Job counts, queue budgets, capacity
// cycles, drain widths and fault-tenant plan classes are stratified across
// the points, so every pass holds the same spread of them. Each stream's seed is redrawn until the
// stream holds its expected share of dnn-storm and fault-tenant jobs, the
// two classes whose cold service-time measurements dominate a load point's
// host time; the seed draws the streams, fault seeds and timings.
func (s *serveChurn) design(r *rng, points int, jobsLo, jobsHi float64) []serveOp {
	ops := make([]serveOp, points)
	budgets, cycles, drains, faults := r.perm(points), r.perm(points), r.perm(points), r.perm(points)
	for i := range ops {
		o := serveOp{
			stream: serve.StreamConfig{
				Mix:         mix(faultSeed(r, faultClasses[faults[i]%len(faultClasses)])),
				Jobs:        int(r.stratum(i, points, jobsLo, jobsHi)),
				Rate:        serveLoad * serve.SaturatingRate,
				QueueBudget: 1 + budgets[i]*serve.OverloadQueueBudget/points + r.intn(serve.OverloadQueueBudget/points),
			},
			drain: serveMinDrain + (drains[i]*(serveMaxDrain-serveMinDrain+1)+r.intn(serveMaxDrain-serveMinDrain+1))/points,
		}
		o.stream.Seed = balancedSeed(r, o.stream)
		for c := 1 + cycles[i]*serveMaxCycles/points; c > 0; c-- {
			o.cuts = append(o.cuts, [2]float64{0.1 + 0.35*r.float(), 0.55 + 0.35*r.float()})
		}
		ops[i] = o
	}
	r.shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// faultClasses are the fault.Plan classes of a pass's fault tenants, one
// per load point: a mixed plan costs the supervisor about half as much
// again as a single fault, and half of all seeds draw one.
var faultClasses = []string{"straggler", "stall", "bitflip", "mixed"}

// faultSeed draws fault-tenant seeds until fault.GenPlan gives a plan of
// the wanted class for the tenant's ranks (or gives up after a bounded
// number of draws).
func faultSeed(r *rng, class string) uint64 {
	seed := 1 + r.next()%1_000_000
	for try := 0; try < 1000 && fault.GenPlan(seed, faultTenantRanks, 1).Class() != class; try++ {
		seed = 1 + r.next()%1_000_000
	}
	return seed
}

// balancedSeed draws stream seeds until the stream's dnn-storm and
// fault-tenant counts are their weight shares of the job count, rounded
// (or gives up after a bounded number of draws).
func balancedSeed(r *rng, cfg serve.StreamConfig) uint64 {
	total := 0.0
	want := map[string]int{"dnn-storm": 0, faultTenantName: 0}
	for _, spec := range cfg.Mix {
		total += spec.Weight
	}
	for _, spec := range cfg.Mix {
		if _, ok := want[spec.Name]; ok {
			want[spec.Name] = int(math.Round(spec.Weight / total * float64(cfg.Jobs)))
		}
	}
	for try := 0; ; try++ {
		cfg.Seed = r.next()
		arrivals, err := serve.GenStream(cfg)
		if err != nil || try == 10_000 {
			return cfg.Seed
		}
		got := map[string]int{}
		for _, a := range arrivals {
			got[a.Spec.Name]++
		}
		if got["dnn-storm"] == want["dnn-storm"] && got[faultTenantName] == want[faultTenantName] {
			return cfg.Seed
		}
	}
}

// setup draws the first pass and runs a small load point, the same for
// every seed, to finish lazy set-up.
func (s *serveChurn) setup(tr *tracer) error {
	s.first = s.design(newRNG(s.seed, 1, 0), servePoints, serveMinJobs, serveMaxJobs)
	res, err := s.exec(tr, s.design(newRNG(0, 3), 1, 20, 20)[0])
	if err != nil {
		return err
	}
	return res.check()
}

func (s *serveChurn) pass(p int) []op {
	ops := s.first
	if p > 0 {
		ops = s.design(newRNG(s.seed, 1, uint64(p)), servePoints, serveMinJobs, serveMaxJobs)
	}
	out := make([]op, len(ops))
	for i, o := range ops {
		o := o
		out[i].run = func(tr *tracer) (func() error, error) {
			res, err := s.exec(tr, o)
			if err != nil {
				return nil, err
			}
			return res.check, nil
		}
	}
	return out
}

// serveResult is one load point's modelled output.
type serveResult struct {
	op      serveOp
	results []serve.JobResult
	events  int
	epochs  int
	log     []string
	span    float64 // virtual seconds from first arrival to last completion
}

// check holds a load point to the serving contract: every arrival is
// accounted for, every admitted job completes inside its deadline without
// going UNDIAGNOSED, and every capacity event is applied.
func (r *serveResult) check() error {
	if len(r.results) != r.op.stream.Jobs {
		return fmt.Errorf("%s: %d results for %d arrivals", r.op, len(r.results), r.op.stream.Jobs)
	}
	for _, j := range r.results {
		if j.Shed {
			continue
		}
		if !(j.Arrive <= j.Admit && j.Admit <= j.Done) || math.IsInf(j.Done, 0) || math.IsNaN(j.Done) {
			return fmt.Errorf("%s: job %d (%s) did not complete: arrive %v admit %v done %v", r.op, j.ID, j.Class, j.Arrive, j.Admit, j.Done)
		}
		if j.DeadlineMiss() {
			return fmt.Errorf("%s: job %d (%s) missed its %.3f s deadline (makespan %.4f s)", r.op, j.ID, j.Class, j.Deadline, j.Makespan())
		}
		if j.Outcome == resilient.Undiagnosed {
			return fmt.Errorf("%s: job %d (%s) UNDIAGNOSED", r.op, j.ID, j.Class)
		}
	}
	if r.epochs != r.events {
		return fmt.Errorf("%s: applied %d capacity epochs for %d events", r.op, r.epochs, r.events)
	}
	return nil
}

// exec generates the load point's stream and runs it on a fresh scheduler.
func (s *serveChurn) exec(tr *tracer, o serveOp) (*serveResult, error) {
	var arrivals []serve.Arrival
	var err error
	tr.do("serve.GenStream", func() { arrivals, err = serve.GenStream(o.stream) })
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o, err)
	}
	window := arrivals[len(arrivals)-1].At
	drain := make([]int, o.drain)
	for i := range drain {
		drain[i] = s.node.Cores() - o.drain + i
	}
	var events []serve.CapacityEvent
	for i, cut := range o.cuts {
		slice := window / float64(len(o.cuts))
		base := slice * float64(i)
		events = append(events,
			serve.CapacityEvent{At: base + cut[0]*slice, Remove: drain},
			serve.CapacityEvent{At: base + cut[1]*slice, Add: drain})
	}
	out := &serveResult{op: o, events: len(events)}
	var sch *serve.Scheduler
	tr.do("serve.RunWithEvents", func() {
		sch = serve.NewScheduler(s.node, serve.PlaceAuto)
		sch.SetQueueBudget(o.stream.QueueBudget)
		out.results, err = sch.RunWithEvents(arrivals, events)
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", o, err)
	}
	out.epochs, out.log = sch.Epochs(), sch.EventLog()
	for _, j := range out.results {
		out.span = math.Max(out.span, j.Done)
	}
	out.span -= arrivals[0].At
	s.counts["serve.jobs"] += float64(len(arrivals))
	for _, j := range out.results {
		if j.Class == faultTenantName && !j.Shed {
			s.counts["resilient.outcomes."+string(j.Outcome)]++
		}
	}
	return out, nil
}

// model runs two load points on fresh schedulers and reports the serving
// results in virtual time.
func (s *serveChurn) model(tr *tracer, d *digest, _ bool) (map[string]float64, error) {
	var makespans, waits []float64
	var admitted, shed, onTime, misses, epochs int
	span := 0.0
	for _, o := range s.design(newRNG(s.seed, 2), 2, serveMinJobs, serveMaxJobs) {
		res, err := s.exec(tr, o)
		if err == nil {
			err = res.check()
		}
		if err != nil {
			return nil, err
		}
		d.str(o.String())
		for _, j := range res.results {
			d.str(fmt.Sprintf("%d %s %d %t %s", j.ID, j.Class, j.Ranks, j.Shed, j.Outcome))
			for _, v := range []float64{j.Arrive, j.Admit, j.Done, j.Deadline} {
				d.float(v)
			}
			if j.Shed {
				shed++
				continue
			}
			admitted++
			makespans = append(makespans, j.Makespan())
			waits = append(waits, j.Wait())
			if j.DeadlineMiss() {
				misses++
			} else {
				onTime++
			}
		}
		for _, line := range res.log {
			d.str(line)
		}
		d.int(int64(res.epochs))
		epochs += res.epochs
		span += res.span
	}
	return map[string]float64{
		"model.serve.admitted":        float64(admitted),
		"model.serve.shed_ratio":      float64(shed) / float64(admitted+shed),
		"model.serve.job_p50_ms":      1e3 * percentile(makespans, 50),
		"model.serve.job_p99_ms":      1e3 * percentile(makespans, 99),
		"model.serve.wait_p99_ms":     1e3 * percentile(waits, 99),
		"model.serve.goodput_jps":     float64(onTime) / span,
		"model.serve.deadline_misses": float64(misses),
		"model.serve.capacity_epochs": float64(epochs),
	}, nil
}

func (s *serveChurn) takeCounts() map[string]float64 {
	out := s.counts
	s.counts = map[string]float64{}
	return out
}
