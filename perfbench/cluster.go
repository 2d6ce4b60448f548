package main

import (
	"fmt"

	"yhccl/internal/cluster"
	"yhccl/internal/fault"
	"yhccl/internal/resilient"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

// cluster_chaos: the event engine at cluster scale. Healthy jobs
// (cluster.New, Compile, RunArmed) at 16x64 to 1024x64 ranks across the
// hierarchical, leader-ring and leader-tree compositions are mixed with
// jobs run under resilient.SuperviseCluster and armed with seeded
// fault.GenClusterPlan and fault.GenChurnPlan plans, which exercise
// recompile, retry, reroute and rejoin. One op is one job.

const (
	perNode = 64
	// hierMaxExp caps hierarchical jobs at 16<<4 = 256 nodes: even with
	// RingSteps coarsening a 1024x64 hierarchical all-reduce dispatches 4.5 M
	// events (1.3 s), more than a few percent of a run.
	hierMaxExp = 4
	// leaderMaxExp lets the leader compositions reach 16<<6 = 1024 nodes.
	leaderMaxExp = 6
	// supMaxExp keeps supervised jobs, which run several attempts, at 16
	// and 32 nodes: at 64 nodes a churn job takes 0.5 s and a seeded plan
	// 0.1-0.45 s, above the 256x64 hierarchical jobs, and whether the tenth
	// sample beyond op_tail_ms's percentile is one of them then depends on
	// the seed's plans.
	supMaxExp = 1
	// From 128 nodes the inter-node ring phases are coarsened to 16
	// macro-steps per rank (a 1024x64 leader-ring all-reduce otherwise
	// dispatches 2.3 M events).
	coarsenAtNodes = 128
	coarseSteps    = 16
	// Fault-plan horizons, in ticks: the cluster chaos sweep's, and a churn
	// horizon inside a supervised job's makespan so the crash fires.
	clusterHorizon = 1_000_000
	churnHorizon   = 200_000_000
	parityMaxRanks = 1024 // check-set jobs re-run on the coroutine engine
)

var clusterColls = []string{cluster.CollAllreduce, cluster.CollBcast, cluster.CollAllgather}

// clusterOp is one healthy or supervised cluster job.
type clusterOp struct {
	nodes int
	coll  string
	alg   cluster.Algorithm
	elems int64
	opts  cluster.ScheduleOptions
	plan  *fault.ClusterPlan // nil for a healthy job
}

func (o clusterOp) String() string {
	plan := "healthy"
	if o.plan != nil {
		plan = o.plan.Name
	}
	return fmt.Sprintf("%s/%s %dx%d n=%d ring-steps=%d %s", o.coll, o.alg, o.nodes, perNode, o.elems, o.opts.RingSteps, plan)
}

type clusterChaos struct {
	seed   uint64
	first  []clusterOp // pass 0, drawn during set-up
	counts map[string]float64
}

func newClusterChaos(seed uint64) *clusterChaos {
	return &clusterChaos{seed: seed, counts: map[string]float64{}}
}

// setup has no long-lived state to build: every job constructs its own
// cluster. It draws the first pass and runs a small job, the same for every
// seed, to finish lazy set-up.
func (c *clusterChaos) setup(tr *tracer) error {
	c.first = c.design(newRNG(c.seed, 1, 0), 0)
	_, err := c.exec(tr, clusterOp{nodes: 16, coll: cluster.CollAllreduce, alg: cluster.YHCCLHierarchical, elems: 1 << 16})
	return err
}

// planClasses are the fault classes of a pass's GenClusterPlan jobs, one
// each (crashes twice). A link-degrade plan runs a latency-bound leader
// ring, where rerouting around the slow lane can win; the rest run the
// hierarchical composition.
var planClasses = []string{"node-crash", "link-degrade", "node-straggler", "phase-corrupt", "mixed", "node-crash"}

// design draws pass p: every composition x collective at every node count
// it is run at (16<<0 .. 16<<maxExp), plus one GenClusterPlan job per
// entry of planClasses and as many GenChurnPlan jobs, at 16 and 32 nodes
// in turn, in seeded order. The shapes and fault classes, which set
// the host cost, are the same for every seed; the seed draws message
// sizes, plan seeds and the order.
func (c *clusterChaos) design(r *rng, p int) []clusterOp {
	var ops []clusterOp
	for _, alg := range []cluster.Algorithm{cluster.YHCCLHierarchical, cluster.LeaderRing, cluster.LeaderTree} {
		maxExp := leaderMaxExp
		if alg == cluster.YHCCLHierarchical {
			maxExp = hierMaxExp
		}
		for _, coll := range clusterColls {
			for e := 0; e <= maxExp; e++ {
				o := clusterOp{nodes: 16 << e, coll: coll, alg: alg}
				if o.nodes >= coarsenAtNodes {
					o.opts.RingSteps = coarseSteps
				}
				// The largest hierarchical shape runs twice, so the slowest
				// group of ops holds more than the ten samples op_tail_ms
				// needs beyond its percentile.
				reps := 1
				if alg == cluster.YHCCLHierarchical && e == maxExp {
					reps = 2
				}
				for k := 0; k < reps; k++ {
					o.elems = int64(r.stratum(0, 1, 1<<10, 1<<22))
					ops = append(ops, o)
				}
			}
		}
	}
	for i := range planClasses {
		for _, churn := range []bool{false, true} {
			o := clusterOp{nodes: 16 << ((i + p) % (supMaxExp + 1)), coll: cluster.CollAllreduce,
				alg: cluster.YHCCLHierarchical, elems: int64(r.stratum(0, 1, 1<<10, 1<<18))}
			shape := fault.ClusterShape{Nodes: o.nodes, PerNode: perNode}
			if churn {
				o.plan = fault.GenChurnPlan(1+r.next()%1_000_000, shape, churnHorizon)
				ops = append(ops, o)
				continue
			}
			class := planClasses[(i+p)%len(planClasses)]
			for try := 0; try < 1000 && (o.plan == nil || o.plan.Class() != class); try++ {
				o.plan = fault.GenClusterPlan(1+r.next()%1_000_000, shape, clusterHorizon)
			}
			if class == "link-degrade" {
				o.alg, o.elems = cluster.LeaderRing, 1<<10
			}
			ops = append(ops, o)
		}
	}
	r.shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

func (c *clusterChaos) pass(p int) []op {
	ops := c.first
	if p > 0 {
		ops = c.design(newRNG(c.seed, 1, uint64(p)), p)
	}
	out := make([]op, len(ops))
	for i, o := range ops {
		o := o
		out[i].run = func(tr *tracer) (func() error, error) {
			res, err := c.exec(tr, o)
			if err != nil {
				return nil, err
			}
			return func() error { return res.check() }, nil
		}
	}
	return out
}

// clusterResult is one job's modelled output.
type clusterResult struct {
	op     clusterOp
	prog   sim.Program // healthy jobs
	res    sim.ProgramResult
	report *resilient.ClusterReport // supervised jobs
}

// check fails a healthy job that did not complete and a supervised job the
// supervisor could not diagnose.
func (r clusterResult) check() error {
	if r.report != nil {
		if r.report.Outcome == resilient.Undiagnosed {
			return fmt.Errorf("%s: UNDIAGNOSED: %v", r.op, r.report.Err)
		}
		return nil
	}
	if r.res.Makespan <= 0 || r.res.Events == 0 {
		return fmt.Errorf("%s: empty run (makespan %d, %d events)", r.op, r.res.Makespan, r.res.Events)
	}
	return nil
}

// exec runs one job, counting its work.
func (c *clusterChaos) exec(tr *tracer, o clusterOp) (clusterResult, error) {
	out := clusterResult{op: o}
	var cl *cluster.Cluster
	tr.do("cluster.New", func() { cl = cluster.New(topo.NodeA(), o.nodes, perNode, cluster.IB100()) })
	if o.plan != nil {
		var rep resilient.ClusterReport
		job := resilient.ClusterJob{Coll: o.coll, Alg: o.alg, Elems: o.elems, Opts: o.opts}
		tr.do("resilient.SuperviseCluster", func() {
			rep = resilient.SuperviseCluster(cl, job, o.plan, resilient.DefaultClusterPolicy())
		})
		out.report = &rep
		c.counts["resilient.jobs"]++
		c.counts["resilient.attempts"] += float64(len(rep.Attempts))
		c.counts["resilient.outcomes."+string(rep.Outcome)]++
		for _, a := range rep.Attempts {
			c.counts["fault.events_fired"] += float64(len(a.Events))
		}
		return out, nil
	}
	var err error
	tr.do("cluster.Compile", func() { out.prog, err = cl.Compile(o.coll, o.alg, o.elems, o.opts) })
	if err != nil {
		return out, fmt.Errorf("%s: compile: %w", o, err)
	}
	var run cluster.ArmedRun
	var before runtimeStats
	if tr.on {
		before = readRuntime()
	}
	tr.do("cluster.RunArmed", func() { run, err = cluster.RunArmed(out.prog, nil, 0) })
	if tr.on {
		c.counts["cluster.alloc_bytes"] += readRuntime().allocBytes - before.allocBytes
		c.counts["cluster.armed_ranks"] += float64(o.nodes * perNode)
	}
	if err != nil {
		return out, fmt.Errorf("%s: run: %w", o, err)
	}
	out.res = run.Res
	c.counts["sim.events"] += float64(run.Res.Events)
	c.counts["sim.steps"] += float64(run.Res.StepsRun)
	c.counts["fault.events_fired"] += float64(len(run.Events))
	return out, nil
}

// model runs the check set: every composition x collective at 16x64, two
// larger healthy jobs and the supervised jobs of a pass.
// deep re-runs each small healthy job on the coroutine engine, whose
// makespan must match.
func (c *clusterChaos) model(tr *tracer, d *digest, deep bool) (map[string]float64, error) {
	var ops []clusterOp
	for _, o := range c.design(newRNG(c.seed, 2), 0) {
		if o.plan != nil || o.nodes == 16 {
			ops = append(ops, o)
		}
	}
	ops = append(ops,
		clusterOp{nodes: 64, coll: cluster.CollAllreduce, alg: cluster.YHCCLHierarchical, elems: 1 << 18},
		clusterOp{nodes: 256, coll: cluster.CollAllgather, alg: cluster.LeaderTree, elems: 1 << 12})
	var makespans []float64
	for _, o := range ops {
		res, err := c.exec(tr, o)
		if err == nil {
			err = res.check()
		}
		if err != nil {
			return nil, err
		}
		d.str(o.String())
		if rep := res.report; rep != nil {
			d.str(string(rep.Outcome))
			for _, a := range rep.Attempts {
				d.str(fmt.Sprintf("%s %d %d %s %d %v", a.Action, a.Nodes, a.Epoch, a.Alg, a.Makespan, a.Events))
			}
			d.str(fmt.Sprint(rep.ExcludedNodes, rep.RejoinedNodes, rep.HealedLinks, rep.FinalEpoch, rep.FinalAlg, rep.FinalNodes))
			d.int(int64(rep.Makespan))
			if rep.Makespan > 0 {
				makespans = append(makespans, rep.Makespan.Seconds()*1e6)
			}
			continue
		}
		d.int(int64(res.res.Makespan))
		d.int(int64(res.res.Events))
		d.int(int64(res.res.StepsRun))
		makespans = append(makespans, res.res.Makespan.Seconds()*1e6)
		if deep && o.nodes*perNode <= parityMaxRanks {
			co, err := sim.RunProgram(sim.EngineCoroutine, res.prog)
			if err != nil {
				return nil, fmt.Errorf("%s: coroutine engine: %w", o, err)
			}
			if co.Makespan != res.res.Makespan {
				return nil, fmt.Errorf("%s: coroutine engine makespan %d, event engine %d", o, co.Makespan, res.res.Makespan)
			}
		}
	}
	return map[string]float64{"model.cluster.makespan_us_geomean": geomean(makespans)}, nil
}

func (c *clusterChaos) takeCounts() map[string]float64 {
	out := c.counts
	c.counts = map[string]float64{}
	return out
}
