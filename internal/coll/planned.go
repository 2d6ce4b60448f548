package coll

import (
	"fmt"
	"sync"

	"yhccl/internal/memcopy"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/plan"
	"yhccl/internal/schedule"
)

// Planner is a machine's tuned-plan dispatch state: the loaded plan table
// plus lazily compiled graphs for the searched "fanout" family. One Planner
// is built per machine (facade: yhccl.AttachPlans) and attached via
// mpi.Machine.SetTuning — the per-call cost is a single table lookup.
type Planner struct {
	table *plan.Table

	// graphs caches compiled fanout DAGs keyed by (collective, p, fanout).
	// Guarded: ranks are concurrent goroutines inside a simulation run.
	mu     sync.Mutex
	graphs map[graphKey]*plan.Graph
}

type graphKey struct {
	coll string
	p    int
	f    int
}

// NewPlanner wraps a loaded plan table for dispatch.
func NewPlanner(t *plan.Table) *Planner {
	return &Planner{table: t, graphs: make(map[graphKey]*plan.Graph)}
}

// Table exposes the underlying plan table (examples, diagnostics).
func (pl *Planner) Table() *plan.Table { return pl.table }

// PlannerOf returns the machine's attached Planner, or nil when it runs on
// hand-tuned dispatch.
func PlannerOf(m *mpi.Machine) *Planner {
	pl, _ := m.Tuning().(*Planner)
	return pl
}

// fanouts lowers and runs the searched "fanout" family of the collectives
// that have one.
var fanouts = map[string]struct {
	lower func(schedule.Schedule) (*plan.Graph, error)
	run   func(r *mpi.Rank, c *mpi.Comm, g *plan.Graph, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options)
}{
	"allreduce":      {plan.AllreduceFromSchedule, AllreduceGraph},
	"reduce-scatter": {plan.FromSchedule, ReduceScatterGraph},
}

// fanoutGraph returns the compiled DAG for the fanout family, building and
// validating it on first use.
func (pl *Planner) fanoutGraph(collective string, p, f int) *plan.Graph {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	k := graphKey{collective, p, f}
	if g, ok := pl.graphs[k]; ok {
		return g
	}
	fo, ok := fanouts[collective]
	if !ok {
		panic(fmt.Errorf("coll: fanout family has no %s lowering", collective))
	}
	g, err := fo.lower(schedule.Fanout(p, f))
	if err != nil {
		panic(err) // searched plans are validated at synthesis time
	}
	pl.graphs[k] = g
	return g
}

// ApplyParams overlays a plan's searched parameters onto base options:
// pipeline slice bound, copy policy, RG degree. Unset params keep the
// caller's values, so node-specific defaults still apply.
func ApplyParams(o Options, pr plan.Params) Options {
	if pr.SliceKB > 0 {
		o.SliceMaxBytes = pr.SliceKB << 10
	}
	if pr.Policy != "" {
		pol, err := memcopy.ParsePolicy(pr.Policy)
		if err != nil {
			panic(err) // validated at synthesis time
		}
		o = o.WithPolicy(pol)
	}
	if pr.RGDegree > 0 {
		o.RGDegree = pr.RGDegree
	}
	return o
}

// BindTuned binds a paper collective to pl's plan table: each call looks up
// the plan for its message size — the total p*n message for
// reduce-scatter (the figure convention), the per-rank message otherwise —
// overlays the plan's params and runs its family, a fanout graph or a
// registry algorithm. A nil planner or an untuned collective runs the
// hand-tuned "yhccl" switch.
func BindTuned(pl *Planner, collective string) (Call, error) {
	c, err := plan.ParseColl(collective)
	if err != nil {
		return nil, err
	}
	algos := registry[collective]
	yhccl := algos["yhccl"]
	if pl == nil {
		return yhccl, nil
	}
	return func(r *mpi.Rank, cm *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, root int, o Options) {
		bytes := n * memmodel.ElemSize
		if c == plan.ReduceScatter {
			bytes *= int64(cm.Size())
		}
		entry := pl.table.Lookup(c, bytes)
		if entry == nil {
			yhccl(r, cm, sb, rb, n, op, root, o)
			return
		}
		o = ApplyParams(o, entry.Params)
		if entry.Params.Family == "fanout" {
			g := pl.fanoutGraph(collective, cm.Size(), entry.Params.Fanout)
			fanouts[collective].run(r, cm, g, sb, rb, n, op, o)
			return
		}
		f, err := Lookup(algos, entry.Params.Family)
		if err != nil {
			panic(err)
		}
		f(r, cm, sb, rb, n, op, root, o)
	}, nil
}

// BindPlan binds one plan family on p ranks without a table, as the tuner
// measures a candidate: "fanout" lowers a fresh schedule graph for the
// collectives that have one, any other family is a registry lookup. The
// caller overlays the params on its options (ApplyParams).
func BindPlan(collective string, p int, pr plan.Params) (Call, error) {
	fo, ok := fanouts[collective]
	if pr.Family != "fanout" || !ok {
		return Bind(collective, pr.Family)
	}
	g, err := fo.lower(schedule.Fanout(p, pr.Fanout))
	if err != nil {
		return nil, err
	}
	return func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, _ int, o Options) {
		fo.run(r, c, g, sb, rb, n, op, o)
	}, nil
}
