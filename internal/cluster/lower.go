package cluster

import (
	"fmt"

	"yhccl/internal/memmodel"
	"yhccl/internal/plan"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

// Lowering of plan graphs onto the intra-node template.
//
// A plan.Graph is a chunk-level copy/reduce DAG for one node — the tuner's
// synthesized plans and the §3.1 schedules alike (plan.FromSchedule).
// lowerGraph turns it into an intraTemplate, the one lowered form of an
// intra-node schedule that clusterProgram executes: one template step per
// DAG step, on its assigned rank, in the graph's global topological order.
// In-rank sequencing is the Program contract's implicit C[r][s-1] term;
// only cross-rank producer->consumer edges become explicit dependencies.
// Durations come from the progCosts copy/reduce pricing, so a graph and a
// hand-written template of identical structure lower to identical steps.

// lowerGraph lowers g over blocks of blockBytes into an intra-node
// template. Every dependency names a step of the same phase (step >= 0).
func lowerGraph(node *topo.Node, g *plan.Graph, blockBytes float64, c progCosts) *intraTemplate {
	t := &intraTemplate{steps: make([][]tmplStep, g.P)}
	// producer[slot] is the (rank, local step) that wrote the slot.
	producer := make([]tmplDep, g.Slots)
	for i := range producer {
		producer[i] = tmplDep{local: -1}
	}
	for _, st := range g.Steps {
		r := int(st.R)
		var ts tmplStep
		// A consumed slot on another rank is a cross-rank dependency and —
		// when the producing rank sits on the other socket — a cross-socket
		// transfer, priced with the progCosts cross factor.
		cross := false
		consume := func(slot int32) {
			p := producer[slot]
			if p.local < 0 {
				return
			}
			if int(p.local) != r {
				ts.deps = append(ts.deps, p)
			}
			if crossSocket(node, r, int(p.local)) {
				cross = true
			}
		}
		switch st.Kind {
		case plan.OpCopyIn:
			ts.dur = c.copyT(blockBytes, false)
		case plan.OpReduce:
			for _, op := range [2]plan.Operand{st.A, st.B} {
				if !op.Own {
					consume(op.Slot)
				}
			}
			ts.dur = c.reduceT(blockBytes, cross)
		case plan.OpCopyOut:
			consume(st.Src)
			ts.dur = c.copyT(blockBytes, cross)
		}
		if (st.Kind == plan.OpCopyIn || st.Kind == plan.OpReduce) && st.Dst != plan.ToRecv {
			producer[st.Dst] = tmplDep{local: int32(r), step: int32(len(t.steps[r]))}
		}
		t.steps[r] = append(t.steps[r], ts)
	}
	return t
}

// CompileGraph lowers a plan graph over n elements per block into a
// one-node program. The graph is an intra-node schedule, so the cluster
// must be single-node with PerNode == g.P.
func (c *Cluster) CompileGraph(g *plan.Graph, n int64, _ ScheduleOptions) (sim.Program, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: message must have at least 1 element")
	}
	if c.Nodes != 1 {
		return nil, fmt.Errorf("cluster: plan graphs are intra-node schedules (cluster has %d nodes)", c.Nodes)
	}
	if g == nil {
		return nil, fmt.Errorf("cluster: nil plan graph")
	}
	if g.P != c.PerNode {
		return nil, fmt.Errorf("cluster: graph compiled for %d ranks, cluster binds %d per node", g.P, c.PerNode)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	blockBytes := float64(n * memmodel.ElemSize)
	costs := newProgCosts(c.Node, c.Net, g.P, blockBytes*float64(g.Blocks))
	return &clusterProgram{nodes: 1, perNode: g.P, tmplA: lowerGraph(c.Node, g, blockBytes, costs)}, nil
}
