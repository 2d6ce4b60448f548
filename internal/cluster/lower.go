package cluster

import (
	"fmt"
	"slices"

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
	// Graph steps arrive in topological order, interleaved across ranks:
	// count them per rank first so each lands at its flat index.
	t := &intraTemplate{off: make([]int32, g.P+1)}
	for _, st := range g.Steps {
		t.off[st.R+1]++
	}
	for r := 0; r < g.P; r++ {
		t.off[r+1] += t.off[r]
	}
	n := t.off[g.P]
	t.dur = make([]sim.Tick, n)
	// A step consumes at most two operands, so it has at most two
	// cross-rank dependencies.
	deps := make([][2]tmplDep, n)
	nDeps := make([]int, n)
	next := slices.Clone(t.off[:g.P])
	// producer[slot] is the (rank, local step) that wrote the slot.
	producer := make([]tmplDep, g.Slots)
	for i := range producer {
		producer[i] = tmplDep{local: -1}
	}
	for _, st := range g.Steps {
		r := int(st.R)
		i := next[r]
		next[r]++
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
				deps[i][nDeps[i]] = p
				nDeps[i]++
			}
			if crossSocket(node, r, int(p.local)) {
				cross = true
			}
		}
		switch st.Kind {
		case plan.OpCopyIn:
			t.dur[i] = c.copyT(blockBytes, false)
		case plan.OpReduce:
			for _, op := range [2]plan.Operand{st.A, st.B} {
				if !op.Own {
					consume(op.Slot)
				}
			}
			t.dur[i] = c.reduceT(blockBytes, cross)
		case plan.OpCopyOut:
			consume(st.Src)
			t.dur[i] = c.copyT(blockBytes, cross)
		}
		if (st.Kind == plan.OpCopyIn || st.Kind == plan.OpReduce) && st.Dst != plan.ToRecv {
			producer[st.Dst] = tmplDep{local: int32(r), step: i - t.off[r]}
		}
	}
	t.depOff = make([]int32, 1, n+1)
	for i := range deps {
		t.deps = append(t.deps, deps[i][:nDeps[i]]...)
		t.depOff = append(t.depOff, int32(len(t.deps)))
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
	cp := &clusterProgram{nodes: 1, perNode: g.P, tmplA: lowerGraph(c.Node, g, blockBytes, costs)}
	return cp.resolve()
}
