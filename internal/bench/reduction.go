package bench

import (
	"fmt"

	"yhccl/internal/coll"
	"yhccl/internal/topo"
)

// Figs. 9-11: the movement-avoiding reduction family against DPML, Ring,
// Rabenseifner and RG on NodeA (p=64) and NodeB (p=48), plus Fig. 16a's
// single-node scalability sweep.

func init() {
	register("fig9a", "Reduce-scatter algorithm comparison, NodeA p=64", figReduceScatter(topo.NodeA(), 64))
	register("fig9b", "Reduce-scatter algorithm comparison, NodeB p=48", figReduceScatter(topo.NodeB(), 48))
	register("fig10a", "Reduce algorithm comparison, NodeA p=64", figReduce(topo.NodeA(), 64))
	register("fig10b", "Reduce algorithm comparison, NodeB p=48", figReduce(topo.NodeB(), 48))
	register("fig11a", "All-reduce algorithm comparison, NodeA p=64", figAllreduce(topo.NodeA(), 64))
	register("fig11b", "All-reduce algorithm comparison, NodeB p=48", figAllreduce(topo.NodeB(), 48))
	register("fig16a", "Single-node all-reduce scalability, NodeA p=2..64 @ 64MB", figScalability)
}

// NodeOptions returns the paper's per-node tuning (Imax 256 KB on NodeA,
// 128 KB on NodeB, §5.3).
func NodeOptions(node *topo.Node) coll.Options {
	o := coll.Options{}
	if node.Name == "NodeB" {
		o.SliceMaxBytes = 128 << 10
	}
	return o
}

func figReduceScatter(node *topo.Node, p int) Runner {
	return func(quick bool) (*Figure, error) {
		sizes := MsgSizes(quick)
		o := NodeOptions(node)
		algs := []struct {
			name string
			f    coll.RSFunc
		}{
			{"Socket-aware MA (ours)", coll.ReduceScatterSocketMA},
			{"MA (ours)", coll.ReduceScatterMA},
			{"DPML", coll.ReduceScatterDPML},
			{"Ring", coll.ReduceScatterRing},
			{"Rabenseifner", coll.ReduceScatterRabenseifner},
		}
		f := &Figure{
			ID:       fmt.Sprintf("fig9%s", nodeSuffix(node)),
			Title:    fmt.Sprintf("Reduce-scatter comparison (%s, p=%d)", node.Name, p),
			XLabel:   "Msg bytes",
			XValues:  sizes,
			YLabel:   "time (us)",
			Baseline: "Socket-aware MA (ours)",
		}
		for _, a := range algs {
			a := a
			f.Series = append(f.Series, Series{Name: a.name, Y: sweep(sizes, func(s int64) float64 {
				return MeasureReduceScatter(node, p, a.f, s, o)
			})})
		}
		return f, nil
	}
}

func figReduce(node *topo.Node, p int) Runner {
	return func(quick bool) (*Figure, error) {
		sizes := MsgSizes(quick)
		o := NodeOptions(node)
		algs := []struct {
			name string
			f    coll.ReduceFunc
		}{
			{"Socket-aware MA (ours)", coll.ReduceSocketMA},
			{"MA (ours)", coll.ReduceMA},
			{"DPML", coll.ReduceDPML},
			{"RG", coll.ReduceRG},
		}
		f := &Figure{
			ID:       fmt.Sprintf("fig10%s", nodeSuffix(node)),
			Title:    fmt.Sprintf("Reduce comparison (%s, p=%d)", node.Name, p),
			XLabel:   "Msg bytes",
			XValues:  sizes,
			YLabel:   "time (us)",
			Baseline: "Socket-aware MA (ours)",
		}
		for _, a := range algs {
			a := a
			f.Series = append(f.Series, Series{Name: a.name, Y: sweep(sizes, func(s int64) float64 {
				return MeasureReduce(node, p, a.f, s, o)
			})})
		}
		return f, nil
	}
}

func figAllreduce(node *topo.Node, p int) Runner {
	return func(quick bool) (*Figure, error) {
		sizes := MsgSizes(quick)
		o := NodeOptions(node)
		algs := []struct {
			name string
			f    coll.ARFunc
		}{
			{"Socket-aware MA (ours)", coll.AllreduceSocketMA},
			{"MA (ours)", coll.AllreduceMA},
			{"DPML", coll.AllreduceDPML},
			{"RG", coll.AllreduceRG},
			{"Ring", coll.AllreduceRing},
			{"Rabenseifner", coll.AllreduceRabenseifner},
		}
		f := &Figure{
			ID:       fmt.Sprintf("fig11%s", nodeSuffix(node)),
			Title:    fmt.Sprintf("All-reduce comparison (%s, p=%d)", node.Name, p),
			XLabel:   "Msg bytes",
			XValues:  sizes,
			YLabel:   "time (us)",
			Baseline: "Socket-aware MA (ours)",
		}
		for _, a := range algs {
			a := a
			f.Series = append(f.Series, Series{Name: a.name, Y: sweep(sizes, func(s int64) float64 {
				return MeasureAllreduce(node, p, a.f, s, o)
			})})
		}
		return f, nil
	}
}

// figScalability is Fig. 16a: all-reduce at 64 MB over p = 2..64 on NodeA.
func figScalability(quick bool) (*Figure, error) {
	node := topo.NodeA()
	ps := []int{2, 4, 8, 16, 32, 64}
	if quick {
		ps = []int{2, 8, 64}
	}
	const s = 64 << 20
	algs := []struct {
		name string
		f    coll.ARFunc
	}{
		{"YHCCL", coll.AllreduceYHCCL},
		{"DPML", coll.AllreduceDPML},
		{"RG", coll.AllreduceRG},
		{"Open MPI (ring)", coll.AllreduceRing},
		{"MPICH (Rabenseifner)", coll.AllreduceRabenseifner},
		{"Hashmi's XPMEM", coll.AllreduceXPMEM},
	}
	f := &Figure{
		ID:     "fig16a",
		Title:  "Single-node all-reduce scalability (NodeA, 64 MB)",
		XLabel: "processes",
		YLabel: "time (us)",
		Notes:  []string{"ranks 2..32 occupy socket 0 only under block binding, as on the real machine"},
	}
	for _, p := range ps {
		f.XValues = append(f.XValues, int64(p))
	}
	for _, a := range algs {
		ys := make([]float64, len(ps))
		for i, p := range ps {
			ys[i] = MeasureAllreduce(node, p, a.f, s, coll.Options{})
		}
		f.Series = append(f.Series, Series{Name: a.name, Y: ys})
	}
	return f, nil
}

func nodeSuffix(node *topo.Node) string {
	if node.Name == "NodeB" {
		return "b"
	}
	return "a"
}
