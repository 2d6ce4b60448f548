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

// figCompare is one Figs. 9-11 panel: a collective swept over the
// movement-avoiding family and the baselines on node with p ranks, with
// the paper's per-node tuning; the socket-aware MA series is the
// relative-time baseline.
func figCompare(fig, what, collective string, algs []legend) func(node *topo.Node, p int) Runner {
	return func(node *topo.Node, p int) Runner {
		return func(quick bool) (*Figure, error) {
			sizes := MsgSizes(quick)
			o := NodeOptions(node)
			f := &Figure{
				ID:       fig + nodeSuffix(node),
				Title:    fmt.Sprintf("%s comparison (%s, p=%d)", what, node.Name, p),
				XLabel:   "Msg bytes",
				XValues:  sizes,
				YLabel:   "time (us)",
				Baseline: "Socket-aware MA (ours)",
			}
			for _, a := range algs {
				call := bind(collective, a.alg)
				f.Series = append(f.Series, Series{Name: a.name, Y: sweep(sizes, func(s int64) float64 {
					return Measure(node, p, collective, call, s, o)
				})})
			}
			return f, nil
		}
	}
}

var (
	figReduceScatter = figCompare("fig9", "Reduce-scatter", "reduce-scatter", []legend{
		{"Socket-aware MA (ours)", "socket-ma"}, {"MA (ours)", "ma"}, {"DPML", "dpml"},
		{"Ring", "ring"}, {"Rabenseifner", "rabenseifner"},
	})
	figReduce = figCompare("fig10", "Reduce", "reduce", []legend{
		{"Socket-aware MA (ours)", "socket-ma"}, {"MA (ours)", "ma"}, {"DPML", "dpml"}, {"RG", "rg"},
	})
	figAllreduce = figCompare("fig11", "All-reduce", "allreduce", []legend{
		{"Socket-aware MA (ours)", "socket-ma"}, {"MA (ours)", "ma"}, {"DPML", "dpml"}, {"RG", "rg"},
		{"Ring", "ring"}, {"Rabenseifner", "rabenseifner"},
	})
)

// figScalability is Fig. 16a: all-reduce at 64 MB over p = 2..64 on NodeA.
func figScalability(quick bool) (*Figure, error) {
	node := topo.NodeA()
	ps := []int{2, 4, 8, 16, 32, 64}
	if quick {
		ps = []int{2, 8, 64}
	}
	const s = 64 << 20
	algs := []legend{
		{"YHCCL", "yhccl"}, {"DPML", "dpml"}, {"RG", "rg"}, {"Open MPI (ring)", "ring"},
		{"MPICH (Rabenseifner)", "rabenseifner"}, {"Hashmi's XPMEM", "xpmem"},
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
		call := bind("allreduce", a.alg)
		ys := make([]float64, len(ps))
		for i, p := range ps {
			ys[i] = Measure(node, p, "allreduce", call, s, coll.Options{})
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
