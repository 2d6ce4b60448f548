package bench

import (
	"yhccl/internal/coll"
	"yhccl/internal/topo"
)

// Fig. 15: YHCCL against the state-of-the-art MPI implementations on NodeA
// (p=64), one panel per collective. The production libraries are
// represented by the algorithm family each uses intra-node (see DESIGN.md
// §1 and EXPERIMENTS.md):
//
//	Intel MPI  -> RG pipelined tree (Jain et al. is Intel's framework)
//	MVAPICH2   -> socket-aware two-level parallel reduction
//	MPICH      -> Rabenseifner / binomial over two-copy shm send/recv
//	Open MPI   -> ring / linear over CMA kernel copies
//	XPMEM      -> Hashmi's direct-access collectives
//
// The buffers are re-touched before every iteration ("we update the
// sending and receiving buffers before each iteration", §5.5), which is
// why kernel-assisted baselines cannot ride a warm cache.

func init() {
	for _, pn := range fig15Panels {
		register(pn.id, pn.desc, fig15(pn))
	}
}

const fig15P = 64

// legend pairs a figure series with the registry algorithm it measures.
type legend struct{ name, alg string }

// fig15Panel is one Fig. 15 panel: a collective swept against the
// production stand-ins, YHCCL first (the relative-time baseline).
type fig15Panel struct {
	id, desc, title, collective string
	sizes                       func(quick bool) []int64
	algs                        []legend
	notes                       []string
}

var fig15Panels = []fig15Panel{
	{"fig15a", "Reduce-scatter vs state-of-the-art stand-ins, NodeA p=64", "Reduce-scatter", "reduce-scatter", MsgSizes, []legend{
		{"YHCCL", "yhccl"}, {"DPML", "dpml"}, {"Intel MPI", "rabenseifner"}, {"MVAPICH2", "two-level"},
		{"MPICH", "ring"}, {"Open MPI", "ring"}, {"XPMEM", "xpmem"},
	}, nil},
	{"fig15b", "Reduce vs state-of-the-art stand-ins, NodeA p=64", "Reduce", "reduce", MsgSizes, []legend{
		{"YHCCL", "yhccl"}, {"RG", "rg"}, {"Intel MPI", "rg"}, {"MVAPICH2", "two-level"},
		{"MPICH", "dpml"}, {"Open MPI", "dpml"}, {"XPMEM", "xpmem"},
	}, nil},
	{"fig15c", "All-reduce vs state-of-the-art stand-ins, NodeA p=64", "All-reduce", "allreduce", MsgSizes, []legend{
		{"YHCCL", "yhccl"}, {"DPML", "dpml"}, {"RG", "rg"}, {"Intel MPI", "rg"}, {"MVAPICH2", "two-level"},
		{"MPICH", "rabenseifner"}, {"Open MPI", "cma"}, {"XPMEM", "xpmem"},
	}, nil},
	{"fig15d", "Broadcast vs state-of-the-art stand-ins, NodeA p=64", "Broadcast", "bcast", MsgSizes, []legend{
		{"YHCCL", "yhccl"}, {"Intel MPI", "binomial"}, {"MVAPICH2", "binomial"}, {"MPICH", "binomial"},
		{"Open MPI", "cma"}, {"XPMEM", "xpmem"},
	}, []string{"XPMEM overtakes YHCCL past the memmove NT threshold (paper §5.5)"}},
	{"fig15e", "All-gather vs state-of-the-art stand-ins, NodeA p=64", "All-gather", "allgather", SmallMsgSizes, []legend{
		{"YHCCL", "yhccl"}, {"Intel MPI", "ring"}, {"MVAPICH2", "ring"}, {"MPICH", "ring"},
		{"Open MPI", "ring"}, {"XPMEM", "xpmem"},
	}, nil},
}

func fig15(pn fig15Panel) Runner {
	return func(quick bool) (*Figure, error) {
		sizes := pn.sizes(quick)
		f := &Figure{
			ID: pn.id, Title: pn.title + " vs state-of-the-art (NodeA, p=64)",
			XLabel: "Msg bytes", XValues: sizes, YLabel: "time (us)", Baseline: "YHCCL",
			Notes: pn.notes,
		}
		for _, a := range pn.algs {
			call := bind(pn.collective, a.alg)
			f.Series = append(f.Series, Series{Name: a.name, Y: sweep(sizes, func(s int64) float64 {
				return Measure(topo.NodeA(), fig15P, pn.collective, call, s, coll.Options{})
			})})
		}
		return f, nil
	}
}
