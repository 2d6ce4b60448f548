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
	register("fig15a", "Reduce-scatter vs state-of-the-art stand-ins, NodeA p=64", fig15ReduceScatter)
	register("fig15b", "Reduce vs state-of-the-art stand-ins, NodeA p=64", fig15Reduce)
	register("fig15c", "All-reduce vs state-of-the-art stand-ins, NodeA p=64", fig15Allreduce)
	register("fig15d", "Broadcast vs state-of-the-art stand-ins, NodeA p=64", fig15Bcast)
	register("fig15e", "All-gather vs state-of-the-art stand-ins, NodeA p=64", fig15Allgather)
}

const fig15P = 64

func fig15Node() *topo.Node { return topo.NodeA() }

func fig15ReduceScatter(quick bool) (*Figure, error) {
	sizes := MsgSizes(quick)
	algs := []struct {
		name string
		f    coll.RSFunc
	}{
		{"YHCCL", coll.ReduceScatterYHCCL},
		{"DPML", coll.ReduceScatterDPML},
		{"Intel MPI", coll.ReduceScatterRabenseifner},
		{"MVAPICH2", coll.ReduceScatterTwoLevel},
		{"MPICH", coll.ReduceScatterRing},
		{"Open MPI", coll.ReduceScatterRing},
		{"XPMEM", coll.ReduceScatterXPMEM},
	}
	f := &Figure{
		ID: "fig15a", Title: "Reduce-scatter vs state-of-the-art (NodeA, p=64)",
		XLabel: "Msg bytes", XValues: sizes, YLabel: "time (us)", Baseline: "YHCCL",
	}
	for _, a := range algs {
		a := a
		f.Series = append(f.Series, Series{Name: a.name, Y: sweep(sizes, func(s int64) float64 {
			return MeasureReduceScatter(fig15Node(), fig15P, a.f, s, coll.Options{})
		})})
	}
	return f, nil
}

func fig15Reduce(quick bool) (*Figure, error) {
	sizes := MsgSizes(quick)
	algs := []struct {
		name string
		f    coll.ReduceFunc
	}{
		{"YHCCL", coll.ReduceYHCCL},
		{"RG", coll.ReduceRG},
		{"Intel MPI", coll.ReduceRG},
		{"MVAPICH2", coll.ReduceTwoLevel},
		{"MPICH", coll.ReduceDPML},
		{"Open MPI", coll.ReduceDPML},
		{"XPMEM", coll.ReduceXPMEM},
	}
	f := &Figure{
		ID: "fig15b", Title: "Reduce vs state-of-the-art (NodeA, p=64)",
		XLabel: "Msg bytes", XValues: sizes, YLabel: "time (us)", Baseline: "YHCCL",
	}
	for _, a := range algs {
		a := a
		f.Series = append(f.Series, Series{Name: a.name, Y: sweep(sizes, func(s int64) float64 {
			return MeasureReduce(fig15Node(), fig15P, a.f, s, coll.Options{})
		})})
	}
	return f, nil
}

func fig15Allreduce(quick bool) (*Figure, error) {
	sizes := MsgSizes(quick)
	algs := []struct {
		name string
		f    coll.ARFunc
	}{
		{"YHCCL", coll.AllreduceYHCCL},
		{"DPML", coll.AllreduceDPML},
		{"RG", coll.AllreduceRG},
		{"Intel MPI", coll.AllreduceRG},
		{"MVAPICH2", coll.AllreduceTwoLevel},
		{"MPICH", coll.AllreduceRabenseifner},
		{"Open MPI", coll.AllreduceCMA},
		{"XPMEM", coll.AllreduceXPMEM},
	}
	f := &Figure{
		ID: "fig15c", Title: "All-reduce vs state-of-the-art (NodeA, p=64)",
		XLabel: "Msg bytes", XValues: sizes, YLabel: "time (us)", Baseline: "YHCCL",
	}
	for _, a := range algs {
		a := a
		f.Series = append(f.Series, Series{Name: a.name, Y: sweep(sizes, func(s int64) float64 {
			return MeasureAllreduce(fig15Node(), fig15P, a.f, s, coll.Options{})
		})})
	}
	return f, nil
}

func fig15Bcast(quick bool) (*Figure, error) {
	sizes := MsgSizes(quick)
	algs := []struct {
		name string
		f    coll.BcastFunc
	}{
		{"YHCCL", coll.BcastPipelined},
		{"Intel MPI", coll.BcastBinomial},
		{"MVAPICH2", coll.BcastBinomial},
		{"MPICH", coll.BcastBinomial},
		{"Open MPI", coll.BcastCMA},
		{"XPMEM", coll.BcastXPMEM},
	}
	f := &Figure{
		ID: "fig15d", Title: "Broadcast vs state-of-the-art (NodeA, p=64)",
		XLabel: "Msg bytes", XValues: sizes, YLabel: "time (us)", Baseline: "YHCCL",
		Notes: []string{"XPMEM overtakes YHCCL past the memmove NT threshold (paper §5.5)"},
	}
	for _, a := range algs {
		a := a
		f.Series = append(f.Series, Series{Name: a.name, Y: sweep(sizes, func(s int64) float64 {
			return MeasureBcast(fig15Node(), fig15P, a.f, s, coll.Options{})
		})})
	}
	return f, nil
}

func fig15Allgather(quick bool) (*Figure, error) {
	sizes := SmallMsgSizes(quick)
	algs := []struct {
		name string
		f    coll.AGFunc
	}{
		{"YHCCL", coll.AllgatherPipelined},
		{"Intel MPI", coll.AllgatherRing},
		{"MVAPICH2", coll.AllgatherRing},
		{"MPICH", coll.AllgatherRing},
		{"Open MPI", coll.AllgatherRing},
		{"XPMEM", coll.AllgatherXPMEM},
	}
	f := &Figure{
		ID: "fig15e", Title: "All-gather vs state-of-the-art (NodeA, p=64)",
		XLabel: "Msg bytes", XValues: sizes, YLabel: "time (us)", Baseline: "YHCCL",
	}
	for _, a := range algs {
		a := a
		f.Series = append(f.Series, Series{Name: a.name, Y: sweep(sizes, func(s int64) float64 {
			return MeasureAllgather(fig15Node(), fig15P, a.f, s, coll.Options{})
		})})
	}
	return f, nil
}
