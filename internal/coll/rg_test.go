package coll

import (
	"testing"

	"yhccl/internal/dav"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/topo"
)

func TestReduceRGCorrect(t *testing.T) {
	for _, p := range []int{2, 3, 5, 9} {
		for _, root := range []int{0, p - 1} {
			n := int64(1000)
			m := mpi.NewMachine(topo.NodeA(), p, true)
			m.MustRun(func(r *mpi.Rank) {
				sb := r.NewBuffer("sb", n)
				rb := r.NewBuffer("rb", n)
				r.FillPattern(sb, float64(r.ID()))
				ReduceRG(r, r.World(), sb, rb, n, mpi.Sum, root, Options{})
				if r.ID() == root {
					for j := int64(0); j < n; j += 19 {
						if got, want := rb.Slice(j, 1)[0], expectSum(p, j); got != want {
							t.Errorf("p=%d root=%d rb[%d] = %v, want %v", p, root, j, got, want)
							return
						}
					}
				}
			})
		}
	}
}

func TestReduceRGMultiSlicePipelined(t *testing.T) {
	// Message far larger than the 128 KB slice: exercises double buffering.
	n := int64(100000) // ~6 slices of 16384 elems
	p := 9
	m := mpi.NewMachine(topo.NodeA(), p, true)
	m.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, float64(r.ID()))
		ReduceRG(r, r.World(), sb, rb, n, mpi.Sum, 0, Options{})
		if r.ID() == 0 {
			for j := int64(0); j < n; j += 503 {
				if got, want := rb.Slice(j, 1)[0], expectSum(p, j); got != want {
					t.Fatalf("rb[%d] = %v, want %v", j, got, want)
				}
			}
		}
	})
}

func TestReduceRGDAVMatchesTable3(t *testing.T) {
	// Exact for p a power of k+1: p=9, k=2.
	p, k := 9, 2
	n := int64(16384) // one slice exactly
	m := mpi.NewMachine(topo.NodeA(), p, true)
	m.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		ReduceRG(r, r.World(), sb, rb, n, mpi.Sum, 0, Options{RGDegree: k})
	})
	s := n * memmodel.ElemSize
	if got, want := m.Model.Counters().DAV(), dav.RGReduce(s, p, k); got != want {
		t.Errorf("RG reduce DAV = %d, want %d", got, want)
	}
}

func TestAllreduceRGCorrect(t *testing.T) {
	for _, p := range []int{2, 3, 5, 9} {
		n := int64(40000) // multiple slices
		m := mpi.NewMachine(topo.NodeA(), p, true)
		m.MustRun(func(r *mpi.Rank) {
			sb := r.NewBuffer("sb", n)
			rb := r.NewBuffer("rb", n)
			r.FillPattern(sb, float64(r.ID()))
			AllreduceRG(r, r.World(), sb, rb, n, mpi.Sum, Options{})
			for j := int64(0); j < n; j += 211 {
				if got, want := rb.Slice(j, 1)[0], expectSum(p, j); got != want {
					t.Errorf("p=%d rank %d rb[%d] = %v, want %v", p, r.ID(), j, got, want)
					return
				}
			}
		})
	}
}

func TestAllreduceRGRepeated(t *testing.T) {
	p := 5
	n := int64(30000)
	m := mpi.NewMachine(topo.NodeA(), p, true)
	m.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		for iter := 0; iter < 3; iter++ {
			r.FillPattern(sb, float64(r.ID()+iter))
			AllreduceRG(r, r.World(), sb, rb, n, mpi.Sum, Options{})
			want := expectSum(p, 777) + float64(p*iter)
			if got := rb.Slice(777, 1)[0]; got != want {
				t.Fatalf("iter %d rank %d: %v, want %v", iter, r.ID(), got, want)
			}
		}
	})
}

func TestAllreduceRGDAV(t *testing.T) {
	p, k := 9, 2
	n := int64(16384)
	m := mpi.NewMachine(topo.NodeA(), p, true)
	m.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		AllreduceRG(r, r.World(), sb, rb, n, mpi.Sum, Options{RGDegree: k})
	})
	s := n * memmodel.ElemSize
	// Reduce part exactly Table 3's form; the copy-out adds 2sp.
	want := dav.RGReduce(s, p, k) + 2*s*int64(p)
	if got := m.Model.Counters().DAV(); got != want {
		t.Errorf("RG allreduce DAV = %d, want %d", got, want)
	}
}
