package coll

import (
	"testing"

	"yhccl/internal/mpi"
	"yhccl/internal/topo"
)

func runGather(t *testing.T, p int, n int64, root int, alg GatherFunc) {
	t.Helper()
	m := mpi.NewMachine(topo.NodeA(), p, true)
	m.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", int64(p)*n)
		r.FillPattern(sb, float64(r.ID()*1000))
		alg(r, r.World(), sb, rb, n, root, Options{})
		if r.ID() == root {
			for b := 0; b < p; b++ {
				for j := int64(0); j < n; j += 29 {
					want := float64(b*1000) + float64(j)
					if got := rb.Slice(int64(b)*n+j, 1)[0]; got != want {
						t.Errorf("gather root rb[%d][%d] = %v, want %v", b, j, got, want)
						return
					}
				}
			}
		}
	})
}

func TestGatherAlgorithms(t *testing.T) {
	for name, alg := range GatherAlgos {
		alg := alg
		t.Run(name, func(t *testing.T) {
			runGather(t, 8, 500, 0, alg)
			runGather(t, 5, 333, 3, alg)
			runGather(t, 1, 100, 0, alg)
		})
	}
}

func runScatter(t *testing.T, p int, n int64, root int, alg ScatterFunc) {
	t.Helper()
	m := mpi.NewMachine(topo.NodeA(), p, true)
	m.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", int64(p)*n)
		rb := r.NewBuffer("rb", n)
		if r.ID() == root {
			r.FillPattern(sb, 0) // block b element j = b*n + j
		}
		alg(r, r.World(), sb, rb, n, root, Options{})
		me := int64(r.ID())
		for j := int64(0); j < n; j += 23 {
			want := float64(me*n + j)
			if got := rb.Slice(j, 1)[0]; got != want {
				t.Errorf("scatter rank %d rb[%d] = %v, want %v", r.ID(), j, got, want)
				return
			}
		}
	})
}

func TestScatterAlgorithms(t *testing.T) {
	for name, alg := range ScatterAlgos {
		alg := alg
		t.Run(name, func(t *testing.T) {
			runScatter(t, 8, 500, 0, alg)
			runScatter(t, 4, 250, 2, alg)
			runScatter(t, 1, 64, 0, alg)
		})
	}
}

func runAlltoall(t *testing.T, p int, n int64, alg AlltoallFunc) {
	t.Helper()
	m := mpi.NewMachine(topo.NodeA(), p, true)
	m.MustRun(func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", int64(p)*n)
		rb := r.NewBuffer("rb", int64(p)*n)
		// sb block j element i = me*1e6 + j*1000 + i%997
		data := sb.Slice(0, int64(p)*n)
		for j := 0; j < p; j++ {
			for i := int64(0); i < n; i++ {
				data[int64(j)*n+i] = float64(r.ID())*1e6 + float64(j)*1000 + float64(i%997)
			}
		}
		alg(r, r.World(), sb, rb, n, Options{})
		// rb block j must hold rank j's block me.
		for j := 0; j < p; j++ {
			for i := int64(0); i < n; i += 31 {
				want := float64(j)*1e6 + float64(r.ID())*1000 + float64(i%997)
				if got := rb.Slice(int64(j)*n+i, 1)[0]; got != want {
					t.Errorf("alltoall rank %d rb[%d][%d] = %v, want %v", r.ID(), j, i, got, want)
					return
				}
			}
		}
	})
}

func TestAlltoallAlgorithms(t *testing.T) {
	for name, alg := range AlltoallAlgos {
		alg := alg
		t.Run(name, func(t *testing.T) {
			runAlltoall(t, 8, 300, alg)
			runAlltoall(t, 3, 100, alg)
			runAlltoall(t, 1, 50, alg)
		})
	}
}

func TestAlltoallMortonLargerChunksGrid(t *testing.T) {
	// Multi-chunk grid (n larger than one slice) exercises the Z-curve.
	runAlltoall(t, 4, 100000, AlltoallMorton)
}

func TestMortonDecode(t *testing.T) {
	cases := []struct{ z, x, y int64 }{
		{0, 0, 0}, {1, 1, 0}, {2, 0, 1}, {3, 1, 1},
		{4, 2, 0}, {8, 0, 2}, {12, 2, 2}, {63, 7, 7},
	}
	for _, c := range cases {
		x, y := mortonDecode(c.z)
		if x != c.x || y != c.y {
			t.Errorf("mortonDecode(%d) = (%d,%d), want (%d,%d)", c.z, x, y, c.x, c.y)
		}
	}
}

func TestMortonCoversGrid(t *testing.T) {
	// Property: the z sweep visits every (x,y) of a 2^k grid exactly once.
	seen := map[[2]int64]bool{}
	for z := int64(0); z < 64; z++ {
		x, y := mortonDecode(z)
		key := [2]int64{x, y}
		if seen[key] {
			t.Fatalf("(%d,%d) visited twice", x, y)
		}
		seen[key] = true
	}
	if len(seen) != 64 {
		t.Fatalf("covered %d cells, want 64", len(seen))
	}
}

func TestAlltoallDAVSymmetric(t *testing.T) {
	// Both orderings move identical logical volume.
	p := 4
	n := int64(4096)
	dav := func(alg AlltoallFunc) int64 {
		m := mpi.NewMachine(topo.NodeA(), p, true)
		m.MustRun(func(r *mpi.Rank) {
			sb := r.NewBuffer("sb", int64(p)*n)
			rb := r.NewBuffer("rb", int64(p)*n)
			alg(r, r.World(), sb, rb, n, Options{})
		})
		return m.Model.Counters().DAV()
	}
	if a, b := dav(AlltoallShm), dav(AlltoallMorton); a != b {
		t.Errorf("orderings moved different volumes: %d vs %d", a, b)
	}
}

// The rooted collectives home their shared segment on the root's socket,
// so a long-lived machine must serve roots on both sockets: root 0 then
// root 63 on NodeA (2 x 32 cores) lands the second call on socket 1.
func TestRootedCollectivesAcrossSockets(t *testing.T) {
	const p, n = 64, 96
	m := mpi.NewMachine(topo.NodeA(), p, true)
	m.MustRun(func(r *mpi.Rank) {
		buf := r.NewBuffer("buf", n)
		sb := r.NewBuffer("sb", n*p)
		rb := r.NewBuffer("rb", n*p)
		for _, root := range []int{0, p - 1} {
			for _, name := range Names(BcastAlgos) {
				alg := BcastAlgos[name]
				if r.ID() == root {
					r.FillPattern(buf, float64(root))
				}
				alg(r, r.World(), buf, n, root, Options{})
				if got := buf.Slice(n-1, 1)[0]; got != float64(root+n-1) {
					t.Errorf("bcast %s root %d: rank %d got %v", name, root, r.ID(), got)
				}
			}
			for _, name := range Names(GatherAlgos) {
				alg := GatherAlgos[name]
				r.FillPattern(sb, float64(r.ID()*1000))
				alg(r, r.World(), sb, rb, n, root, Options{})
				if r.ID() == root {
					if got := rb.Slice(n*(p-1), 1)[0]; got != float64((p-1)*1000) {
						t.Errorf("gather %s root %d: got %v", name, root, got)
					}
				}
			}
			for _, name := range Names(ScatterAlgos) {
				alg := ScatterAlgos[name]
				if r.ID() == root {
					r.FillPattern(sb, 0)
				}
				alg(r, r.World(), sb, rb, n, root, Options{})
				if got := rb.Slice(0, 1)[0]; got != float64(r.ID()*n) {
					t.Errorf("scatter %s root %d: rank %d got %v", name, root, r.ID(), got)
				}
			}
		}
	})
}
