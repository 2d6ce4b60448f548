package schedule

import (
	"slices"
	"testing"
)

func TestDPMLScheduleValidAndVolume(t *testing.T) {
	// DPML's copy volume is 2(p-1) units per tree: every slice except the
	// executor's own is copied in. Total = 2p(p-1) units = ... in the
	// paper's byte terms, V = 2s(p-1)/... per-tree 2(p-1)I.
	for p := 2; p <= 8; p++ {
		s := DPML(p)
		if err := s.Validate(p); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		// Tree i executed by process i uses its own slice once: p-1 foreign
		// slices -> 2(p-1) units.
		for i, tree := range s {
			if got, want := tree.TotalCopyUnits(), 2*(p-1); got != want {
				t.Errorf("p=%d tree %d: %d units, want %d", p, i, got, want)
			}
		}
	}
}

func TestMAScheduleValidAndOptimal(t *testing.T) {
	// The movement-avoiding schedule achieves exactly 2 units per tree
	// (one copy-in), hence 2p total = the paper's V = 2s.
	for p := 2; p <= 8; p++ {
		s := MA(p)
		if err := s.Validate(p); err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		for i, tree := range s {
			if got := tree.TotalCopyUnits(); got != 2 {
				t.Errorf("p=%d tree %d: %d units, want 2", p, i, got)
			}
		}
		if got, want := s.TotalCopyUnits(), 2*p; got != want {
			t.Errorf("p=%d: schedule total %d, want %d", p, got, want)
		}
	}
}

func TestTheorem31LowerBound(t *testing.T) {
	// Exhaustive verification of Theorem 3.1 for small p: no valid
	// reduction tree has copy volume below 2I, and 2I is attained.
	for p := 2; p <= 5; p++ {
		if got := MinTreeCopyUnits(p); got != 2 {
			t.Errorf("p=%d: exhaustive minimum = %d units, theorem says 2", p, got)
		}
	}
}

func TestEquationOneCases(t *testing.T) {
	// Directly exercise Equation 1's four cases.
	tree := Tree{
		{R: 1, A: Slice(0), B: Slice(1)}, // foreign + own: 2
		{R: 2, A: Ref(0), B: Slice(2)},   // shm + own: 0
		{R: 0, A: Ref(1), B: Slice(3)},   // shm + foreign: 2
	}
	wants := []int{2, 0, 2}
	for j, want := range wants {
		if got := tree.CopyUnits(j); got != want {
			t.Errorf("node %d: %d units, want %d", j, got, want)
		}
	}
	// Both operands foreign slices: 4 units.
	worst := Tree{{R: 2, A: Slice(0), B: Slice(1)}}
	if got := worst.CopyUnits(0); got != 4 {
		t.Errorf("double-foreign node: %d units, want 4", got)
	}
}

func TestValidateRejectsMalformedTrees(t *testing.T) {
	p := 3
	cases := []struct {
		name string
		tree Tree
	}{
		{"wrong length", Tree{{R: 0, A: Slice(0), B: Slice(1)}}},
		{"slice reused", Tree{
			{R: 0, A: Slice(0), B: Slice(1)},
			{R: 0, A: Slice(0), B: Slice(2)},
		}},
		{"forward reference", Tree{
			{R: 0, A: Ref(1), B: Slice(0)},
			{R: 0, A: Slice(1), B: Slice(2)},
		}},
		{"slice missing", Tree{
			{R: 0, A: Slice(0), B: Slice(1)},
			{R: 0, A: Ref(0), B: Slice(1)},
		}},
		{"executor out of range", Tree{
			{R: 5, A: Slice(0), B: Slice(1)},
			{R: 0, A: Ref(0), B: Slice(2)},
		}},
		{"result unconsumed", Tree{
			{R: 0, A: Slice(0), B: Slice(1)},
			{R: 0, A: Slice(2), B: Slice(0)},
		}},
	}
	for _, c := range cases {
		if err := c.tree.Validate(p); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestScheduleValidateLength(t *testing.T) {
	s := MA(4)
	if err := s[:3].Validate(4); err == nil {
		t.Error("short schedule accepted")
	}
}

func TestDPMLMASavingMatchesPaper(t *testing.T) {
	// §2.2: "redundant data movements can account for 40% of the total
	// data accesses". Total accesses per tree = reduction accesses
	// 3(p-1) units + copies; DPML copies 2(p-1), MA copies 2.
	p := 64
	dpmlTotal := 3*(p-1) + 2*(p-1)
	maTotal := 3*(p-1) + 2
	saving := float64(dpmlTotal-maTotal) / float64(dpmlTotal)
	if saving < 0.35 || saving > 0.45 {
		t.Errorf("copy elimination saves %.0f%% of accesses, want ~40%%", saving*100)
	}
}

func TestRGTreeShapes(t *testing.T) {
	// p=9, k=2: groups {0,1,2},{3,4,5},{6,7,8}; then {0,3,6}. Root 0
	// parents twice, its children flattened in level order.
	kids := RGTree(9, 2)
	if want := []int{1, 2, 3, 6}; !slices.Equal(kids[0], want) {
		t.Errorf("root children = %v, want %v", kids[0], want)
	}
	if !slices.Equal(kids[3], []int{4, 5}) {
		t.Errorf("rank 3 children = %v", kids[3])
	}
	if len(kids[5]) != 0 {
		t.Errorf("rank 5 children = %v", kids[5])
	}
}

func TestRGTreeCoversAllRanks(t *testing.T) {
	// Property: every non-root appears exactly once as a child, after its
	// parent in rank order (groups start at their parent); the root never
	// does.
	for _, p := range []int{2, 3, 5, 9, 16, 27, 64} {
		for _, k := range []int{1, 2, 3, 7} {
			seen := map[int]int{}
			for v, ks := range RGTree(p, k) {
				for _, kid := range ks {
					seen[kid]++
					if kid <= v {
						t.Errorf("p=%d k=%d: rank %d is a child of %d", p, k, kid, v)
					}
				}
			}
			if seen[0] != 0 {
				t.Errorf("p=%d k=%d: root appears as child", p, k)
			}
			for v := 1; v < p; v++ {
				if seen[v] != 1 {
					t.Errorf("p=%d k=%d: rank %d appears %d times as child", p, k, v, seen[v])
				}
			}
		}
	}
}
