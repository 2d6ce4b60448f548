// Package schedule implements the paper's §3.1 formalism of the sliced
// reduction problem: a reduction algorithm is a sequence of p binary
// reduction trees T_i = [T_{i,1} .. T_{i,p-1}], each node T_{i,j} = [r,a,b]
// an operation executed by process r over two operands that are either
// previous nodes' results (already in shared memory) or slices of some
// process's send buffer.
//
// The package provides Equation 1 (the copy data-access volume of a node),
// the constraint set C (Equation 2), the schedules of the algorithms the
// paper discusses (DPML and the movement-avoiding schedule of Fig. 5), and
// an exhaustive search that verifies Theorem 3.1 — sum V(T_{i,j}) >= 2I for
// every valid tree — computationally for small p.
//
// Volumes are expressed in units of I (one slice): a copy moves one slice
// in and out of shared memory, costing 2 units.
package schedule

import (
	"fmt"
)

// Operand is one input of a reduction node: either the slice s_{X,i} from
// process X's send buffer, or the result of a previous node (Ref).
type Operand struct {
	// IsSlice selects between a send-buffer slice and a node reference.
	IsSlice bool
	// X is the owning process of the slice (0-based), when IsSlice.
	X int
	// Ref is the 0-based index of a previous node in the tree, when
	// !IsSlice.
	Ref int
}

// Slice returns the send-buffer-slice operand of process x.
func Slice(x int) Operand { return Operand{IsSlice: true, X: x} }

// Ref returns the previous-result operand of node j.
func Ref(j int) Operand { return Operand{Ref: j} }

// Node is T_{i,j} = [r, a, b]: process R reduces A and B; the result is
// stored in shared memory.
type Node struct {
	R    int
	A, B Operand
}

// Tree is one reduction tree T_i (p-1 nodes for p processes).
type Tree []Node

// CopyUnits evaluates Equation 1 for node j of the tree, in units of I:
// an operand that is a slice owned by a process other than the executor
// must first be copied to shared memory (2 units); shared-memory results
// and the executor's own slice are free.
func (t Tree) CopyUnits(j int) int {
	n := t[j]
	units := 0
	for _, op := range []Operand{n.A, n.B} {
		if op.IsSlice && op.X != n.R {
			units += 2
		}
	}
	return units
}

// TotalCopyUnits is sum_j V(T_{i,j}) in units of I.
func (t Tree) TotalCopyUnits() int {
	total := 0
	for j := range t {
		total += t.CopyUnits(j)
	}
	return total
}

// Validate checks the constraint set C (Equation 2) for a tree over p
// processes: p-1 nodes; executors in range; operands are previous nodes or
// slices; and all 2(p-1) operands are pairwise distinct — which forces the
// tree to consume every slice exactly once and every intermediate result
// exactly once.
func (t Tree) Validate(p int) error {
	if len(t) != p-1 {
		return fmt.Errorf("schedule: tree has %d nodes, want p-1 = %d", len(t), p-1)
	}
	seenSlice := make([]bool, p)
	seenRef := make([]bool, p-1)
	for j, n := range t {
		if n.R < 0 || n.R >= p {
			return fmt.Errorf("schedule: node %d executor %d out of range", j, n.R)
		}
		for _, op := range []Operand{n.A, n.B} {
			if op.IsSlice {
				if op.X < 0 || op.X >= p {
					return fmt.Errorf("schedule: node %d slice owner %d out of range", j, op.X)
				}
				if seenSlice[op.X] {
					return fmt.Errorf("schedule: slice of process %d used twice", op.X)
				}
				seenSlice[op.X] = true
			} else {
				if op.Ref < 0 || op.Ref >= j {
					return fmt.Errorf("schedule: node %d references node %d (not previous)", j, op.Ref)
				}
				if seenRef[op.Ref] {
					return fmt.Errorf("schedule: result of node %d used twice", op.Ref)
				}
				seenRef[op.Ref] = true
			}
		}
	}
	for x, seen := range seenSlice {
		if !seen {
			return fmt.Errorf("schedule: slice of process %d never reduced", x)
		}
	}
	for j := 0; j < p-2; j++ {
		if !seenRef[j] {
			return fmt.Errorf("schedule: result of node %d never consumed", j)
		}
	}
	return nil
}

// Schedule is a full algorithm: one tree per slice group G_i.
type Schedule []Tree

// Validate checks every tree.
func (s Schedule) Validate(p int) error {
	if len(s) != p {
		return fmt.Errorf("schedule: %d trees, want p = %d", len(s), p)
	}
	for i, t := range s {
		if err := t.Validate(p); err != nil {
			return fmt.Errorf("tree %d: %w", i, err)
		}
	}
	return nil
}

// TotalCopyUnits is the optimization objective of Equation 3 in units of I.
func (s Schedule) TotalCopyUnits() int {
	total := 0
	for _, t := range s {
		total += t.TotalCopyUnits()
	}
	return total
}

// DPML returns the DPML schedule [13] as formalized in §3.1: tree i is
// executed entirely by process i, whose operands are everyone's slices —
// so every slice of another process must be copied in.
// T_i = [[i, s_0i, s_1i], [i, ref0, s_2i], ..., [i, ref(p-3), s_(p-1)i]].
func DPML(p int) Schedule {
	s := make(Schedule, p)
	for i := 0; i < p; i++ {
		t := make(Tree, p-1)
		t[0] = Node{R: i, A: Slice(0), B: Slice(1)}
		for j := 1; j < p-1; j++ {
			t[j] = Node{R: i, A: Ref(j - 1), B: Slice(j + 1)}
		}
		s[i] = t
	}
	return s
}

// MA returns the movement-avoiding schedule of Fig. 5: for tree i, rank
// (i-1) mod p copies its slice in, then a descending chain of executors
// (i-2), (i-3), ..., and finally rank i itself each fold their OWN slice
// into the running result — so only the first node needs a copy-in, and
// the last reduction is executed by the block's owner (who can write the
// result straight into its receive buffer, as in Fig. 6).
func MA(p int) Schedule {
	s := make(Schedule, p)
	for i := 0; i < p; i++ {
		t := make(Tree, p-1)
		e := func(j int) int { return ((i-2-j)%p + p) % p }
		t[0] = Node{R: e(0), A: Slice((i - 1 + p) % p), B: Slice(e(0))}
		for j := 1; j < p-1; j++ {
			t[j] = Node{R: e(j), A: Ref(j - 1), B: Slice(e(j))}
		}
		s[i] = t
	}
	return s
}

// Fanout returns a searched family between MA and DPML: for each tree, f
// parallel movement-avoiding chains (each folding its members' own slices,
// so each chain costs the one copy-in of its head slice — 2f units per tree
// against MA's 2) followed by a combining chain over the f partial results,
// executed by the block's owner so the final write can go straight to the
// receive buffer. The trade: critical path drops from MA's p-1 to about
// p/f + f reductions, which is what wins at small messages where the chain
// latency, not the copy volume, dominates. Fanout(p, 1) degenerates to an
// MA-equivalent chain. f is clamped to [1, p/2] so every chain reduces at
// least two slices.
func Fanout(p, f int) Schedule {
	if f < 1 {
		f = 1
	}
	if f > p/2 {
		f = p / 2
	}
	s := make(Schedule, p)
	for i := 0; i < p; i++ {
		// Order the slices with the owner last, so the final fold (or the
		// final combine) is executed by rank i.
		order := make([]int, p)
		for j := 0; j < p; j++ {
			order[j] = (i + 1 + j) % p
		}
		t := make(Tree, 0, p-1)
		chainEnd := make([]int, 0, f)
		for c := 0; c < f; c++ {
			lo, hi := c*p/f, (c+1)*p/f
			members := order[lo:hi]
			t = append(t, Node{R: members[1], A: Slice(members[0]), B: Slice(members[1])})
			for _, r := range members[2:] {
				t = append(t, Node{R: r, A: Ref(len(t) - 1), B: Slice(r)})
			}
			chainEnd = append(chainEnd, len(t)-1)
		}
		acc := chainEnd[0]
		for c := 1; c < f; c++ {
			t = append(t, Node{R: i, A: Ref(acc), B: Ref(chainEnd[c])})
			acc = len(t) - 1
		}
		s[i] = t
	}
	return s
}

// RGTree returns the grouping of the RG pipelined tree reduction (Jain et
// al., the paper's "RG" baseline) over p ranks with branching degree k:
// ranks form consecutive groups of k+1 whose first member is the parent of
// the rest, and the parents regroup level by level until rank 0 alone
// remains. kids[v] lists v's children in reduction order (level by level).
func RGTree(p, k int) (kids [][]int) {
	kids = make([][]int, p)
	current := make([]int, p)
	for i := range current {
		current[i] = i
	}
	for len(current) > 1 {
		var next []int
		for g := 0; g < len(current); g += k + 1 {
			hi := min(g+k+1, len(current))
			par := current[g]
			kids[par] = append(kids[par], current[g+1:hi]...)
			next = append(next, par)
		}
		current = next
	}
	return kids
}

// MinTreeCopyUnits exhaustively searches all valid trees for p processes
// and returns the minimum of sum_j V(T_{i,j}) — the quantity Theorem 3.1
// bounds below by 2. Exponential; intended for p <= 6.
func MinTreeCopyUnits(p int) int {
	best := 1 << 30
	var nodes Tree
	usedSlice := make([]bool, p)
	usedRef := make([]bool, p-1)

	// operands available at step j: unused slices + unused refs < j.
	var rec func(j, cost int)
	rec = func(j, cost int) {
		if cost >= best {
			return
		}
		if j == p-1 {
			if cost < best {
				best = cost
			}
			return
		}
		var ops []Operand
		for x := 0; x < p; x++ {
			if !usedSlice[x] {
				ops = append(ops, Slice(x))
			}
		}
		for rj := 0; rj < j; rj++ {
			if !usedRef[rj] {
				ops = append(ops, Ref(rj))
			}
		}
		use := func(op Operand, v bool) {
			if op.IsSlice {
				usedSlice[op.X] = v
			} else {
				usedRef[op.Ref] = v
			}
		}
		for ai := 0; ai < len(ops); ai++ {
			for bi := ai + 1; bi < len(ops); bi++ {
				a, b := ops[ai], ops[bi]
				for r := 0; r < p; r++ {
					n := Node{R: r, A: a, B: b}
					nodes = append(nodes, n)
					use(a, true)
					use(b, true)
					rec(j+1, cost+nodes.CopyUnits(j))
					use(a, false)
					use(b, false)
					nodes = nodes[:len(nodes)-1]
				}
			}
		}
	}
	rec(0, 0)
	return best
}
