package coll

import (
	"fmt"
	"slices"

	"yhccl/internal/memcopy"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/schedule"
)

// This file implements the RG pipelined tree reduction of Jain et al. [34]
// (the shared-memory collective framework the paper calls "RG"), the
// strongest prior shared-memory reduce/all-reduce the paper compares
// against in Figs. 10-11 and 15.
//
// Ranks are grouped into consecutive groups of k+1; the first rank of each
// group is the parent, the rest are its children. Parents regroup at the
// next level until one root remains. The message is pipelined in slices:
// for each slice, children place their value in their shared slot
// (double-buffered), and parents fold their own send-buffer slice plus the
// children's slots into their own slot, level by level. DAV matches
// Table 3's s*p*(5k/(k+1) + 3k/(k+1)^2 + ... ) exactly when p is a power
// of k+1.

// rgSliceBytes is the paper's RG slice size (128 KB, §5.3).
const rgSliceBytes = 128 << 10

// rgRun executes the pipelined tree reduction rooted at comm rank root.
// rootFinal performs the root's last accumulation of each slice: it
// receives the slice index and geometry plus the operand locations
// (ownSlotOff is -1 when the root's slot holds nothing yet, i.e. the tree
// has exactly one reduction op). perSlice, if non-nil, runs on every rank
// after its pipeline work for the slice (the all-reduce copy-out hook).
func rgRun(r *mpi.Rank, c *mpi.Comm, sb *memmodel.Buffer, n int64, op mpi.Op, root int, o Options,
	label string,
	rootFinal func(t, off, ln, ownSlotOff, childSlotOff int64),
	perSlice func(t, off, ln int64)) {

	p := c.Size()
	me := c.CommRank(r.ID())
	v := (me - root + p) % p // virtual rank: root becomes 0
	actual := func(w int) int { return (w + root) % p }
	I := min64(int64(rgSliceBytes/memmodel.ElemSize), max64(n, 1))
	kids := schedule.RGTree(p, o.RGDegree)
	allKids := kids[v] // levels flattened in reduction order
	parent := -1
	for u, ks := range kids {
		if slices.Contains(ks, v) {
			parent = u
		}
	}
	slots := c.Shared(fmt.Sprintf("%s/slots/I=%d", label, I), 0, int64(p)*2*I)
	flags := c.Flags(label + "/flags")
	base := *c.Counter(r, label+"/base")
	w := (n*int64(p) + n*int64(p) + int64(p)*2*I) * memmodel.ElemSize
	hIn := hints(c.Machine(), false, w)

	slotOf := func(who int, t int64) int64 { return int64(actual(who))*2*I + (t%2)*I }

	numSlices := ceilDiv(n, I)
	for t := int64(0); t < numSlices; t++ {
		off := t * I
		ln := min64(I, n-off)
		if parent >= 0 && t >= 2 {
			// Double-buffering: our slot may be rewritten only after the
			// parent consumed slice t-2 (completed slice t-2 => flag base+t-1).
			flags[actual(parent)].Wait(r.Proc(), r.Core(), uint64(base+t-1))
		}
		if len(allKids) == 0 {
			// Pure child (including ranks whose groups were all
			// singletons): publish own send-buffer slice.
			memcopy.Copy(r, memcopy.Memmove, slots, slotOf(v, t), sb, off, ln, hIn)
		} else {
			ownFilled := false
			for ki, kid := range allKids {
				flags[actual(kid)].Wait(r.Proc(), r.Core(), uint64(base+t+1))
				kidSlot := slotOf(kid, t)
				isRootLast := parent == -1 && ki == len(allKids)-1 && rootFinal != nil
				switch {
				case isRootLast && !ownFilled:
					rootFinal(t, off, ln, -1, kidSlot)
				case isRootLast:
					rootFinal(t, off, ln, slotOf(v, t), kidSlot)
				case !ownFilled:
					r.CombineElems(slots, slotOf(v, t), sb, off, slots, kidSlot, ln, op, memmodel.Temporal)
					ownFilled = true
				default:
					r.AccumulateElems(slots, slotOf(v, t), slots, kidSlot, ln, op, memmodel.Temporal)
				}
			}
		}
		flags[me].Set(r.Proc(), uint64(base+t+1))
		if perSlice != nil {
			perSlice(t, off, ln)
		}
	}
	c.Barrier().Arrive(r.Proc())
	*c.Counter(r, label+"/base") = base + numSlices
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ReduceRG is the RG pipelined tree reduce [34]: the root's final
// accumulation of each slice is written straight into its rb.
func ReduceRG(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, root int, o Options) {
	o = o.withDefaults()
	if c.Size() == 1 {
		r.CopyElems(rb, 0, sb, 0, n, memmodel.Temporal)
		return
	}
	rgReduceImpl(r, c, sb, rb, n, op, root, o, "rg-red")
}

// rgReduceImpl wires rootFinal to write rb (shared by reduce and the
// reduction phase of all-reduce when the destination differs).
func rgReduceImpl(r *mpi.Rank, c *mpi.Comm, sb, dst *memmodel.Buffer, n int64, op mpi.Op, root int, o Options, label string) {
	me := c.CommRank(r.ID())
	I := min64(int64(rgSliceBytes/memmodel.ElemSize), max64(n, 1))
	slots := c.Shared(fmt.Sprintf("%s/slots/I=%d", label, I), 0, int64(c.Size())*2*I)
	var final func(t, off, ln, ownSlotOff, childSlotOff int64)
	if me == root {
		final = func(t, off, ln, ownSlotOff, childSlotOff int64) {
			if ownSlotOff < 0 {
				r.CombineElems(dst, off, sb, off, slots, childSlotOff, ln, op, memmodel.Temporal)
			} else {
				r.CombineElems(dst, off, slots, ownSlotOff, slots, childSlotOff, ln, op, memmodel.Temporal)
			}
		}
	}
	rgRun(r, c, sb, n, op, root, o, label, final, nil)
}

// AllreduceRG is the RG pipelined tree all-reduce [34]: tree reduction
// whose root writes each finished slice into a double-buffered result
// area; every rank pipelines the copy-out. DAV = reduce + 2sp (Table 2).
func AllreduceRG(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, o Options) {
	o = o.withDefaults()
	p := c.Size()
	if p == 1 {
		r.CopyElems(rb, 0, sb, 0, n, memmodel.Temporal)
		return
	}
	me := c.CommRank(r.ID())
	const root = 0
	label := "rg-ar"
	I := min64(int64(rgSliceBytes/memmodel.ElemSize), max64(n, 1))
	res := c.Shared(fmt.Sprintf("%s/res/I=%d", label, I), 0, 2*I)
	slots := c.Shared(fmt.Sprintf("%s/slots/I=%d", label, I), 0, int64(p)*2*I)
	rootFlag := c.Flags(label + "/rootflag")[root]
	consumed := c.Flags(label + "/consumed")[root] // single shared counter
	base := *c.Counter(r, label+"/arbase")
	cbase := *c.Counter(r, label+"/arcbase")
	w := (n*int64(p) + n*int64(p) + int64(p)*2*I) * memmodel.ElemSize
	hOut := hints(c.Machine(), true, w)

	var final func(t, off, ln, ownSlotOff, childSlotOff int64)
	if me == root {
		final = func(t, off, ln, ownSlotOff, childSlotOff int64) {
			if t >= 2 {
				// Result double-buffer: wait until every rank consumed
				// slice t-2 (p increments per slice).
				consumed.Wait(r.Proc(), r.Core(), uint64(cbase+(t-1)*int64(p)))
			}
			resOff := (t % 2) * I
			if ownSlotOff < 0 {
				r.CombineElems(res, resOff, sb, off, slots, childSlotOff, ln, op, memmodel.Temporal)
			} else {
				r.CombineElems(res, resOff, slots, ownSlotOff, slots, childSlotOff, ln, op, memmodel.Temporal)
			}
			rootFlag.Set(r.Proc(), uint64(base+t+1))
		}
	}
	rgRun(r, c, sb, n, op, root, o, label, final, func(t, off, ln int64) {
		// Every rank (including the root) copies the finished slice out.
		rootFlag.Wait(r.Proc(), r.Core(), uint64(base+t+1))
		memcopy.Copy(r, o.Policy, rb, off, res, (t%2)*I, ln, hOut)
		consumed.Incr(r.Proc())
	})
	*c.Counter(r, label+"/arbase") = base + ceilDiv(n, I)
	*c.Counter(r, label+"/arcbase") = cbase + ceilDiv(n, I)*int64(p)
}
