package coll

import (
	"fmt"

	"yhccl/internal/memcopy"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
)

// This file implements the classic shared-memory pipelined broadcast
// (Algorithm 3) and pipelined all-gather (Algorithm 4) with the
// adaptive-copy policy plumbed through, reproducing Figs. 13-14: the same
// control flow runs with memmove, t-copy, nt-copy or adaptive-copy.

// pipeSliceBytes is the default pipeline slice for bcast/all-gather (the
// paper evaluates Imax = 1 MB in Figs. 13-14).
const pipeSliceBytes = 1 << 20

// pipeSlice returns the slice size in elements for a pipelined collective.
func pipeSlice(n int64, o Options) int64 {
	I := int64(pipeSliceBytes / memmodel.ElemSize)
	if o.SliceMaxBytes > 0 && o.SliceMaxBytes != DefaultSliceMaxBytes {
		I = o.SliceMaxBytes / memmodel.ElemSize
	}
	return max64(min64(I, max64(n, 1)), 8)
}

// BcastPipelined is Algorithm 3: the root streams slices through a
// double-buffered shared segment; non-roots copy the previous slice out
// while the root publishes the next. buf is both the root's source and the
// non-roots' destination. W = s + s(p-1) + 2I: the shared slots are
// temporal data, the receive buffers non-temporal.
func BcastPipelined(r *mpi.Rank, c *mpi.Comm, buf *memmodel.Buffer, n int64, root int, o Options) {
	o = o.withDefaults()
	p := int64(c.Size())
	if p == 1 {
		return
	}
	me := c.CommRank(r.ID())
	I := pipeSlice(n, o)
	home := c.SocketOf(root) // one segment per home socket: roots may differ per call
	slots := c.Shared(fmt.Sprintf("pipe-bcast/slots/I=%d@%d", I, home), home, 2*I)
	w := (n + n*(p-1) + 2*I) * memmodel.ElemSize
	hIn := hints(c.Machine(), false, w)
	hOut := hints(c.Machine(), true, w)

	numSlices := ceilDiv(n, I)
	for t := int64(0); t < numSlices; t++ {
		off := t * I
		ln := min64(I, n-off)
		if me == root {
			memcopy.Copy(r, o.Policy, slots, (t%2)*I, buf, off, ln, hIn)
		} else if t > 0 {
			prevOff := (t - 1) * I
			prevLn := min64(I, n-prevOff)
			memcopy.Copy(r, o.Policy, buf, prevOff, slots, ((t-1)%2)*I, prevLn, hOut)
		}
		c.Barrier().Arrive(r.Proc()) // Algorithm 3's Sync-intra-node
	}
	if me != root {
		lastOff := (numSlices - 1) * I
		memcopy.Copy(r, o.Policy, buf, lastOff, slots, ((numSlices-1)%2)*I, n-lastOff, hOut)
	}
	c.Barrier().Arrive(r.Proc())
}

// AllgatherPipelined is Algorithm 4: every rank streams its contribution
// through its own double-buffered slot pair while copying everyone's
// previous slice into its receive buffer. sb has n elements; rb has p*n.
// W = sp + sp^2 + 2pI.
func AllgatherPipelined(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, o Options) {
	o = o.withDefaults()
	p := int64(c.Size())
	me := int64(c.CommRank(r.ID()))
	if p == 1 {
		r.CopyElems(rb, 0, sb, 0, n, memmodel.Temporal)
		return
	}
	I := pipeSlice(n, o)
	slots := c.Shared(fmt.Sprintf("pipe-ag/slots/I=%d", I), 0, p*2*I)
	w := (n*p + n*p*p + 2*p*I) * memmodel.ElemSize
	hIn := hints(c.Machine(), false, w)
	hOut := hints(c.Machine(), true, w)

	copyOutAll := func(t int64) {
		off := t * I
		ln := min64(I, n-off)
		for j := int64(0); j < p; j++ {
			a := (j + me) % p // stagger slot reads
			memcopy.Copy(r, o.Policy, rb, a*n+off, slots, a*2*I+(t%2)*I, ln, hOut)
		}
	}

	numSlices := ceilDiv(n, I)
	for t := int64(0); t < numSlices; t++ {
		off := t * I
		ln := min64(I, n-off)
		memcopy.Copy(r, o.Policy, slots, me*2*I+(t%2)*I, sb, off, ln, hIn)
		if t > 0 {
			copyOutAll(t - 1)
		}
		c.Barrier().Arrive(r.Proc())
	}
	copyOutAll(numSlices - 1)
	c.Barrier().Arrive(r.Proc())
}
