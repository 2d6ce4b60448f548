package coll

import (
	"fmt"

	"yhccl/internal/memcopy"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
)

// Beyond the five collectives the paper evaluates, a production intra-node
// library needs gather/scatter/all-to-all. These follow the same
// shared-memory design language: staging segments, first-touch homing and
// the adaptive copy policy for the non-temporal destinations. The
// Morton-order all-to-all reproduces the cache-oblivious traversal of Li
// et al. [41], which the paper's related-work section discusses.

// GatherFunc is a rooted gather: every rank contributes n elements (sb);
// the root's rb receives p*n, block i from rank i.
type GatherFunc func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, root int, o Options)

// ScatterFunc is a rooted scatter: the root's sb holds p*n; rank i's rb
// receives block i (n elements).
type ScatterFunc func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, root int, o Options)

// AlltoallFunc is the personalized exchange: sb holds p blocks of n; rank
// i's rb block j receives rank j's block i.
type AlltoallFunc func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, o Options)

// GatherShm is the shared-memory gather: every rank copies its block into
// a node segment (temporal: the root reads it right away); the root drains
// the segment into rb with the adaptive policy (rb is non-temporal data).
func GatherShm(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, root int, o Options) {
	o = o.withDefaults()
	p := int64(c.Size())
	me := int64(c.CommRank(r.ID()))
	if p == 1 {
		r.CopyElems(rb, 0, sb, 0, n, memmodel.Temporal)
		return
	}
	home := c.SocketOf(root) // one segment per home socket: roots may differ per call
	seg := c.Shared(fmt.Sprintf("gather/seg/n=%d@%d", n, home), home, p*n)
	w := (n*p + n*p + p*n) * memmodel.ElemSize
	hIn := hints(c.Machine(), false, w)
	hOut := hints(c.Machine(), true, w)
	if me == int64(root) {
		// The root's own block goes straight to rb.
		r.CopyElems(rb, me*n, sb, 0, n, memmodel.Temporal)
	} else {
		memcopy.Copy(r, o.Policy, seg, me*n, sb, 0, n, hIn)
	}
	c.Barrier().Arrive(r.Proc())
	if me == int64(root) {
		for j := int64(1); j < p; j++ {
			b := (me + j) % p
			memcopy.Copy(r, o.Policy, rb, b*n, seg, b*n, n, hOut)
		}
	}
	c.Barrier().Arrive(r.Proc())
}

// GatherXPMEM is the direct-access gather: the root copies every peer's
// send buffer with a single memmove.
func GatherXPMEM(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, root int, o Options) {
	p := int64(c.Size())
	me := int64(c.CommRank(r.ID()))
	publishAndBarrier(r, c, "xpmem-gather/sb", sb)
	if me == int64(root) {
		r.CopyElems(rb, me*n, sb, 0, n, memmodel.Temporal)
		for j := int64(1); j < p; j++ {
			b := (me + j) % p
			peer := c.Peer("xpmem-gather/sb", int(b))
			memcopy.Copy(r, memcopy.Memmove, rb, b*n, peer, 0, n, memcopy.Hints{})
		}
	}
	c.Barrier().Arrive(r.Proc())
}

// ScatterShm is the shared-memory scatter: the root publishes all blocks
// into a node segment; every rank drains its own block.
func ScatterShm(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, root int, o Options) {
	o = o.withDefaults()
	p := int64(c.Size())
	me := int64(c.CommRank(r.ID()))
	if p == 1 {
		r.CopyElems(rb, 0, sb, 0, n, memmodel.Temporal)
		return
	}
	home := c.SocketOf(root) // one segment per home socket: roots may differ per call
	seg := c.Shared(fmt.Sprintf("scatter/seg/n=%d@%d", n, home), home, p*n)
	w := (n*p + n*p + p*n) * memmodel.ElemSize
	hIn := hints(c.Machine(), false, w)
	hOut := hints(c.Machine(), true, w)
	if me == int64(root) {
		for j := int64(0); j < p; j++ {
			if j == me {
				r.CopyElems(rb, 0, sb, j*n, n, memmodel.Temporal)
				continue
			}
			memcopy.Copy(r, o.Policy, seg, j*n, sb, j*n, n, hIn)
		}
	}
	c.Barrier().Arrive(r.Proc())
	if me != int64(root) {
		memcopy.Copy(r, o.Policy, rb, 0, seg, me*n, n, hOut)
	}
	c.Barrier().Arrive(r.Proc())
}

// ScatterXPMEM is the direct-access scatter: every rank copies its block
// straight out of the root's send buffer.
func ScatterXPMEM(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, root int, o Options) {
	p := int64(c.Size())
	me := int64(c.CommRank(r.ID()))
	publishAndBarrier(r, c, "xpmem-scatter/sb", sb)
	src := c.Peer("xpmem-scatter/sb", root)
	if me == int64(root) {
		r.CopyElems(rb, 0, sb, me*n, n, memmodel.Temporal)
	} else {
		memcopy.Copy(r, memcopy.Memmove, rb, 0, src, me*n, n, memcopy.Hints{})
	}
	c.Barrier().Arrive(r.Proc())
	_ = p
}

// AlltoallShm is the shared-memory personalized exchange: every rank
// copies its whole send buffer into its own node segment, then drains its
// column — rb block j comes from segment j's block me. Copy-in is
// temporal (immediately read by p peers), copy-out non-temporal on large
// exchanges.
func AlltoallShm(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, o Options) {
	alltoallShm(r, c, sb, rb, n, o, false)
}

// AlltoallMorton is Li et al.'s cache-oblivious variant [41]: the drain
// phase walks the (source, block-chunk) grid in Morton (Z-curve) order,
// improving reuse of the partially cached segments. Semantically identical
// to AlltoallShm.
func AlltoallMorton(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, o Options) {
	alltoallShm(r, c, sb, rb, n, o, true)
}

func alltoallShm(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, o Options, morton bool) {
	o = o.withDefaults()
	p := int64(c.Size())
	me := int64(c.CommRank(r.ID()))
	if p == 1 {
		r.CopyElems(rb, 0, sb, 0, n, memmodel.Temporal)
		return
	}
	segs := make([]*memmodel.Buffer, p)
	for k := int64(0); k < p; k++ {
		segs[k] = c.Shared(fmt.Sprintf("a2a/seg%d/n=%d", k, n), c.SocketOf(int(k)), p*n)
	}
	w := (2*n*p*p + n*p*p) * memmodel.ElemSize
	hIn := hints(c.Machine(), false, w)
	hOut := hints(c.Machine(), true, w)

	// Publish: blocks destined to others go through the segment; the
	// self-block short-circuits.
	for j := int64(0); j < p; j++ {
		if j == me {
			r.CopyElems(rb, me*n, sb, me*n, n, memmodel.Temporal)
			continue
		}
		memcopy.Copy(r, o.Policy, segs[me], j*n, sb, j*n, n, hIn)
	}
	c.Barrier().Arrive(r.Proc())

	// Drain: rb[j*n..] = segs[j][me*n..]. Chunked so the Morton walk has a
	// 2-D grid (source j x chunk t) to traverse.
	chunk := sliceElems(n, o)
	numChunks := ceilDiv(n, chunk)
	type cell struct{ j, t int64 }
	var order []cell
	if morton {
		dim := int64(1)
		for dim < p || dim < numChunks {
			dim *= 2
		}
		for z := int64(0); z < dim*dim; z++ {
			j, t := mortonDecode(z)
			if j < p && t < numChunks && j != me {
				order = append(order, cell{j, t})
			}
		}
	} else {
		for jj := int64(1); jj < p; jj++ {
			j := (me + jj) % p
			for t := int64(0); t < numChunks; t++ {
				order = append(order, cell{j, t})
			}
		}
	}
	for _, cl := range order {
		off := cl.t * chunk
		ln := min64(chunk, n-off)
		memcopy.Copy(r, o.Policy, rb, cl.j*n+off, segs[cl.j], me*n+off, ln, hOut)
	}
	c.Barrier().Arrive(r.Proc())
}

// mortonDecode splits the bits of z into two interleaved coordinates.
func mortonDecode(z int64) (x, y int64) {
	for bit := uint(0); bit < 31; bit++ {
		x |= (z >> (2 * bit) & 1) << bit
		y |= (z >> (2*bit + 1) & 1) << bit
	}
	return x, y
}

// AlltoallXPMEM is the direct-access exchange: rb block j is copied
// straight from peer j's send buffer.
func AlltoallXPMEM(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, o Options) {
	p := int64(c.Size())
	me := int64(c.CommRank(r.ID()))
	publishAndBarrier(r, c, "xpmem-a2a/sb", sb)
	r.CopyElems(rb, me*n, sb, me*n, n, memmodel.Temporal)
	for jj := int64(1); jj < p; jj++ {
		j := (me + jj) % p
		peer := c.Peer("xpmem-a2a/sb", int(j))
		memcopy.Copy(r, memcopy.Memmove, rb, j*n, peer, me*n, n, memcopy.Hints{})
	}
	c.Barrier().Arrive(r.Proc())
}

// GatherAlgos, ScatterAlgos and AlltoallAlgos extend the registries.
var GatherAlgos = map[string]GatherFunc{
	"yhccl": GatherShm,
	"shm":   GatherShm,
	"xpmem": GatherXPMEM,
}

// ScatterAlgos maps names to scatter algorithms.
var ScatterAlgos = map[string]ScatterFunc{
	"yhccl": ScatterShm,
	"shm":   ScatterShm,
	"xpmem": ScatterXPMEM,
}

// AlltoallAlgos maps names to all-to-all algorithms.
var AlltoallAlgos = map[string]AlltoallFunc{
	"yhccl":  AlltoallMorton,
	"shm":    AlltoallShm,
	"morton": AlltoallMorton,
	"xpmem":  AlltoallXPMEM,
}
