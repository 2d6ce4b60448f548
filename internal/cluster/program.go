package cluster

import (
	"fmt"
	"math"
	"math/bits"

	"yhccl/internal/memmodel"
	"yhccl/internal/plan"
	"yhccl/internal/schedule"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

// Event-schedule compilation of the cluster collectives.
//
// The analytic path (cluster.go, collectives.go) simulates one
// representative node on the coroutine engine and closes over the fabric
// with a formula. This file instead compiles each hierarchical collective —
// the intra-node MA chain / socket-aware / RG tree step schedules composed
// with inter-node ring and binomial-tree phases — into a sim.Program: every
// one of the Nodes x PerNode ranks becomes a compact state machine whose
// steps carry precomputed integer-tick durations and O(1) dependencies
// computed procedurally from (rank, step). Nothing proportional to
// ranks x steps is materialized (the intra-node templates are shared by all
// nodes; the MA reduce-scatter template is the §3.1 schedule lowered from
// its plan graph, see lower.go), so 262144+ rank worlds run on the event
// engine in flat memory, while the identical program replayed on the
// coroutine engine is the tick-exact parity reference.

// IntraKind selects the intra-node step schedule a hierarchical program
// composes from.
type IntraKind string

const (
	// IntraAuto picks IntraSocket when the binding splits evenly across
	// sockets (hierarchical algorithms) and IntraMA otherwise.
	IntraAuto IntraKind = ""
	// IntraMA is the movement-avoiding chain (paper Fig. 5): a wavefront of
	// p reduction chains, one block per rank.
	IntraMA IntraKind = "ma"
	// IntraSocket is the socket-aware composition: MA reduce-scatter per
	// socket, a cross-socket combine chain, then a socket-local all-gather.
	IntraSocket IntraKind = "socket"
	// IntraRG is the RG pipelined tree (leader-based reduce to local rank
	// 0), used by the leader compositions.
	IntraRG IntraKind = "rg"
)

// ScheduleOptions tune program compilation.
type ScheduleOptions struct {
	// Intra selects the intra-node schedule (IntraAuto by default).
	Intra IntraKind
	// RingSteps, when positive, coarsens inter-node ring phases to at most
	// this many macro-steps per rank: consecutive hops are folded into one
	// step whose duration is the sum of the folded hops, and the
	// neighbour-dependency wavefront is kept at macro granularity. Both
	// engines execute the coarsened program, so parity is unaffected; at
	// 262144+ ranks this bounds the event count of ring phases.
	RingSteps int
}

// rgDegree is the RG tree branching degree (coll's default).
const rgDegree = 2

// progCosts converts the topology and fabric description into the
// integer-tick step costs the compiled programs carry. The terms mirror the
// analytic model: copies move 2 bytes of traffic per payload byte, reductions
// 3 (two reads, one write), cross-socket accesses are scaled by the xGMI/UPI
// factor, and every step pays the one-way flag-propagation sync latency.
// Per-core bandwidth is two-regime, following the paper's central cache
// argument: when the working set fits in the available cache the per-core
// cache-hierarchy (or SIMD reduce) bandwidth applies; when it spills, each
// core is throttled to its share of the socket's DRAM bandwidth. Inter-node
// hops pay the rendezvous latency plus the lane's share of the effective
// (saturation-curve) link bandwidth.
type progCosts struct {
	node     *topo.Node
	net      Network
	copyBW   float64
	reduceBW float64
}

func newProgCosts(node *topo.Node, net Network, p int, msgBytes float64) progCosts {
	active := p
	if active > node.CoresPerSocket {
		active = node.CoresPerSocket
	}
	dramShare := node.DRAMBandwidthPerSocket / float64(active)
	if dramShare > node.DRAMBandwidthPerCore {
		dramShare = node.DRAMBandwidthPerCore
	}
	c := progCosts{
		node: node, net: net,
		copyBW:   node.CacheBandwidthPerCore,
		reduceBW: node.ReducePerCoreBandwidth,
	}
	// Working set: every rank's send buffer plus the shared result.
	if ws := (float64(p) + 1) * msgBytes; ws > float64(node.AvailableCache(p)) {
		if dramShare < c.copyBW {
			c.copyBW = dramShare
		}
		if dramShare < c.reduceBW {
			c.reduceBW = dramShare
		}
	}
	return c
}

func (c progCosts) copyT(bytes float64, cross bool) sim.Tick {
	bw, sync := c.copyBW, c.node.SyncLatencyIntra
	if cross {
		bw *= c.node.CrossSocketFactor
		sync = c.node.SyncLatencyInter
	}
	return sim.ToTicks(sync + 2*bytes/bw)
}

func (c progCosts) reduceT(bytes float64, cross bool) sim.Tick {
	bw, sync := c.reduceBW, c.node.SyncLatencyIntra
	if cross {
		bw *= c.node.CrossSocketFactor
		sync = c.node.SyncLatencyInter
	}
	return sim.ToTicks(sync + 3*bytes/bw)
}

// laneT is one inter-node hop carrying `bytes` on one of `lanes` concurrent
// per-node streams: EffectiveBandwidth(lanes) is the whole link's yield, so
// a single lane gets a 1/lanes share of it.
func (c progCosts) laneT(bytes float64, lanes int) sim.Tick {
	return sim.ToTicks(c.net.Latency + bytes*float64(lanes)/c.net.EffectiveBandwidth(lanes))
}

// tmplDep is one dependency inside an intra-node template: the target local
// rank and its phase-relative step. Step -1 means "that rank's last step of
// the previous phase" and resolves per-node at query time.
type tmplDep struct {
	local int32
	step  int32
}

// intraTemplate is one intra-node phase, stored flat: local l's steps are
// the flat indices off[l] .. off[l+1]-1, flat step i takes dur[i] ticks and
// depends on deps[depOff[i]:depOff[i+1]]. Nodes are homogeneous, so a single
// template serves every node; the per-rank runtime state stays O(1).
type intraTemplate struct {
	off    []int32
	dur    []sim.Tick
	depOff []int32
	deps   []tmplDep
}

// newTemplate starts an empty template for p locals with room for steps
// steps of at most one dependency each. Builders add each local's steps in
// order and close every local with endLocal.
func newTemplate(p, steps int) *intraTemplate {
	return &intraTemplate{
		off:    make([]int32, 1, p+1),
		dur:    make([]sim.Tick, 0, steps),
		depOff: make([]int32, 1, steps+1),
		deps:   make([]tmplDep, 0, steps),
	}
}

// add appends one step to the local being built.
func (t *intraTemplate) add(dur sim.Tick, deps ...tmplDep) {
	t.dur = append(t.dur, dur)
	t.deps = append(t.deps, deps...)
	t.depOff = append(t.depOff, int32(len(t.deps)))
}

// endLocal closes the local being built.
func (t *intraTemplate) endLocal() { t.off = append(t.off, int32(len(t.dur))) }

func (t *intraTemplate) len(local int) int { return int(t.off[local+1] - t.off[local]) }

// depsOf returns the dependencies of flat step i.
func (t *intraTemplate) depsOf(i int) []tmplDep {
	o := t.depOff[i : i+2 : i+2]
	return t.deps[o[0]:o[1]]
}

// localSockets groups locals 0..p-1 by the socket their block-bound core
// sits on and reports (ranks per socket, socket count) if the partition is
// even with at least two sockets, else ok=false.
func localSockets(node *topo.Node, p int) (perSocket, sockets int, ok bool) {
	counts := make(map[int]int)
	for l := 0; l < p; l++ {
		counts[node.SocketOf(l)]++
	}
	if len(counts) < 2 {
		return 0, 0, false
	}
	per := -1
	for _, n := range counts {
		if per == -1 {
			per = n
		} else if n != per {
			return 0, 0, false
		}
	}
	return per, len(counts), true
}

func crossSocket(node *topo.Node, a, b int) bool {
	return node.SocketOf(a) != node.SocketOf(b)
}

// maAllgather builds the block all-gather: p-1 copy-out steps per local,
// step k copying block (l+k+1) mod p once its owner's previous phase ended.
func maAllgather(node *topo.Node, p int, blockBytes float64, c progCosts) *intraTemplate {
	if p <= 1 {
		return nil
	}
	t := newTemplate(p, p*(p-1))
	for l := 0; l < p; l++ {
		for k := 0; k < p-1; k++ {
			src := (l + k + 1) % p
			t.add(c.copyT(blockBytes, crossSocket(node, l, src)), tmplDep{local: int32(src), step: -1})
		}
		t.endLocal()
	}
	return t
}

// socketReduceScatter builds the socket-aware reduce-scatter: an MA
// wavefront inside each socket (blocks of msg/perSocket), then a chain of
// cross-socket combines so every rank's block is reduced over all p locals.
func socketReduceScatter(node *topo.Node, p, perSocket, sockets int, blockBytes float64, c progCosts) *intraTemplate {
	t := newTemplate(p, p*(perSocket+sockets-1))
	for l := 0; l < p; l++ {
		sock, ls := l/perSocket, l%perSocket
		next := sock*perSocket + (ls+1)%perSocket
		if perSocket > 1 {
			t.add(c.copyT(blockBytes, false))
			for j := 1; j < perSocket; j++ {
				t.add(c.reduceT(blockBytes, false), tmplDep{local: int32(next), step: int32(j - 1)})
			}
		}
		for k := 1; k < sockets; k++ {
			peer := ((sock+k)%sockets)*perSocket + ls
			peerLast := int32(perSocket - 1) // peer's MA-final step index
			if perSocket == 1 {
				peerLast = -1 // peer has no MA phase; its data is phase input
			}
			t.add(c.reduceT(blockBytes, true), tmplDep{local: int32(peer), step: peerLast})
		}
		t.endLocal()
	}
	return t
}

// socketAllgather gathers the socket's blocks locally (after the
// cross-socket combine, one socket's blocks tile the full message).
func socketAllgather(node *topo.Node, p, perSocket int, blockBytes float64, c progCosts) *intraTemplate {
	if perSocket <= 1 {
		return nil
	}
	t := newTemplate(p, p*(perSocket-1))
	for l := 0; l < p; l++ {
		sock, ls := l/perSocket, l%perSocket
		for k := 0; k < perSocket-1; k++ {
			src := sock*perSocket + (ls+k+1)%perSocket
			t.add(c.copyT(blockBytes, false), tmplDep{local: int32(src), step: -1})
		}
		t.endLocal()
	}
	return t
}

// rgReduce builds the RG tree reduce of the full message to local rank 0:
// pure children publish their buffer (one copy step); parents fold each
// child's slot in level order, depending on the child's last step.
func rgReduce(node *topo.Node, p int, msgBytes float64, c progCosts) *intraTemplate {
	if p <= 1 {
		return nil
	}
	children := schedule.RGTree(p, rgDegree)
	t := newTemplate(p, 2*p)
	for l := 0; l < p; l++ {
		if len(children[l]) == 0 {
			t.add(c.copyT(msgBytes, false))
		}
		for _, kid := range children[l] {
			kidLast := len(children[kid]) // leaf: 1 step -> last index 0; parent: len(kids)-1
			if kidLast == 0 {
				kidLast = 1
			}
			t.add(c.reduceT(msgBytes, crossSocket(node, l, kid)), tmplDep{local: int32(kid), step: int32(kidLast - 1)})
		}
		t.endLocal()
	}
	return t
}

// binomialBcast builds the intra-node binomial broadcast from local 0:
// every other local performs one copy-out once its binomial source holds
// the data (the source's receive step, or the previous phase's end for the
// root). Shared-memory broadcast is receiver-driven, so concurrent
// copy-outs from one source are legitimate.
func binomialBcast(node *topo.Node, p int, msgBytes float64, c progCosts) *intraTemplate {
	if p <= 1 {
		return nil
	}
	t := newTemplate(p, p-1)
	t.endLocal() // local 0 holds the data
	for l := 1; l < p; l++ {
		src := l - 1<<(bits.Len(uint(l))-1)
		dep := tmplDep{local: int32(src), step: 0}
		if src == 0 {
			dep.step = -1
		}
		t.add(c.copyT(msgBytes, crossSocket(node, l, src)), dep)
		t.endLocal()
	}
	return t
}

// binomialGather builds the leader gather for all-gather: in round k, local
// l with l mod 2^(k+1) == 0 absorbs the segment accumulated by l + 2^k
// (doubling segment sizes), finishing with local 0 holding all p blocks.
func binomialGather(node *topo.Node, p int, perRankBytes float64, c progCosts) *intraTemplate {
	if p <= 1 {
		return nil
	}
	t := newTemplate(p, p-1)
	recvSteps := make([]int, p)
	for l := 0; l < p; l++ {
		for k := 0; ; k++ {
			stride := 1 << k
			if l%(2*stride) != 0 {
				break
			}
			src := l + stride
			if src >= p {
				if stride >= p {
					break
				}
				continue
			}
			segRanks := stride
			if src+segRanks > p {
				segRanks = p - src
			}
			srcLast := int32(recvSteps[src] - 1) // its own receives precede its send
			dep := tmplDep{local: int32(src), step: srcLast}
			if recvSteps[src] == 0 {
				dep.step = -1
			}
			t.add(c.copyT(float64(segRanks)*perRankBytes, crossSocket(node, l, src)), dep)
			recvSteps[l]++
		}
		t.endLocal()
	}
	return t
}

// interKind enumerates the inter-node phase shapes.
type interKind int

const (
	interNone interKind = iota
	// interRingAll: every rank runs hopsTotal ring hops (folded into macro
	// steps) over the node dimension on its own lane.
	interRingAll
	// interRingLeader: only local 0 runs the ring.
	interRingLeader
	// interTreeLeader: leaders run a binomial reduce then a binomial
	// broadcast over the node dimension.
	interTreeLeader
	// interTreeBcastLeader: leaders run only the binomial broadcast.
	interTreeBcastLeader
	// interLaneTree: a binomial broadcast over nodes carried on PerNode
	// concurrent lanes (every local receives its piece from the same local
	// on the source node).
	interLaneTree
)

// interSpec is the compiled inter-node phase.
type interSpec struct {
	kind      interKind
	hopsTotal int
	macro     int
	hopDur    sim.Tick
	reduceDur sim.Tick
	extraDur  sim.Tick

	// Ring macro steps, resolved: the first rem steps fold one hop more
	// than the rest, so they take longDur and the rest shortDur.
	rem               int
	longDur, shortDur sim.Tick
}

// macroSteps caps hops at the coarsening limit.
func macroSteps(hops, cap_ int) int {
	if hops <= 0 {
		return 0
	}
	if cap_ > 0 && hops > cap_ {
		return cap_
	}
	return hops
}

// ringDur is the duration of ring macro step g: its hop count times hopDur
// (earlier macro steps take the remainder, preserving the total).
func (s *interSpec) ringDur(g int) sim.Tick {
	if g < s.rem {
		return s.longDur
	}
	return s.shortDur
}

// rankDiv splits a rank into (node, local) without a hardware divide: node
// is the high word of (2·rank)·m with m = ceil(2^63 / perNode). Writing
// m = 2^63/perNode + e with 0 <= e < 1, the product overshoots rank/perNode
// by rank·e/2^63 < 1/perNode whenever rank·perNode < 2^63, which the int32
// rank space guarantees, so the floor is exact; perNode == 1 gives m = 2^63
// and needs no special case.
type rankDiv struct {
	m   uint64
	per int
}

func newRankDiv(per int) rankDiv {
	return rankDiv{m: (1<<63-1)/uint64(per) + 1, per: per}
}

func (d rankDiv) split(rank int) (node, local int) {
	hi, _ := bits.Mul64(d.m, uint64(rank)<<1)
	node = int(hi)
	return node, rank - node*d.per
}

// localRow is one local rank's resolved layout: the flat offset and length
// of its steps in the phase-A and phase-C templates, and bMask, all ones
// when the local takes part in phase B.
type localRow struct {
	aOff, aLen, cOff, cLen, bMask int32
}

// nodeRow is one node's resolved layout: aMask, all ones when the node runs
// phase A; bLen, the phase-B length of its ranks that take part in phase B;
// and, for the leader tree, recv, how many binomial-reduce receives lead
// them. A rank's phase lengths are aLen&aMask and bLen&bMask.
type nodeRow struct {
	aMask, bLen, recv int32
}

// clusterProgram is a compiled hierarchical collective over
// nodes x perNode ranks: intra-node template phase A, inter-node phase B,
// intra-node template phase C. resolve lays it out once at compile time in
// tables of O(perNode + nodes) rows, so a Step query is a few table loads
// and O(1) arithmetic; nothing is stored per rank.
type clusterProgram struct {
	nodes, perNode int
	tmplA, tmplC   *intraTemplate
	aOnlyNode0     bool
	inter          interSpec

	div   rankDiv
	lrows []localRow // per local
	nrows []nodeRow  // per node
}

// resolve fills the program's lookup tables. Every compile path returns
// through it.
func (cp *clusterProgram) resolve() (sim.Program, error) {
	p := cp.perNode
	if uint64(cp.nodes)*uint64(p) > math.MaxInt32 {
		return nil, fmt.Errorf("cluster: %d x %d ranks exceed the interpreter's int32 rank space", cp.nodes, p)
	}
	// A phase without a template has no steps on any local.
	if cp.tmplA == nil {
		cp.tmplA = &intraTemplate{off: make([]int32, p+1)}
	}
	if cp.tmplC == nil {
		cp.tmplC = &intraTemplate{off: make([]int32, p+1)}
	}
	in := &cp.inter
	cp.div = newRankDiv(p)
	cp.lrows = make([]localRow, p)
	for l := range cp.lrows {
		cp.lrows[l] = localRow{
			aOff: cp.tmplA.off[l], aLen: int32(cp.tmplA.len(l)),
			cOff: cp.tmplC.off[l], cLen: int32(cp.tmplC.len(l)),
		}
		if l == 0 || in.kind == interRingAll || in.kind == interLaneTree {
			cp.lrows[l].bMask = -1
		}
	}
	if in.macro > 0 {
		base := in.hopsTotal / in.macro
		in.rem = in.hopsTotal % in.macro
		in.shortDur = sim.Tick(base) * in.hopDur
		in.longDur = sim.Tick(base+1) * in.hopDur
	}
	cp.nrows = make([]nodeRow, cp.nodes)
	for m := range cp.nrows {
		row := &cp.nrows[m]
		if m == 0 || !cp.aOnlyNode0 {
			row.aMask = -1
		}
		switch in.kind {
		case interRingAll, interRingLeader:
			row.bLen = int32(in.macro)
		case interTreeLeader:
			for stride := 1; m%(2*stride) == 0 && stride < cp.nodes; stride *= 2 {
				if m+stride < cp.nodes {
					row.recv++
				}
			}
			row.bLen = row.recv
			if m > 0 {
				row.bLen++ // the broadcast receive
			}
		case interTreeBcastLeader, interLaneTree:
			if m > 0 {
				row.bLen = 1
			}
		}
	}
	return cp, nil
}

func (cp *clusterProgram) Ranks() int { return cp.nodes * cp.perNode }

func (cp *clusterProgram) lenA(node, local int) int {
	return int(cp.lrows[local].aLen & cp.nrows[node].aMask)
}

func (cp *clusterProgram) lenB(node, local int) int {
	return int(cp.nrows[node].bLen & cp.lrows[local].bMask)
}

func (cp *clusterProgram) Steps(rank int) int {
	node, local := cp.div.split(rank)
	return cp.lenA(node, local) + cp.lenB(node, local) + int(cp.lrows[local].cLen)
}

func (cp *clusterProgram) Step(rank, step int, visit func(depRank, depStep int) bool) sim.Tick {
	node, local := cp.div.split(rank)
	lr, nr := &cp.lrows[local], &cp.nrows[node]
	base := rank - local
	la := int(lr.aLen & nr.aMask)
	if step < la {
		t := cp.tmplA
		i := int(lr.aOff) + step
		for _, d := range t.depsOf(i) {
			// Phase A has no predecessor phase; step -1 deps are free.
			if d.step >= 0 && !visit(base+int(d.local), int(d.step)) {
				break
			}
		}
		return t.dur[i]
	}
	g := step - la
	lb := int(nr.bLen & lr.bMask)
	if g < lb {
		return cp.interStep(node, local, g, visit)
	}
	c := g - lb
	if c >= int(lr.cLen) {
		return sim.NoStep
	}
	t := cp.tmplC
	i := int(lr.cOff) + c
	for _, d := range t.depsOf(i) {
		// The step is relative to q's phase-C start: -1 lands on q's last
		// step before phase C, and a negative result is ready at time zero.
		q := &cp.lrows[d.local]
		if ds := int(q.aLen&nr.aMask + nr.bLen&q.bMask + d.step); ds >= 0 && !visit(base+int(d.local), ds) {
			break
		}
	}
	return t.dur[i]
}

// interSrc returns the node on the far end of node's phase-B step g, and
// whether the step is a leader-tree binomial-reduce receive (the k-th
// receive comes from stride 2^k).
func (cp *clusterProgram) interSrc(node, g int) (src int, reduce bool) {
	switch cp.inter.kind {
	case interRingAll, interRingLeader:
		if node == 0 {
			return cp.nodes - 1, false
		}
		return node - 1, false
	case interTreeLeader:
		if g < int(cp.nrows[node].recv) {
			return node + 1<<g, true
		}
	}
	return node - 1<<(bits.Len(uint(node))-1), false // binomial broadcast source
}

// interStep decodes phase-B step g of (node, local). A ring hop waits for
// the previous node's hop g-1; a reduce receive for the partner's last
// receive; a broadcast receive for the source's last phase-B step.
func (cp *clusterProgram) interStep(node, local, g int, visit func(depRank, depStep int) bool) sim.Tick {
	in := &cp.inter
	src, reduce := cp.interSrc(node, g)
	var ds int
	var d sim.Tick
	switch {
	case in.kind == interRingAll || in.kind == interRingLeader:
		ds, d = cp.lenA(src, local)+g-1, in.ringDur(g)
	case reduce:
		ds, d = cp.lenA(src, 0)+int(cp.nrows[src].recv)-1, in.hopDur+in.reduceDur
	default:
		ds, d = cp.lenA(src, local)+cp.lenB(src, local)-1, in.hopDur+in.extraDur
	}
	if ds >= 0 {
		visit(src*cp.perNode+local, ds)
	}
	return d
}

// flatRingProgram is the node-oblivious ring over all P ranks (MPICH-style
// fallback): hop h of rank r depends on hop h-1 of rank r-1. The first
// reduceHops hops fold blocks (reduce-scatter half); the rest copy
// (all-gather half). Boundary ranks (local 0) pay the inter-node hop.
type flatRingProgram struct {
	ranks, perNode int
	hopsTotal      int
	reduceHops     int
	macro          int
	intraCopy      sim.Tick
	intraReduce    sim.Tick
	interExtra     sim.Tick
}

func (fp *flatRingProgram) Ranks() int { return fp.ranks }

func (fp *flatRingProgram) Steps(int) int {
	if fp.ranks <= 1 {
		return 0
	}
	return fp.macro
}

func (fp *flatRingProgram) hopRange(g int) (lo, hi int) {
	base, rem := fp.hopsTotal/fp.macro, fp.hopsTotal%fp.macro
	lo = g*base + min(g, rem)
	hi = lo + base
	if g < rem {
		hi++
	}
	return lo, hi
}

func (fp *flatRingProgram) Step(rank, step int, visit func(depRank, depStep int) bool) sim.Tick {
	if step >= fp.Steps(rank) {
		return sim.NoStep
	}
	if step > 0 { // hop 0 consumes the predecessor's initial data
		visit((rank-1+fp.ranks)%fp.ranks, step-1)
	}
	lo, hi := fp.hopRange(step)
	nRed := 0
	if lo < fp.reduceHops {
		nRed = min(hi, fp.reduceHops) - lo
	}
	nCopy := (hi - lo) - nRed
	d := sim.Tick(nRed)*fp.intraReduce + sim.Tick(nCopy)*fp.intraCopy
	if fp.interStep(rank) {
		d += sim.Tick(hi-lo) * fp.interExtra
	}
	return d
}

// flatTreeProgram is the node-oblivious binomial broadcast over all P
// ranks: every non-root rank performs one receive from its binomial source.
type flatTreeProgram struct {
	ranks, perNode int
	intraDur       sim.Tick
	interDur       sim.Tick
}

func (ft *flatTreeProgram) Ranks() int { return ft.ranks }

func (ft *flatTreeProgram) Steps(rank int) int {
	if rank == 0 {
		return 0
	}
	return 1
}

func (ft *flatTreeProgram) src(rank int) int {
	return rank - 1<<(bits.Len(uint(rank))-1)
}

func (ft *flatTreeProgram) Step(rank, step int, visit func(depRank, depStep int) bool) sim.Tick {
	if step >= ft.Steps(rank) {
		return sim.NoStep
	}
	if s := ft.src(rank); s != 0 {
		visit(s, 0)
	}
	if ft.crossNode(rank) {
		return ft.interDur
	}
	return ft.intraDur
}

// resolveIntra picks and validates the intra-node kind.
func (c *Cluster) resolveIntra(o ScheduleOptions, leaderBased bool) (IntraKind, int, int, error) {
	perSocket, sockets, sockOK := localSockets(c.Node, c.PerNode)
	kind := o.Intra
	if kind == IntraAuto {
		switch {
		case leaderBased:
			kind = IntraRG
		case sockOK:
			kind = IntraSocket
		default:
			kind = IntraMA
		}
	}
	if kind == IntraSocket && !sockOK {
		return "", 0, 0, fmt.Errorf("cluster: socket intra schedule needs an even multi-socket binding (%d ranks on %s)", c.PerNode, c.Node.Name)
	}
	return kind, perSocket, sockets, nil
}

// CompileAllreduce compiles one all-reduce of n elements per rank into an
// event-schedule program over all Nodes x PerNode ranks.
func (c *Cluster) CompileAllreduce(alg Algorithm, n int64, o ScheduleOptions) (sim.Program, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: message must have at least 1 element")
	}
	msg := float64(n * memmodel.ElemSize)
	p, N := c.PerNode, c.Nodes
	costs := newProgCosts(c.Node, c.Net, p, msg)
	switch alg {
	case YHCCLHierarchical:
		kind, perSocket, sockets, err := c.resolveIntra(o, false)
		if err != nil {
			return nil, err
		}
		cp := &clusterProgram{nodes: N, perNode: p}
		var block float64
		switch kind {
		case IntraMA:
			block = msg / float64(p)
			if p > 1 { // MA(1) has no trees to lower
				g, err := plan.FromSchedule(schedule.MA(p))
				if err != nil {
					return nil, err
				}
				cp.tmplA = lowerGraph(c.Node, g, block, costs)
			}
			cp.tmplC = maAllgather(c.Node, p, block, costs)
		case IntraSocket:
			block = msg / float64(perSocket)
			cp.tmplA = socketReduceScatter(c.Node, p, perSocket, sockets, block, costs)
			cp.tmplC = socketAllgather(c.Node, p, perSocket, block, costs)
		default:
			return nil, fmt.Errorf("cluster: intra kind %q is leader-based; yhccl needs ma or socket", kind)
		}
		if N > 1 {
			hops := 2 * (N - 1)
			cp.inter = interSpec{
				kind:      interRingAll,
				hopsTotal: hops,
				macro:     macroSteps(hops, o.RingSteps),
				hopDur:    costs.laneT(msg/float64(p)/float64(N), p),
			}
		}
		return cp.resolve()
	case LeaderRing, LeaderTree:
		kind, _, _, err := c.resolveIntra(o, true)
		if err != nil {
			return nil, err
		}
		if kind != IntraRG {
			return nil, fmt.Errorf("cluster: leader compositions reduce through the RG tree (got intra %q)", kind)
		}
		cp := &clusterProgram{
			nodes: N, perNode: p,
			tmplA: rgReduce(c.Node, p, msg, costs),
			tmplC: binomialBcast(c.Node, p, msg, costs),
		}
		if N > 1 {
			if alg == LeaderRing {
				hops := 2 * (N - 1)
				cp.inter = interSpec{
					kind:      interRingLeader,
					hopsTotal: hops,
					macro:     macroSteps(hops, o.RingSteps),
					hopDur:    costs.laneT(msg/float64(N), 1),
				}
			} else {
				cp.inter = interSpec{
					kind:      interTreeLeader,
					hopDur:    costs.laneT(msg, 1),
					reduceDur: costs.reduceT(msg, false),
					extraDur:  costs.copyT(msg, false),
				}
			}
		}
		return cp.resolve()
	case FlatRing:
		P := N * p
		if P <= 1 {
			return &flatRingProgram{ranks: P, perNode: p, macro: 0}, nil
		}
		hops := 2 * (P - 1)
		block := msg / float64(P)
		return &flatRingProgram{
			ranks: P, perNode: p,
			hopsTotal:   hops,
			reduceHops:  P - 1,
			macro:       macroSteps(hops, o.RingSteps),
			intraCopy:   costs.copyT(block, false),
			intraReduce: costs.reduceT(block, false),
			interExtra:  costs.laneT(block, 1),
		}, nil
	}
	return nil, fmt.Errorf("cluster: unknown algorithm %q", alg)
}

// CompileBcast compiles one broadcast of n elements (rooted at global rank
// 0) into an event-schedule program.
func (c *Cluster) CompileBcast(alg Algorithm, n int64, o ScheduleOptions) (sim.Program, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: message must have at least 1 element")
	}
	msg := float64(n * memmodel.ElemSize)
	p, N := c.PerNode, c.Nodes
	costs := newProgCosts(c.Node, c.Net, p, msg)
	switch alg {
	case YHCCLHierarchical:
		// Root node scatters into p pieces, the pieces descend a binomial
		// node tree on p concurrent lanes, every node reassembles locally.
		piece := msg / float64(p)
		cp := &clusterProgram{nodes: N, perNode: p, aOnlyNode0: true}
		if p > 1 {
			scatter := newTemplate(p, p)
			for l := 0; l < p; l++ {
				scatter.add(costs.copyT(piece, crossSocket(c.Node, l, 0)))
				scatter.endLocal()
			}
			cp.tmplA = scatter
			cp.tmplC = maAllgather(c.Node, p, piece, costs)
		}
		if N > 1 {
			cp.inter = interSpec{kind: interLaneTree, hopDur: costs.laneT(piece, p)}
		}
		return cp.resolve()
	case LeaderRing, LeaderTree:
		cp := &clusterProgram{
			nodes: N, perNode: p,
			tmplC: binomialBcast(c.Node, p, msg, costs),
		}
		if N > 1 {
			cp.inter = interSpec{
				kind:     interTreeBcastLeader,
				hopDur:   costs.laneT(msg, 1),
				extraDur: costs.copyT(msg, false),
			}
		}
		return cp.resolve()
	case FlatRing:
		return &flatTreeProgram{
			ranks: N * p, perNode: p,
			intraDur: costs.copyT(msg, false),
			interDur: costs.laneT(msg, 1) + costs.copyT(msg, false),
		}, nil
	}
	return nil, fmt.Errorf("cluster: unknown bcast algorithm %q", alg)
}

// CompileAllgather compiles one all-gather of n elements contributed per
// rank into an event-schedule program.
func (c *Cluster) CompileAllgather(alg Algorithm, n int64, o ScheduleOptions) (sim.Program, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: message must have at least 1 element")
	}
	contrib := float64(n * memmodel.ElemSize)
	p, N := c.PerNode, c.Nodes
	costs := newProgCosts(c.Node, c.Net, p, contrib)
	switch alg {
	case YHCCLHierarchical:
		// Intra-node all-gather assembles the node block; node blocks then
		// circulate on a multi-lane ring, each rank copying its lane's
		// arrivals out of shared memory.
		cp := &clusterProgram{
			nodes: N, perNode: p,
			tmplA: maAllgather(c.Node, p, contrib, costs),
		}
		if N > 1 {
			hops := N - 1
			cp.inter = interSpec{
				kind:      interRingAll,
				hopsTotal: hops,
				macro:     macroSteps(hops, o.RingSteps),
				hopDur:    costs.laneT(contrib, p) + costs.copyT(contrib, false),
			}
		}
		return cp.resolve()
	case LeaderRing, LeaderTree:
		// Leaders gather intra-node, exchange node blocks on a single-lane
		// ring, then broadcast the assembled result locally.
		total := contrib * float64(N*p)
		cp := &clusterProgram{
			nodes: N, perNode: p,
			tmplA: binomialGather(c.Node, p, contrib, costs),
			tmplC: binomialBcast(c.Node, p, total, costs),
		}
		if N > 1 {
			hops := N - 1
			cp.inter = interSpec{
				kind:      interRingLeader,
				hopsTotal: hops,
				macro:     macroSteps(hops, o.RingSteps),
				hopDur:    costs.laneT(contrib*float64(p), 1),
			}
		}
		return cp.resolve()
	case FlatRing:
		P := N * p
		if P <= 1 {
			return &flatRingProgram{ranks: P, perNode: p, macro: 0}, nil
		}
		hops := P - 1
		return &flatRingProgram{
			ranks: P, perNode: p,
			hopsTotal:  hops,
			reduceHops: 0,
			macro:      macroSteps(hops, o.RingSteps),
			intraCopy:  costs.copyT(contrib, false),
			interExtra: costs.laneT(contrib, 1),
		}, nil
	}
	return nil, fmt.Errorf("cluster: unknown all-gather algorithm %q", alg)
}

// Collective names accepted by Compile and ScheduledTime.
const (
	CollAllreduce = "allreduce"
	CollBcast     = "bcast"
	CollAllgather = "allgather"
)

// Compile dispatches on the collective name.
func (c *Cluster) Compile(coll string, alg Algorithm, n int64, o ScheduleOptions) (sim.Program, error) {
	switch coll {
	case CollAllreduce:
		return c.CompileAllreduce(alg, n, o)
	case CollBcast:
		return c.CompileBcast(alg, n, o)
	case CollAllgather:
		return c.CompileAllgather(alg, n, o)
	}
	return nil, fmt.Errorf("cluster: unknown collective %q", coll)
}

// ScheduledTime compiles the collective and executes the program on the
// cluster's selected engine (see SetEngine), returning simulated seconds.
func (c *Cluster) ScheduledTime(coll string, alg Algorithm, n int64, o ScheduleOptions) (float64, error) {
	prog, err := c.Compile(coll, alg, n, o)
	if err != nil {
		return 0, err
	}
	return c.machine.RunProgram(prog, c.engine)
}

// SetEngine selects the simulation core Scheduled* methods run on
// (coroutine by default — the exact reference; event for cluster scale).
func (c *Cluster) SetEngine(kind sim.EngineKind) { c.engine = kind }

// Engine returns the selected simulation core.
func (c *Cluster) Engine() sim.EngineKind { return c.engine }

// ProgramEvents returns how many calendar events a compiled program
// dispatches on the event engine (one per step); useful for budgeting scale
// sweeps.
func ProgramEvents(p sim.Program) uint64 {
	var total uint64
	R := p.Ranks()
	for r := 0; r < R; r++ {
		total += uint64(p.Steps(r))
	}
	return total
}
