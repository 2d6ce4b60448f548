package cluster

import (
	"fmt"
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

// tmplStep is one templated step: a duration and its dependencies.
type tmplStep struct {
	dur  sim.Tick
	deps []tmplDep
}

// intraTemplate is one intra-node phase: per local rank, an ordered step
// list. Nodes are homogeneous, so a single template serves every node; the
// per-rank runtime state stays O(1).
type intraTemplate struct {
	steps [][]tmplStep
}

func (t *intraTemplate) len(local int) int {
	if t == nil {
		return 0
	}
	return len(t.steps[local])
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
	t := &intraTemplate{steps: make([][]tmplStep, p)}
	for l := 0; l < p; l++ {
		steps := make([]tmplStep, p-1)
		for k := 0; k < p-1; k++ {
			src := (l + k + 1) % p
			steps[k] = tmplStep{
				dur:  c.copyT(blockBytes, crossSocket(node, l, src)),
				deps: []tmplDep{{local: int32(src), step: -1}},
			}
		}
		t.steps[l] = steps
	}
	return t
}

// socketReduceScatter builds the socket-aware reduce-scatter: an MA
// wavefront inside each socket (blocks of msg/perSocket), then a chain of
// cross-socket combines so every rank's block is reduced over all p locals.
func socketReduceScatter(node *topo.Node, p, perSocket, sockets int, blockBytes float64, c progCosts) *intraTemplate {
	t := &intraTemplate{steps: make([][]tmplStep, p)}
	for l := 0; l < p; l++ {
		sock, ls := l/perSocket, l%perSocket
		next := sock*perSocket + (ls+1)%perSocket
		steps := make([]tmplStep, 0, perSocket+sockets-1)
		if perSocket > 1 {
			steps = append(steps, tmplStep{dur: c.copyT(blockBytes, false)})
			for j := 1; j < perSocket; j++ {
				steps = append(steps, tmplStep{
					dur:  c.reduceT(blockBytes, false),
					deps: []tmplDep{{local: int32(next), step: int32(j - 1)}},
				})
			}
		}
		for k := 1; k < sockets; k++ {
			peer := ((sock+k)%sockets)*perSocket + ls
			peerLast := int32(perSocket - 1) // peer's MA-final step index
			if perSocket == 1 {
				peerLast = -1 // peer has no MA phase; its data is phase input
			}
			steps = append(steps, tmplStep{
				dur:  c.reduceT(blockBytes, true),
				deps: []tmplDep{{local: int32(peer), step: peerLast}},
			})
		}
		t.steps[l] = steps
	}
	return t
}

// socketAllgather gathers the socket's blocks locally (after the
// cross-socket combine, one socket's blocks tile the full message).
func socketAllgather(node *topo.Node, p, perSocket int, blockBytes float64, c progCosts) *intraTemplate {
	if perSocket <= 1 {
		return nil
	}
	t := &intraTemplate{steps: make([][]tmplStep, p)}
	for l := 0; l < p; l++ {
		sock, ls := l/perSocket, l%perSocket
		steps := make([]tmplStep, perSocket-1)
		for k := 0; k < perSocket-1; k++ {
			src := sock*perSocket + (ls+k+1)%perSocket
			steps[k] = tmplStep{
				dur:  c.copyT(blockBytes, false),
				deps: []tmplDep{{local: int32(src), step: -1}},
			}
		}
		t.steps[l] = steps
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
	t := &intraTemplate{steps: make([][]tmplStep, p)}
	for l := 0; l < p; l++ {
		if len(children[l]) == 0 {
			t.steps[l] = []tmplStep{{dur: c.copyT(msgBytes, false)}}
			continue
		}
		steps := make([]tmplStep, len(children[l]))
		for i, kid := range children[l] {
			kidLast := len(children[kid]) // leaf: 1 step -> last index 0; parent: len(kids)-1
			if kidLast == 0 {
				kidLast = 1
			}
			steps[i] = tmplStep{
				dur:  c.reduceT(msgBytes, crossSocket(node, l, kid)),
				deps: []tmplDep{{local: int32(kid), step: int32(kidLast - 1)}},
			}
		}
		t.steps[l] = steps
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
	t := &intraTemplate{steps: make([][]tmplStep, p)}
	t.steps[0] = nil
	for l := 1; l < p; l++ {
		src := l - 1<<(bits.Len(uint(l))-1)
		dep := tmplDep{local: int32(src), step: 0}
		if src == 0 {
			dep.step = -1
		}
		t.steps[l] = []tmplStep{{
			dur:  c.copyT(msgBytes, crossSocket(node, l, src)),
			deps: []tmplDep{dep},
		}}
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
	t := &intraTemplate{steps: make([][]tmplStep, p)}
	recvSteps := make([]int, p)
	for l := 0; l < p; l++ {
		var steps []tmplStep
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
			steps = append(steps, tmplStep{
				dur:  c.copyT(float64(segRanks)*perRankBytes, crossSocket(node, l, src)),
				deps: []tmplDep{dep},
			})
			recvSteps[l] = len(steps)
		}
		t.steps[l] = steps
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

// hopsIn returns how many underlying hops macro step g covers (earlier
// macro steps take the remainder, preserving the total).
func (s *interSpec) hopsIn(g int) int {
	base, rem := s.hopsTotal/s.macro, s.hopsTotal%s.macro
	if g < rem {
		return base + 1
	}
	return base
}

// clusterProgram is a compiled hierarchical collective over
// nodes x perNode ranks: intra-node template phase A, inter-node phase B,
// intra-node template phase C. All step queries are O(1) arithmetic plus
// template lookups shared across nodes.
type clusterProgram struct {
	nodes, perNode int
	tmplA, tmplC   *intraTemplate
	aOnlyNode0     bool
	inter          interSpec
}

func (cp *clusterProgram) Ranks() int { return cp.nodes * cp.perNode }

func (cp *clusterProgram) lenA(node, local int) int {
	if cp.aOnlyNode0 && node != 0 {
		return 0
	}
	return cp.tmplA.len(local)
}

// recvCount returns how many binomial-reduce rounds node m receives in.
func (cp *clusterProgram) recvCount(m int) int {
	n := 0
	for stride := 1; m%(2*stride) == 0 && stride < cp.nodes; stride *= 2 {
		if m+stride < cp.nodes {
			n++
		}
	}
	return n
}

// recvRound returns the stride of node m's k-th binomial receive.
func (cp *clusterProgram) recvRound(m, k int) int {
	for stride := 1; m%(2*stride) == 0 && stride < cp.nodes; stride *= 2 {
		if m+stride < cp.nodes {
			if k == 0 {
				return stride
			}
			k--
		}
	}
	panic("cluster: recvRound out of range")
}

func (cp *clusterProgram) lenB(node, local int) int {
	switch cp.inter.kind {
	case interRingAll:
		return cp.inter.macro
	case interRingLeader:
		if local == 0 {
			return cp.inter.macro
		}
	case interTreeLeader:
		if local == 0 {
			n := cp.recvCount(node)
			if node > 0 {
				n++ // the broadcast receive
			}
			return n
		}
	case interTreeBcastLeader:
		if local == 0 && node > 0 {
			return 1
		}
	case interLaneTree:
		if node > 0 {
			return 1
		}
	}
	return 0
}

func (cp *clusterProgram) Steps(rank int) int {
	node, local := rank/cp.perNode, rank%cp.perNode
	return cp.lenA(node, local) + cp.lenB(node, local) + cp.tmplC.len(local)
}

func (cp *clusterProgram) Duration(rank, step int) sim.Tick {
	node, local := rank/cp.perNode, rank%cp.perNode
	la := cp.lenA(node, local)
	if step < la {
		return cp.tmplA.steps[local][step].dur
	}
	lb := cp.lenB(node, local)
	if step < la+lb {
		g := step - la
		switch cp.inter.kind {
		case interRingAll, interRingLeader:
			return sim.Tick(cp.inter.hopsIn(g)) * cp.inter.hopDur
		case interTreeLeader:
			if g < cp.recvCount(node) {
				return cp.inter.hopDur + cp.inter.reduceDur
			}
			return cp.inter.hopDur + cp.inter.extraDur
		default: // interTreeBcastLeader, interLaneTree
			return cp.inter.hopDur + cp.inter.extraDur
		}
	}
	return cp.tmplC.steps[local][step-la-lb].dur
}

func (cp *clusterProgram) Deps(rank, step int, visit func(depRank, depStep int) bool) {
	node, local := rank/cp.perNode, rank%cp.perNode
	la := cp.lenA(node, local)
	emit := func(depRank, depStep int) bool {
		if depStep < 0 {
			return true // ready at time zero
		}
		return visit(depRank, depStep)
	}
	if step < la {
		for _, d := range cp.tmplA.steps[local][step].deps {
			// Phase A has no predecessor phase; step -1 deps are free.
			if d.step >= 0 && !emit(node*cp.perNode+int(d.local), int(d.step)) {
				return
			}
		}
		return
	}
	lb := cp.lenB(node, local)
	if step < la+lb {
		g := step - la
		switch cp.inter.kind {
		case interRingAll, interRingLeader:
			prev := (node - 1 + cp.nodes) % cp.nodes
			emit(prev*cp.perNode+local, cp.lenA(prev, local)+g-1)
		case interTreeLeader:
			if g < cp.recvCount(node) {
				pn := node + cp.recvRound(node, g)
				emit(pn*cp.perNode, cp.lenA(pn, 0)+cp.recvCount(pn)-1)
			} else {
				sn := node - 1<<(bits.Len(uint(node))-1)
				srcB := cp.recvCount(sn)
				if sn > 0 {
					srcB++
				}
				emit(sn*cp.perNode, cp.lenA(sn, 0)+srcB-1)
			}
		case interTreeBcastLeader:
			sn := node - 1<<(bits.Len(uint(node))-1)
			srcB := 0
			if sn > 0 {
				srcB = 1
			}
			emit(sn*cp.perNode, cp.lenA(sn, 0)+srcB-1)
		case interLaneTree:
			sn := node - 1<<(bits.Len(uint(node))-1)
			srcB := 0
			if sn > 0 {
				srcB = 1
			}
			emit(sn*cp.perNode+local, cp.lenA(sn, local)+srcB-1)
		}
		return
	}
	for _, d := range cp.tmplC.steps[local][step-la-lb].deps {
		q := int(d.local)
		qOff := cp.lenA(node, q) + cp.lenB(node, q)
		ds := qOff + int(d.step)
		if d.step < 0 {
			ds = qOff - 1
		}
		if !emit(node*cp.perNode+q, ds) {
			return
		}
	}
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

func (fp *flatRingProgram) Duration(rank, step int) sim.Tick {
	lo, hi := fp.hopRange(step)
	nRed := 0
	if lo < fp.reduceHops {
		nRed = min(hi, fp.reduceHops) - lo
	}
	nCopy := (hi - lo) - nRed
	d := sim.Tick(nRed)*fp.intraReduce + sim.Tick(nCopy)*fp.intraCopy
	if rank%fp.perNode == 0 && fp.ranks > fp.perNode {
		d += sim.Tick(hi-lo) * fp.interExtra
	}
	return d
}

func (fp *flatRingProgram) Deps(rank, step int, visit func(depRank, depStep int) bool) {
	if step == 0 {
		return // hop 0 consumes the predecessor's initial data
	}
	visit((rank-1+fp.ranks)%fp.ranks, step-1)
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

func (ft *flatTreeProgram) Duration(rank, _ int) sim.Tick {
	if ft.src(rank)/ft.perNode != rank/ft.perNode {
		return ft.interDur
	}
	return ft.intraDur
}

func (ft *flatTreeProgram) Deps(rank, _ int, visit func(depRank, depStep int) bool) {
	if s := ft.src(rank); s != 0 {
		visit(s, 0)
	}
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
		return cp, nil
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
		return cp, nil
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
			scatter := &intraTemplate{steps: make([][]tmplStep, p)}
			for l := 0; l < p; l++ {
				scatter.steps[l] = []tmplStep{{dur: costs.copyT(piece, crossSocket(c.Node, l, 0))}}
			}
			cp.tmplA = scatter
			cp.tmplC = maAllgather(c.Node, p, piece, costs)
		}
		if N > 1 {
			cp.inter = interSpec{kind: interLaneTree, hopDur: costs.laneT(piece, p)}
		}
		return cp, nil
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
		return cp, nil
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
		return cp, nil
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
		return cp, nil
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

// ProgramEvents estimates how many calendar events a compiled program
// dispatches (one per step); useful for budgeting scale sweeps.
func ProgramEvents(p sim.Program) uint64 {
	var total uint64
	R := p.Ranks()
	for r := 0; r < R; r++ {
		total += uint64(p.Steps(r))
	}
	return total
}
