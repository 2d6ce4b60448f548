package main

import (
	"fmt"
	"math"

	"yhccl"
)

// shm_sweep: the single-node memory-model machine, as in the paper's
// message-size sweeps. NodeA with 64 ranks and NodeB with 48, one
// long-lived machine each with the tuned plans attached, run the five paper
// collectives through yhccl.Exec with default dispatch, Tuned dispatch and
// seeded registry baselines. Message sizes span 8 KB to 64 MB of send
// buffer per rank on a log grid (all-gather to 8 MB, the top of the paper's
// all-gather sweep). One op is one Machine.Run of one call on
// every rank. A seeded minority runs on a second, real-data machine per
// node and is checked against the benchmark's own reference.

var paperColls = []string{"allreduce", "reduce-scatter", "reduce", "bcast", "allgather"}

const (
	shmMinBytes  = 8 << 10
	shmMaxBytes  = 64 << 20
	agMaxBytes   = 8 << 20  // all-gather tops out at 8 MB per rank, as in the paper's sweep
	shmStrata    = 4        // size strata per (node, collective, dispatch)
	realMaxBytes = 64 << 10 // real-data ops stay small: they hold p copies of the data
	realAGBytes  = 8 << 10  // a real all-gather receives p times its send buffer
)

// baselineCap bounds the sizes drawn for registry baselines whose host cost
// at 64 MB dwarfs everything else (NodeA, p=64: dpml 2.2 s, two-level 1.8 s,
// all-gather ring 9.5 s per op), so that no single op takes more than a few
// percent of a run.
var baselineCap = map[string]int64{
	"allreduce/dpml": 4 << 20, "reduce/dpml": 4 << 20, "reduce-scatter/dpml": 4 << 20,
	"allreduce/two-level": 4 << 20, "reduce/two-level": 4 << 20, "reduce-scatter/two-level": 4 << 20,
	"allgather/ring": 1 << 20,
}

type dispatch int

const (
	dispDefault dispatch = iota
	dispTuned
	dispBaseline
)

var dispatchNames = [...]string{"default", "tuned", "baseline"}

// shmOp is one collective call on every rank of one node's machine.
type shmOp struct {
	node  int // index into shmSweep.nodes
	coll  string
	disp  dispatch
	alg   string // registry name for dispBaseline, else ""
	bytes int64  // send buffer per rank
	root  int    // 0, as in the paper's sweeps (see README.md)
	real  bool
	salt  int // varies real-data contents between ops
}

func (o shmOp) String() string {
	kind := "model"
	if o.real {
		kind = "real"
	}
	return fmt.Sprintf("node%d %s/%s%s %d B root=%d %s", o.node, o.coll, dispatchNames[o.disp], o.alg, o.bytes, o.root, kind)
}

// shape returns the call's element count and the per-rank send and receive
// buffer lengths for p ranks.
func (o shmOp) shape(p int) (count, sbn, rbn int64) {
	n := o.bytes / 8
	switch o.coll {
	case "reduce-scatter":
		count = max(n/int64(p), 1)
		return count, count * int64(p), count
	case "allgather":
		return n, n, n * int64(p)
	}
	return n, n, n
}

// shmNode is one node type's pair of long-lived machines.
type shmNode struct {
	node  *yhccl.Node
	p     int
	opts  yhccl.Options
	model *yhccl.Machine
	real  *yhccl.Machine
	// sb and rb are the real machine's per-rank buffers, sized for the
	// largest real-data op.
	sb, rb []*yhccl.Buffer
}

type shmSweep struct {
	seed   uint64
	nodes  []*shmNode
	ops    []shmOp // the seed's op set
	counts map[string]float64
}

func newShm(seed uint64) *shmSweep {
	return &shmSweep{seed: seed, counts: map[string]float64{}}
}

func (s *shmSweep) setup(tr *tracer) error {
	s.nodes = nil
	for _, spec := range []struct {
		node *yhccl.Node
		p    int
	}{{yhccl.NodeA(), 64}, {yhccl.NodeB(), 48}} {
		nd := &shmNode{node: spec.node, p: spec.p}
		if spec.node.Name == "NodeB" {
			nd.opts.SliceMaxBytes = 128 << 10 // the paper's Imax on NodeB
		}
		var err error
		tr.do("mpi.NewMachine", func() { nd.model = yhccl.NewMachine(spec.node, spec.p, false) })
		tr.do("mpi.NewMachine", func() { nd.real = yhccl.NewMachine(spec.node, spec.p, true) })
		for _, m := range []*yhccl.Machine{nd.model, nd.real} {
			tr.do("plan.AttachPlans", func() { err = yhccl.AttachPlans(m, "") })
			if err != nil {
				return fmt.Errorf("attach plans on %s: %w", spec.node.Name, err)
			}
		}
		if err := nd.allocReal(tr); err != nil {
			return err
		}
		s.nodes = append(s.nodes, nd)
	}
	// Warm-up: one small call per collective on every machine, so lazily
	// built communicator resources exist before the first timed op.
	for i := range s.nodes {
		for _, c := range paperColls {
			for _, real := range []bool{false, true} {
				o := shmOp{node: i, coll: c, bytes: shmMinBytes, real: real}
				if _, err := s.exec(tr, o); err != nil {
					return fmt.Errorf("warm-up %s: %w", o, err)
				}
			}
		}
	}
	s.ops = s.design(newRNG(s.seed, 1), shmStrata)
	return nil
}

// allocReal creates the real machine's persistent buffers.
func (nd *shmNode) allocReal(tr *tracer) error {
	sbn := int64(realMaxBytes / 8)
	rbn := max(sbn, realAGBytes/8*int64(nd.p))
	nd.sb = make([]*yhccl.Buffer, nd.p)
	nd.rb = make([]*yhccl.Buffer, nd.p)
	var err error
	tr.do("mpi.Run", func() {
		_, err = nd.real.Run(func(r *yhccl.Rank) {
			nd.sb[r.ID()] = r.PersistentBuffer("perfbench/real-sb", sbn)
			nd.rb[r.ID()] = r.PersistentBuffer("perfbench/real-rb", rbn)
		})
	})
	return err
}

// design draws the seed's op set: every node x collective under default
// and Tuned dispatch at strata message sizes, every registry baseline once
// per node, and one real-data op per node x collective x dispatch.
// The sizes of each series sit on an even log grid from 8 KB to its top
// size, each moved by a seeded tenth of a grid step, so that every seed
// carries the same amount of work. Passes repeat the set in a fresh seeded
// order, so the state the long-lived machines build up (shared segments
// per message size) stops growing after the first pass.
func (s *shmSweep) design(r *rng, strata int) []shmOp {
	var ops []shmOp
	sized := func(o shmOp, st, n int, hi float64) shmOp {
		u := 0.5
		if n > 1 {
			u = (float64(st) + 0.1*(r.float()-0.5)) / float64(n-1)
		}
		o.bytes = int64(shmMinBytes*math.Pow(hi/shmMinBytes, min(max(u, 0), 1))) &^ 7
		return o
	}
	for ni := range s.nodes {
		for _, c := range paperColls {
			top := float64(shmMaxBytes)
			if c == "allgather" {
				top = agMaxBytes
			}
			for _, d := range []dispatch{dispDefault, dispTuned} {
				for st := 0; st < strata; st++ {
					ops = append(ops, sized(shmOp{node: ni, coll: c, disp: d}, st, strata, top))
				}
			}
			algs := baselines(c)
			for k, alg := range algs {
				hi := top
				if cap, ok := baselineCap[c+"/"+alg]; ok {
					hi = float64(cap)
				}
				// Each baseline runs once per node: at 8 KB on one node and
				// at its top size on the other.
				st := 0
				if strata > 1 {
					st = (k + ni) % 2
				}
				ops = append(ops, sized(shmOp{node: ni, coll: c, disp: dispBaseline, alg: alg}, st, min(strata, 2), hi))
			}
			for d := dispDefault; d <= dispBaseline; d++ {
				o := shmOp{node: ni, coll: c, disp: d, real: true, salt: r.intn(1000)}
				if d == dispBaseline {
					o.alg = algs[ni%len(algs)]
				}
				o = sized(o, int(d), 3, realMaxBytes)
				if c == "allgather" {
					o.bytes = realAGBytes
				}
				ops = append(ops, o)
			}
		}
	}
	r.shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// baselines lists the registry algorithms other than the default.
func baselines(c string) []string {
	var out []string
	for _, a := range yhccl.AlgorithmNames(c) {
		if a != "yhccl" {
			out = append(out, a)
		}
	}
	return out
}

func (s *shmSweep) pass(p int) []op {
	ops := append([]shmOp(nil), s.ops...)
	r := newRNG(s.seed, 3, uint64(p))
	r.shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	out := make([]op, len(ops))
	for i, o := range ops {
		o := o
		out[i].run = func(tr *tracer) (func() error, error) {
			if o.disp == dispTuned {
				s.counts["plan.tuned_calls"]++
			}
			_, err := s.exec(tr, o)
			if err != nil || !o.real {
				return nil, err
			}
			return func() error { return s.nodes[o.node].verify(o) }, nil
		}
		if o.real {
			out[i].prepare = func() { s.nodes[o.node].fill(o) }
		}
	}
	return out
}

// exec runs one op on every rank and returns the simulated makespan.
func (s *shmSweep) exec(tr *tracer, o shmOp) (float64, error) {
	nd := s.nodes[o.node]
	m := nd.model
	if o.real {
		m = nd.real
	}
	count, sbn, rbn := o.shape(nd.p)
	var mk float64
	var err error
	tr.do("mpi.Run", func() {
		mk, err = m.Run(func(r *yhccl.Rank) {
			var sb, rb *yhccl.Buffer
			if o.real {
				sb, rb = nd.sb[r.ID()], nd.rb[r.ID()]
			} else {
				sb = r.PersistentBuffer("perfbench/sb", sbn)
				rb = r.PersistentBuffer("perfbench/rb", rbn)
			}
			r.Warm(sb, 0, sbn) // the application has just produced its data
			q := yhccl.Req{Collective: o.coll, Alg: o.alg, Tuned: o.disp == dispTuned,
				Send: sb, Recv: rb, Count: count, Root: o.root, Options: nd.opts}
			if o.coll == "bcast" {
				q.Recv = nil
			} else {
				r.Warm(rb, 0, rbn)
			}
			if err := yhccl.Exec(r, q); err != nil {
				panic(err)
			}
		})
	})
	if err == nil && !(mk > 0 && !math.IsInf(mk, 0)) {
		err = fmt.Errorf("%s: makespan %v", o, mk)
	}
	if err != nil {
		return 0, fmt.Errorf("%s: %w", o, err)
	}
	return mk, nil
}

// value is rank q's send element i for a real op: small integers, so every
// summation order is exact.
func (o shmOp) value(q int, i int64) float64 { return float64(1 + (int64(q*7+o.salt)+i)%9) }

// fill writes the real op's inputs and poisons its outputs.
func (nd *shmNode) fill(o shmOp) {
	_, sbn, rbn := o.shape(nd.p)
	for q := 0; q < nd.p; q++ {
		sb, rb := nd.sb[q].Data[:sbn], nd.rb[q].Data[:rbn]
		for i := range sb {
			sb[i] = o.value(q, int64(i))
			if o.coll == "bcast" && q != o.root {
				sb[i] = -1
			}
		}
		for i := range rb {
			rb[i] = -1
		}
	}
}

// verify checks a real op's outputs against the reference reduction.
func (nd *shmNode) verify(o shmOp) error {
	count, sbn, _ := o.shape(nd.p)
	sums := make([]float64, sbn)
	for q := 0; q < nd.p; q++ {
		for i := range sums {
			sums[i] += o.value(q, int64(i))
		}
	}
	check := func(rank int, got []float64, want func(i int64) float64) error {
		for i := int64(0); i < count; i++ {
			if w := want(i); got[i] != w {
				return fmt.Errorf("%s: rank %d element %d = %v, want %v", o, rank, i, got[i], w)
			}
		}
		return nil
	}
	for q := 0; q < nd.p; q++ {
		var err error
		switch o.coll {
		case "allreduce":
			err = check(q, nd.rb[q].Data, func(i int64) float64 { return sums[i] })
		case "reduce":
			if q == o.root {
				err = check(q, nd.rb[q].Data, func(i int64) float64 { return sums[i] })
			}
		case "reduce-scatter":
			off := int64(q) * count
			err = check(q, nd.rb[q].Data, func(i int64) float64 { return sums[off+i] })
		case "bcast":
			err = check(q, nd.sb[q].Data, func(i int64) float64 { return o.value(o.root, i) })
		case "allgather":
			for src := 0; src < nd.p && err == nil; src++ {
				src := src
				err = check(q, nd.rb[q].Data[int64(src)*count:], func(i int64) float64 { return o.value(src, i) })
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// model runs the check set — one op per node x collective x dispatch plus
// the real-data ops — on fresh machines and reports the memory model's
// counters and the simulated times.
func (s *shmSweep) model(tr *tracer, d *digest, _ bool) (map[string]float64, error) {
	if err := s.setup(tr); err != nil {
		return nil, err
	}
	var all []float64
	byColl := map[string][]float64{}
	out := map[string]float64{}
	var stores float64
	for _, o := range s.design(newRNG(s.seed, 2), 1) {
		nd := s.nodes[o.node]
		if o.real {
			nd.fill(o)
		}
		m := nd.model
		if o.real {
			m = nd.real
		}
		c0 := m.Model.Counters()
		mk, err := s.exec(tr, o)
		if err != nil {
			return nil, err
		}
		if o.real {
			if err := nd.verify(o); err != nil {
				return nil, err
			}
		}
		c := m.Model.Counters().Sub(c0)
		for _, v := range []int64{c.LoadBytes, c.StoreBytes, c.CopyVolume, c.DRAMTraffic, c.RFOBytes,
			c.WritebackBytes, c.NTStoreBytes, c.CrossSocketBytes, c.SyncCount} {
			d.int(v)
		}
		d.str(o.String())
		d.float(mk)
		out["model.memmodel.dav_bytes"] += float64(c.DAV())
		out["model.memmodel.dram_bytes"] += float64(c.DRAMTraffic)
		out["model.memmodel.rfo_bytes"] += float64(c.RFOBytes)
		out["model.memmodel.nt_store_bytes"] += float64(c.NTStoreBytes)
		out["model.memmodel.cross_socket_bytes"] += float64(c.CrossSocketBytes)
		out["model.memmodel.sync_count"] += float64(c.SyncCount)
		stores += float64(c.StoreBytes)
		all = append(all, mk*1e6)
		byColl[o.coll] = append(byColl[o.coll], mk*1e6)
	}
	out["model.coll.sim_us_geomean"] = geomean(all)
	for c, v := range byColl {
		out["model.coll."+c+".sim_us_geomean"] = geomean(v)
	}
	if stores > 0 {
		out["model.memcopy.nt_fraction"] = out["model.memmodel.nt_store_bytes"] / stores
	}
	return out, nil
}

func (s *shmSweep) takeCounts() map[string]float64 {
	c := s.counts
	s.counts = map[string]float64{}
	return c
}
