// Fault arming for compiled cluster schedules. A fault.ClusterPlan is
// lowered onto a compiled program as pure arithmetic: node straggler
// dilation and link-degrade repricing become a Step wrapper that reprices
// the returned duration (the dependency structure is untouched, so the
// armed run stays a valid execution of the same schedule), node crashes
// become per-rank poison ticks consumed by the armed event interpreter, and
// phase corruptions become completion hooks that fire at the exact tick the
// victim node's phase step completes. With an empty plan the wrapper is
// bypassed entirely and the run is bit-identical to the healthy path — the
// 183-case parity matrix never sees any of this machinery.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"yhccl/internal/fault"
	"yhccl/internal/sim"
)

// nodePhased is implemented by compiled cluster programs that expose their
// node and phase structure to the fault armer.
type nodePhased interface {
	sim.Program
	// Shape returns the node decomposition of the program's rank space.
	Shape() fault.ClusterShape
	// PhaseOf buckets a step into the canonical composition phases:
	// 0 = intra phase A, 1 = inter-node, 2 = intra phase C.
	PhaseOf(rank, step int) int
	// Lane reports the portion of the step's duration carried on an
	// inter-node lane — the part a degraded link reprices — and the node on
	// the far end of that lane; (0, -1) for pure intra steps.
	Lane(rank, step int) (ticks sim.Tick, src int)
}

// --- nodePhased implementations for the compiled program kinds ---

func (cp *clusterProgram) Shape() fault.ClusterShape {
	return fault.ClusterShape{Nodes: cp.nodes, PerNode: cp.perNode}
}

func (cp *clusterProgram) PhaseOf(rank, step int) int {
	node, local := cp.div.split(rank)
	la := cp.lenA(node, local)
	if step < la {
		return 0
	}
	if step < la+cp.lenB(node, local) {
		return 1
	}
	return 2
}

func (cp *clusterProgram) Lane(rank, step int) (sim.Tick, int) {
	node, local := cp.div.split(rank)
	g := step - cp.lenA(node, local)
	if g < 0 || g >= cp.lenB(node, local) {
		return 0, -1
	}
	src, _ := cp.interSrc(node, g)
	if k := cp.inter.kind; k == interRingAll || k == interRingLeader {
		return cp.inter.ringDur(g), src
	}
	// Tree-shaped phases pay one wire hop per step; reduceDur/extraDur are
	// node-local compute.
	return cp.inter.hopDur, src
}

func (fp *flatRingProgram) Shape() fault.ClusterShape {
	return fault.ClusterShape{Nodes: fp.ranks / fp.perNode, PerNode: fp.perNode}
}

func (fp *flatRingProgram) interStep(rank int) bool {
	return rank%fp.perNode == 0 && fp.ranks > fp.perNode
}

func (fp *flatRingProgram) PhaseOf(rank, _ int) int {
	if fp.interStep(rank) {
		return 1
	}
	return 0
}

func (fp *flatRingProgram) Lane(rank, step int) (sim.Tick, int) {
	if !fp.interStep(rank) {
		return 0, -1
	}
	lo, hi := fp.hopRange(step)
	return sim.Tick(hi-lo) * fp.interExtra, ((rank - 1 + fp.ranks) % fp.ranks) / fp.perNode
}

func (ft *flatTreeProgram) Shape() fault.ClusterShape {
	return fault.ClusterShape{Nodes: ft.ranks / ft.perNode, PerNode: ft.perNode}
}

func (ft *flatTreeProgram) crossNode(rank int) bool {
	return ft.src(rank)/ft.perNode != rank/ft.perNode
}

func (ft *flatTreeProgram) PhaseOf(rank, _ int) int {
	if ft.crossNode(rank) {
		return 1
	}
	return 0
}

func (ft *flatTreeProgram) Lane(rank, _ int) (sim.Tick, int) {
	if ft.crossNode(rank) {
		return ft.interDur, ft.src(rank) / ft.perNode
	}
	return 0, -1
}

// armedProgram reprices a compiled program under a cluster plan: link
// degradation inflates the inter-lane portion of affected hops, node
// straggler dilation stretches every step charged to the node. Dependencies,
// step counts and rank space are untouched.
type armedProgram struct {
	nodePhased
	perNode int
	// linkFactor[node] > 1 degrades the node's lane; 0/1 = healthy.
	linkFactor []float64
	// dilate[node] > 1 stretches the node's virtual time; 0/1 = healthy.
	dilate []float64
}

func (ap *armedProgram) Step(rank, step int, visit func(depRank, depStep int) bool) sim.Tick {
	d := ap.nodePhased.Step(rank, step, visit)
	if d < 0 {
		return d
	}
	node := rank / ap.perNode
	if it, src := ap.nodePhased.Lane(rank, step); it > 0 {
		f := ap.linkFactor[node]
		if src >= 0 && ap.linkFactor[src] > f {
			f = ap.linkFactor[src]
		}
		if f > 1 {
			// Ceil so a degraded lane is never free, even on tiny hops.
			d += sim.Tick(math.Ceil(float64(it) * (f - 1)))
		}
	}
	if dil := ap.dilate[node]; dil > 1 {
		d = sim.Tick(math.Ceil(float64(d) * dil))
	}
	return d
}

// ClusterRunError is the deterministic diagnosis of a faulty cluster run:
// it names the dead nodes (crash), the degraded lanes and straggler nodes
// that were armed, and the node/phase where the result diverged (transient
// corruption). A run that completes slow-but-correct under degradation does
// not error; a poisoned or diverging run does.
type ClusterRunError struct {
	Plan *fault.ClusterPlan

	// DeadNodes are nodes whose state machines were poisoned mid-run.
	DeadNodes []int
	// RanksPoisoned counts individual state machines that died.
	RanksPoisoned int

	// DegradedLanes / StragglerNodes report what was armed on the run.
	DegradedLanes  []int
	StragglerNodes []int

	// CorruptNode/CorruptPhase name the diverging phase (-1 when none).
	CorruptNode  int
	CorruptPhase int

	// HorizonHit reports the no-progress watchdog fired at tick HaltTick.
	HorizonHit bool
	HaltTick   sim.Tick

	Finished int
	Total    int
	// Waiting samples stuck dependency edges ("rank@step->rank@step").
	Waiting []string
}

func (e *ClusterRunError) Error() string {
	s := "cluster: "
	switch {
	case len(e.DeadNodes) > 0:
		s += fmt.Sprintf("run halted: dead node(s) %v, %d state machines poisoned, %d of %d ranks finished",
			e.DeadNodes, e.RanksPoisoned, e.Finished, e.Total)
	case e.HorizonHit:
		s += fmt.Sprintf("no progress: watchdog horizon exceeded at tick %d, %d of %d ranks finished",
			e.HaltTick, e.Finished, e.Total)
	case e.CorruptNode >= 0:
		s += fmt.Sprintf("result diverges at node %d in the %s phase (transient corruption)",
			e.CorruptNode, fault.ClusterPhaseName(e.CorruptPhase))
	default:
		s += fmt.Sprintf("run halted, %d of %d ranks finished", e.Finished, e.Total)
	}
	if len(e.DegradedLanes) > 0 {
		s += fmt.Sprintf("; degraded lane(s) %v", e.DegradedLanes)
	}
	if len(e.StragglerNodes) > 0 {
		s += fmt.Sprintf("; straggler node(s) %v", e.StragglerNodes)
	}
	if len(e.Waiting) > 0 {
		s += fmt.Sprintf("; waiting: %v", e.Waiting)
	}
	return s
}

// ArmedRun reports one fault-armed execution of a compiled program.
type ArmedRun struct {
	Res    sim.ProgramResult
	Events []fault.ClusterEvent
	// Corrupt events fired: the run completed but its result diverges at
	// CorruptNode/CorruptPhase (-1 when clean).
	CorruptNode  int
	CorruptPhase int
}

// corruptTargets picks, per corruption, the (rank, step) whose completion
// marks the victim node's contribution to the target phase: the last step in
// that phase of the node's lowest-numbered rank that has one. If the node
// runs no step in the requested phase the other phases are tried in a fixed
// order, so a corruption armed on a real node always fires somewhere.
func corruptTargets(np nodePhased, plan *fault.ClusterPlan) map[[2]int32]fault.PhaseCorrupt {
	if len(plan.Corruptions) == 0 {
		return nil
	}
	shape := np.Shape()
	out := make(map[[2]int32]fault.PhaseCorrupt, len(plan.Corruptions))
	for _, c := range plan.Corruptions {
		found := false
		for _, ph := range [...]int{c.Phase, 1, 0, 2} {
			if found {
				break
			}
			for local := 0; local < shape.PerNode && !found; local++ {
				rank := c.Node*shape.PerNode + local
				for step := np.Steps(rank) - 1; step >= 0; step-- {
					if np.PhaseOf(rank, step) == ph {
						out[[2]int32{int32(rank), int32(step)}] = c
						found = true
						break
					}
				}
			}
		}
	}
	return out
}

// RunArmed executes a compiled program on the event engine under a cluster
// fault plan. prog must come from one of the Compile* entry points (it has
// to expose its node structure); plan may be nil or empty, in which case the
// program runs unwrapped and the makespan is bit-identical to the healthy
// path. horizon, when > 0, arms the no-progress watchdog.
//
// The returned ArmedRun always carries the injector event log. The error is
// a *ClusterRunError when the run was poisoned (node crash), tripped the
// watchdog, or completed with a diverging phase (corruption); degraded-lane
// and straggler runs complete slow-but-correct with a nil error.
func RunArmed(prog sim.Program, plan *fault.ClusterPlan, horizon sim.Tick) (ArmedRun, error) {
	run := ArmedRun{CorruptNode: -1, CorruptPhase: -1}
	np, ok := prog.(nodePhased)
	if !ok {
		return run, fmt.Errorf("cluster: program %T does not expose node structure for fault arming", prog)
	}
	shape := np.Shape()
	if err := plan.Validate(shape); err != nil {
		return run, err
	}
	inj := fault.NewClusterInjector(plan)
	inj.BeginRun()

	exec := sim.Program(np)
	var faults *sim.ProgramFaults
	if !plan.Empty() {
		linkFactor := make([]float64, shape.Nodes)
		dilate := make([]float64, shape.Nodes)
		armedDils := false
		for _, d := range plan.LinkDegrades {
			linkFactor[d.Node] = d.Factor
			inj.LogArmed("link-degrade", d.Node, d.Factor)
			armedDils = true
		}
		for _, st := range plan.Stragglers {
			dilate[st.Node] = st.Factor
			inj.LogArmed("node-straggler", st.Node, st.Factor)
			armedDils = true
		}
		if armedDils {
			exec = &armedProgram{nodePhased: np, perNode: shape.PerNode,
				linkFactor: linkFactor, dilate: dilate}
		}
		faults = &sim.ProgramFaults{Horizon: horizon}
		if len(plan.Crashes) > 0 {
			crash := make([]sim.Tick, shape.Ranks())
			for i := range crash {
				crash[i] = -1
			}
			for _, c := range plan.Crashes {
				for local := 0; local < shape.PerNode; local++ {
					crash[c.Node*shape.PerNode+local] = sim.Tick(c.AtTick)
				}
			}
			faults.CrashTick = crash
			crashLogged := make([]bool, shape.Nodes)
			faults.OnDead = func(rank int32, at sim.Tick) {
				node := int(rank) / shape.PerNode
				if !crashLogged[node] {
					crashLogged[node] = true
					inj.LogCrash(node, int64(at), shape.PerNode)
				}
			}
		}
		if targets := corruptTargets(np, plan); targets != nil {
			faults.OnComplete = func(rank, step int32, now sim.Tick) {
				if c, ok := targets[[2]int32{rank, step}]; ok {
					inj.LogCorrupt(c.Node, c.Phase, int64(now))
					if run.CorruptNode < 0 {
						run.CorruptNode, run.CorruptPhase = c.Node, c.Phase
					}
				}
			}
		}
	} else if horizon > 0 {
		faults = &sim.ProgramFaults{Horizon: horizon}
	}

	var res sim.ProgramResult
	var err error
	if faults == nil {
		res, err = sim.RunProgramEvent(exec)
	} else {
		res, err = sim.RunProgramEventArmed(exec, faults)
	}
	run.Res = res
	run.Events = inj.Events()

	if err != nil {
		var halt *sim.ProgramHaltError
		if errors.As(err, &halt) {
			return run, diagnoseHalt(plan, shape, halt, run)
		}
		return run, err
	}
	if run.CorruptNode >= 0 {
		return run, &ClusterRunError{
			Plan:           plan,
			CorruptNode:    run.CorruptNode,
			CorruptPhase:   run.CorruptPhase,
			DegradedLanes:  degradedLanes(plan),
			StragglerNodes: stragglerNodes(plan),
			Finished:       shape.Ranks(),
			Total:          shape.Ranks(),
		}
	}
	return run, nil
}

func degradedLanes(plan *fault.ClusterPlan) []int {
	if plan == nil {
		return nil
	}
	out := make([]int, 0, len(plan.LinkDegrades))
	for _, d := range plan.LinkDegrades {
		out = append(out, d.Node)
	}
	return out
}

func stragglerNodes(plan *fault.ClusterPlan) []int {
	if plan == nil {
		return nil
	}
	out := make([]int, 0, len(plan.Stragglers))
	for _, st := range plan.Stragglers {
		out = append(out, st.Node)
	}
	return out
}

// diagnoseHalt folds a structured sim halt into the cluster-level diagnosis.
func diagnoseHalt(plan *fault.ClusterPlan, shape fault.ClusterShape, halt *sim.ProgramHaltError, run ArmedRun) *ClusterRunError {
	e := &ClusterRunError{
		Plan:           plan,
		RanksPoisoned:  halt.DeadCount,
		DegradedLanes:  degradedLanes(plan),
		StragglerNodes: stragglerNodes(plan),
		CorruptNode:    run.CorruptNode,
		CorruptPhase:   run.CorruptPhase,
		HorizonHit:     halt.HorizonHit,
		HaltTick:       halt.Now,
		Finished:       halt.Finished,
		Total:          halt.Total,
		Waiting:        halt.Waiting,
	}
	if halt.Dead != nil {
		seen := map[int]bool{}
		for rank, dead := range halt.Dead {
			if dead {
				seen[rank/shape.PerNode] = true
			}
		}
		for n := range seen {
			e.DeadNodes = append(e.DeadNodes, n)
		}
		sort.Ints(e.DeadNodes)
	}
	if len(e.DeadNodes) == 0 && !halt.HorizonHit {
		// Survivors stalled without any machine dying here: the plan's
		// crashed nodes never even started (poisoned at tick 0 while parked).
		for _, c := range plan.Crashes {
			e.DeadNodes = append(e.DeadNodes, c.Node)
		}
		sort.Ints(e.DeadNodes)
	}
	return e
}
