package cluster

import (
	"testing"

	"yhccl/internal/plan"
	"yhccl/internal/schedule"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

// fuzzSchedule decodes bytes into a per-block reduction schedule over p <= 16
// ranks. Each tree is built by drawing operand pairs from a pool that
// starts with every rank's slice and gains each node's result, so most
// inputs decode to a valid schedule. The third return reports whether the
// input selects the two-socket node.
func fuzzSchedule(data []byte) (schedule.Schedule, int, bool) {
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		i++
		return int(data[i-1])
	}
	p := 2 + next()%15
	twoSocket := next()%2 == 1
	s := make(schedule.Schedule, p)
	for t := range s {
		pool := make([]schedule.Operand, p)
		for x := range pool {
			pool[x] = schedule.Slice(x)
		}
		take := func() schedule.Operand {
			k := next() % len(pool)
			op := pool[k]
			pool = append(pool[:k], pool[k+1:]...)
			return op
		}
		tree := make(schedule.Tree, p-1)
		for j := range tree {
			tree[j] = schedule.Node{R: next() % p, A: take(), B: take()}
			pool = append(pool, schedule.Ref(j))
		}
		s[t] = tree
	}
	return s, p, twoSocket
}

// FuzzPlanGraphEngines: a schedule that validates lowers, through
// plan.FromSchedule and CompileGraph, to a program that finishes on both
// engines with the same makespan and step count.
func FuzzPlanGraphEngines(f *testing.F) {
	f.Add([]byte{6, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		s, p, twoSocket := fuzzSchedule(data)
		if err := s.Validate(p); err != nil {
			t.Skip(err)
		}
		g, err := plan.FromSchedule(s)
		if err != nil {
			t.Skip(err)
		}
		node := topo.NodeA()
		if twoSocket {
			node.CoresPerSocket = 8 // 2 x 8 cores: ranks 8-15 sit across the socket boundary
		}
		prog, err := New(node, 1, p, IB100()).CompileGraph(g, 1024, ScheduleOptions{})
		if err != nil {
			t.Fatalf("p=%d: compile: %v", p, err)
		}
		ev, err := sim.RunProgramEvent(prog)
		if err != nil {
			t.Fatalf("p=%d: event engine: %v", p, err)
		}
		co, err := sim.RunProgramCoroutine(prog)
		if err != nil {
			t.Fatalf("p=%d: coroutine engine: %v", p, err)
		}
		if ev.Makespan != co.Makespan || ev.StepsRun != co.StepsRun {
			t.Fatalf("p=%d: event %d ticks / %d steps, coroutine %d ticks / %d steps",
				p, ev.Makespan, ev.StepsRun, co.Makespan, co.StepsRun)
		}
	})
}
