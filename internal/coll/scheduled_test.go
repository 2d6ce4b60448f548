package coll

import (
	"math/rand"
	"testing"

	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/plan"
	"yhccl/internal/schedule"
)

// Schedule trees (the paper's §3.1 formalism) execute through the one
// dataflow executor: plan.FromSchedule lowers them, ReduceScatterGraph runs
// them.

// runScheduled lowers a schedule and executes it on real data through
// runRSGraph, which verifies reduce-scatter semantics.
func runScheduled(t *testing.T, p int, n int64, sched schedule.Schedule, o Options) *mpi.Machine {
	t.Helper()
	g, err := plan.FromSchedule(sched)
	if err != nil {
		t.Fatal(err)
	}
	return runRSGraph(t, p, n, g, o)
}

func TestScheduledExecutorRunsMASchedule(t *testing.T) {
	for _, p := range []int{2, 3, 4, 8} {
		runScheduled(t, p, 600, schedule.MA(p), Options{})
	}
}

func TestScheduledExecutorRunsDPMLSchedule(t *testing.T) {
	for _, p := range []int{2, 4, 6} {
		runScheduled(t, p, 600, schedule.DPML(p), Options{})
	}
}

func TestScheduledExecutorMultiChunk(t *testing.T) {
	// Force several chunks through a small slice.
	runScheduled(t, 4, 2000, schedule.MA(4), Options{SliceMaxBytes: 1024})
}

func TestScheduledExecutorRejectsInvalid(t *testing.T) {
	p := 4
	bad := schedule.MA(p)[:p-1] // wrong tree count
	if _, err := plan.FromSchedule(bad); err == nil {
		t.Error("invalid schedule accepted")
	}
}

func TestScheduledMACopyVolumeOptimal(t *testing.T) {
	// Executing the MA schedule through the generic executor must still
	// hit the 2s copy-volume optimum.
	p := 8
	n := int64(1024)
	m := runScheduled(t, p, n, schedule.MA(p), Options{})
	s := int64(p) * n * memmodel.ElemSize
	if got := m.Model.Counters().CopyVolume; got != 2*s {
		t.Errorf("copy volume = %d, want %d (2s)", got, 2*s)
	}
}

// randomSchedule builds a valid random schedule by the same recursive
// construction the exhaustive search uses.
func randomSchedule(rng *rand.Rand, p int) schedule.Schedule {
	s := make(schedule.Schedule, p)
	for i := 0; i < p; i++ {
		var tree schedule.Tree
		var pool []schedule.Operand
		for x := 0; x < p; x++ {
			pool = append(pool, schedule.Slice(x))
		}
		for j := 0; j < p-1; j++ {
			ai := rng.Intn(len(pool))
			a := pool[ai]
			pool = append(pool[:ai], pool[ai+1:]...)
			bi := rng.Intn(len(pool))
			b := pool[bi]
			pool = append(pool[:bi], pool[bi+1:]...)
			tree = append(tree, schedule.Node{R: rng.Intn(p), A: a, B: b})
			pool = append(pool, schedule.Ref(j))
		}
		// The final ref (root) is implicitly the result; drop it from pool
		// bookkeeping — Validate only requires non-root refs consumed.
		s[i] = tree
	}
	return s
}

func TestScheduledExecutorRandomSchedules(t *testing.T) {
	// Property: any valid schedule produces correct reduce-scatter results
	// through the generic engine.
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(5)
		sched := randomSchedule(rng, p)
		if err := sched.Validate(p); err != nil {
			t.Fatalf("seed %d: generator produced invalid schedule: %v", seed, err)
		}
		runScheduled(t, p, 300, sched, Options{})
	}
}
