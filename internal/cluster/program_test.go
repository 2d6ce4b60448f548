package cluster

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

var updateParity = flag.Bool("update-parity", false,
	"rewrite testdata/parity.golden from the current implementation")

// TestEngineParity is the gate: tick-identical makespans on every config of
// the shared matrix, plus event-engine rerun determinism. The per-case
// makespans and event counts are also pinned in testdata/parity.golden, so
// a refactor of the compiler cannot change a schedule's timing unnoticed
// even when both engines still agree. Regenerate (only for intentional
// model changes) with: go test ./internal/cluster -run TestEngineParity -update-parity
func TestEngineParity(t *testing.T) {
	results, err := VerifyParity(ParityCases())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("empty parity matrix")
	}
	var sb strings.Builder
	for _, r := range results {
		// A lone rank (1x1 world) legitimately finishes at tick 0; everything
		// else must take time.
		if r.Makespan < 0 || (r.Makespan == 0 && !strings.Contains(r.Name, "/1x1/")) {
			t.Fatalf("%s: bad makespan %d", r.Name, r.Makespan)
		}
		fmt.Fprintf(&sb, "%s makespan=%d events=%d\n", r.Name, r.Makespan, r.Events)
	}
	got := sb.String()
	path := filepath.Join("testdata", "parity.golden")
	if *updateParity {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-parity to record): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("parity golden line %d:\n got  %q\n want %q", i+1, g, w)
			}
		}
	}
}

// TestScheduledTimeEngines: the engine switch changes the substrate, not
// the answer.
func TestScheduledTimeEngines(t *testing.T) {
	c := New(topo.NodeA(), 4, 8, IB100())
	opts := ScheduleOptions{Intra: IntraMA}
	if c.Engine() != sim.EngineCoroutine {
		t.Fatalf("default engine %v, want coroutine", c.Engine())
	}
	tCo, err := c.ScheduledTime(CollAllreduce, YHCCLHierarchical, 65536, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.SetEngine(sim.EngineEvent)
	tEv, err := c.ScheduledTime(CollAllreduce, YHCCLHierarchical, 65536, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tCo != tEv {
		t.Fatalf("engines disagree: coroutine %v s vs event %v s", tCo, tEv)
	}
	if tEv <= 0 {
		t.Fatalf("non-positive scheduled time %v", tEv)
	}
}

// TestScheduledVsAnalyticSanity: the compiled schedule and the analytic
// model are different formulations of the same machine; demand agreement
// within a loose factor, not equality.
func TestScheduledVsAnalyticSanity(t *testing.T) {
	c := New(topo.NodeA(), 16, 64, IB100())
	c.SetEngine(sim.EngineEvent)
	const n = 1 << 20 // 8 MB
	for _, alg := range []Algorithm{YHCCLHierarchical, LeaderRing, LeaderTree} {
		sched, err := c.ScheduledTime(CollAllreduce, alg, n, ScheduleOptions{})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		analytic, err := c.AllreduceTime(alg, n)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if ratio := sched / analytic; ratio < 0.2 || ratio > 5 {
			t.Fatalf("%s: scheduled %.3gs vs analytic %.3gs (ratio %.2f) — models diverged",
				alg, sched, analytic, ratio)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	c := New(topo.NodeA(), 2, 8, IB100())
	if _, err := c.CompileAllreduce("martian", 1024, ScheduleOptions{}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if _, err := c.CompileAllreduce(YHCCLHierarchical, 0, ScheduleOptions{}); err == nil {
		t.Fatal("empty message accepted")
	}
	// 8 ranks block-bound to NodeA all land on socket 0: socket intra invalid.
	if _, err := c.CompileAllreduce(YHCCLHierarchical, 1024, ScheduleOptions{Intra: IntraSocket}); err == nil {
		t.Fatal("uneven socket binding accepted")
	}
	if _, err := c.CompileAllreduce(YHCCLHierarchical, 1024, ScheduleOptions{Intra: IntraRG}); err == nil {
		t.Fatal("leader intra accepted for yhccl")
	}
	if _, err := c.Compile("scan", YHCCLHierarchical, 1024, ScheduleOptions{}); err == nil {
		t.Fatal("unknown collective accepted")
	}
}

// TestRingCoarsening: folding ring hops into macro steps preserves the
// makespan exactly when hop durations are uniform (they are, per lane).
func TestRingCoarsening(t *testing.T) {
	c := New(topo.NodeA(), 32, 8, IB100())
	c.SetEngine(sim.EngineEvent)
	exact, err := c.ScheduledTime(CollAllreduce, YHCCLHierarchical, 65536, ScheduleOptions{Intra: IntraMA})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := c.ScheduledTime(CollAllreduce, YHCCLHierarchical, 65536, ScheduleOptions{Intra: IntraMA, RingSteps: 7})
	if err != nil {
		t.Fatal(err)
	}
	if exact != coarse {
		t.Fatalf("coarsening changed the makespan: exact %v s vs coarse %v s", exact, coarse)
	}
}

// TestDegenerateShapes: single-node and single-rank worlds compile and run.
func TestDegenerateShapes(t *testing.T) {
	for _, alg := range Algorithms() {
		for _, shape := range []struct{ nodes, per int }{{1, 1}, {1, 4}, {2, 1}} {
			c := New(topo.NodeA(), shape.nodes, shape.per, IB100())
			c.SetEngine(sim.EngineEvent)
			for _, coll := range []string{CollAllreduce, CollBcast, CollAllgather} {
				sec, err := c.ScheduledTime(coll, alg, 4096, ScheduleOptions{Intra: IntraAuto})
				if err != nil {
					t.Fatalf("%s/%s %dx%d: %v", coll, alg, shape.nodes, shape.per, err)
				}
				if sec < 0 {
					t.Fatalf("%s/%s %dx%d: negative time", coll, alg, shape.nodes, shape.per)
				}
				if shape.nodes == 1 && shape.per == 1 && sec != 0 {
					t.Fatalf("%s/%s 1x1: lone rank took %v s, want 0", coll, alg, sec)
				}
			}
		}
	}
}

// TestProgramEvents: the event estimate matches what the engine dispatches.
func TestProgramEvents(t *testing.T) {
	c := New(topo.NodeA(), 8, 16, IB100())
	prog, err := c.CompileAllreduce(YHCCLHierarchical, 65536, ScheduleOptions{Intra: IntraMA})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunProgramEvent(prog)
	if err != nil {
		t.Fatal(err)
	}
	if want := ProgramEvents(prog); res.Events != want {
		t.Fatalf("dispatched %d events, estimate %d", res.Events, want)
	}
}

// TestClusterScaleSmoke: a 65536-rank hierarchical world and a 262144-rank
// leader-tree world run on the event engine without growing the goroutine
// count — the flat-memory claim, asserted.
func TestClusterScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scale smoke skipped in -short")
	}
	before := runtime.NumGoroutine()

	c := New(topo.NodeA(), 1024, 64, IB100())
	c.SetEngine(sim.EngineEvent)
	sec, err := c.ScheduledTime(CollAllreduce, YHCCLHierarchical, 1<<23, ScheduleOptions{RingSteps: 128})
	if err != nil {
		t.Fatal(err)
	}
	if sec <= 0 {
		t.Fatal("non-positive makespan at 65536 ranks")
	}

	big := New(topo.NodeA(), 4096, 64, IB100())
	big.SetEngine(sim.EngineEvent)
	sec2, err := big.ScheduledTime(CollAllreduce, LeaderTree, 1<<23, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sec2 <= 0 {
		t.Fatal("non-positive makespan at 262144 ranks")
	}

	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines grew %d -> %d during event-engine scale runs", before, after)
	}
}

// TestParityCaseNames: names are unique (simbench keys on them).
func TestParityCaseNames(t *testing.T) {
	seen := map[string]bool{}
	for _, pc := range ParityCases() {
		if seen[pc.Name] {
			t.Fatalf("duplicate parity case %q", pc.Name)
		}
		seen[pc.Name] = true
		if strings.ContainsAny(pc.Name, " \t") {
			t.Fatalf("parity case name %q contains whitespace", pc.Name)
		}
	}
}

// TestRankDiv: the multiply-high split equals / and % across divisors,
// small ranks, both sides of every nearby multiple, and the top of the
// int32 rank space.
func TestRankDiv(t *testing.T) {
	pers := []int{255, 256, 1000, 4096, 65535, 1 << 20, math.MaxInt32}
	for per := 1; per <= 130; per++ {
		pers = append(pers, per)
	}
	for _, per := range pers {
		d := newRankDiv(per)
		check := func(rank int) {
			if rank < 0 || rank > math.MaxInt32 {
				return
			}
			node, local := d.split(rank)
			if node != rank/per || local != rank%per {
				t.Fatalf("per %d rank %d: split (%d, %d), want (%d, %d)", per, rank, node, local, rank/per, rank%per)
			}
		}
		for rank := 0; rank < 2048; rank++ {
			check(rank)
		}
		for k := math.MaxInt32 / per; k > 0 && k > math.MaxInt32/per-64; k-- {
			for _, off := range []int{-1, 0, 1} {
				check(k*per + off)
			}
		}
		check(math.MaxInt32)
	}
}
