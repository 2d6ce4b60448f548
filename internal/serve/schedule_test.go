package serve

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"yhccl/internal/fault"
	"yhccl/internal/topo"
)

var updateSchedule = flag.Bool("update-schedule", false,
	"rewrite testdata/schedule.golden from the current implementation")

// scheduleDigest folds a run's full event log and every JobResult field
// (float64s by their bits) into an FNV-64a digest.
func scheduleDigest(log []string, results []JobResult) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, line := range log {
		str(line)
	}
	for _, r := range results {
		put(uint64(r.ID))
		str(r.Class)
		put(uint64(r.Ranks))
		put(math.Float64bits(r.Arrive))
		put(math.Float64bits(r.Admit))
		put(math.Float64bits(r.Done))
		str(string(r.Outcome))
		if r.Shed {
			put(1)
		} else {
			put(0)
		}
		put(math.Float64bits(r.Deadline))
	}
	return h.Sum64()
}

// faultClassSeed returns the smallest fault seed whose generated plan for
// ranks ranks has the given class.
func faultClassSeed(t testing.TB, class string, ranks int) uint64 {
	t.Helper()
	for seed := uint64(1); seed < 10_000; seed++ {
		if fault.GenPlan(seed, ranks, 1).Class() == class {
			return seed
		}
	}
	t.Fatalf("no fault seed below 10000 draws a %s plan on %d ranks", class, ranks)
	return 0
}

// faultTenantMix is the overload mix plus one fault-seeded tenant per plan
// class (straggler, stall, bitflip, mixed), each on a different collective.
func faultTenantMix(t testing.TB) []JobSpec {
	mix := OverloadMix()
	for i, ft := range []struct{ class, coll string }{
		{"straggler", "allreduce"},
		{"stall", "reduce-scatter"},
		{"bitflip", "bcast"},
		{"mixed", "allgather"},
	} {
		mix = append(mix, JobSpec{
			Name: "fault-" + ft.class, Collective: ft.coll, MsgBytes: 64 << 10, Calls: 2,
			Ranks: 4 + 2*(i%2), Placement: PlaceAuto, Weight: 0.25,
			FaultSeed: faultClassSeed(t, ft.class, 4+2*(i%2)), Deadline: 0.5,
		})
	}
	return mix
}

// scheduleRun is one pinned stream: arrivals, capacity events and the
// queue budget, run cold through a fresh scheduler.
type scheduleRun struct {
	name     string
	arrivals []Arrival
	events   []CapacityEvent
	budget   int
}

func (sr scheduleRun) run(t testing.TB, node *topo.Node) ([]string, []JobResult) {
	t.Helper()
	s := NewScheduler(node, PlaceAuto)
	s.SetQueueBudget(sr.budget)
	results, err := s.RunWithEvents(sr.arrivals, sr.events)
	if err != nil {
		t.Fatalf("%s: %v", sr.name, err)
	}
	return s.EventLog(), results
}

// scheduleRuns are the golden streams: the overload point, the churn
// gate's configuration with its capacity events, and a fault tenant of
// every plan class under overload.
func scheduleRuns(t testing.TB, node *topo.Node) []scheduleRun {
	t.Helper()
	stream := func(cfg StreamConfig) []Arrival {
		a, err := GenStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	churn := ChurnConfig{Seed: 7, Jobs: 200, Cycles: 8, LoadMult: 1.2}.withDefaults()
	ccfg, carr, cev, err := churn.load(node)
	if err != nil {
		t.Fatal(err)
	}
	return []scheduleRun{
		{
			name: "overload",
			arrivals: stream(StreamConfig{Seed: 42, Mix: OverloadMix(), Jobs: 96,
				Rate: OverloadRate, QueueBudget: OverloadQueueBudget}),
			budget: OverloadQueueBudget,
		},
		{name: "churn", arrivals: carr, events: cev, budget: ccfg.QueueBudget},
		{
			name: "fault-classes",
			arrivals: stream(StreamConfig{Seed: 5, Mix: faultTenantMix(t), Jobs: 96,
				Rate: OverloadRate, QueueBudget: OverloadQueueBudget}),
			budget: OverloadQueueBudget,
		},
	}
}

// TestScheduleGolden pins the sim-backed schedules of the golden streams:
// per stream, the result and log-line counts and a digest over the event
// log plus every JobResult field. Regenerate (only for intentional model
// changes) with:
// go test ./internal/serve -run TestScheduleGolden -update-schedule
func TestScheduleGolden(t *testing.T) {
	node := topo.NodeA()
	var sb strings.Builder
	for _, sr := range scheduleRuns(t, node) {
		log, results := sr.run(t, node)
		fmt.Fprintf(&sb, "%s results=%d lines=%d digest=%016x\n",
			sr.name, len(results), len(log), scheduleDigest(log, results))
	}
	got := sb.String()
	path := filepath.Join("testdata", "schedule.golden")
	if *updateSchedule {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-schedule to record): %v", err)
	}
	if got != string(want) {
		t.Errorf("schedule golden mismatch:\n got\n%s want\n%s", got, want)
	}
}
