package serve

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"yhccl/internal/topo"
)

// parseMeasureKey inverts measurer.request's key: the spec fields that
// select a measurement plus the shape and co-tenant counts.
func parseMeasureKey(t *testing.T, key string) (JobSpec, []int, []int) {
	t.Helper()
	f := strings.Split(key, "|")
	if len(f) != 7 {
		t.Fatalf("key %q: %d fields, want 7", key, len(f))
	}
	num := func(s string) int64 {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("key %q: %v", key, err)
		}
		return v
	}
	ints := func(s string) []int {
		var out []int
		for _, c := range strings.Split(s, ",") {
			out = append(out, int(num(c)))
		}
		return out
	}
	seed, err := strconv.ParseUint(f[4], 10, 64)
	if err != nil {
		t.Fatalf("key %q: %v", key, err)
	}
	perSocket := ints(f[5])
	ranks := 0
	for _, k := range perSocket {
		ranks += k
	}
	spec := JobSpec{
		Name: "remeasure", Collective: f[0], Alg: f[1], MsgBytes: num(f[2]),
		Calls: int(num(f[3])), FaultSeed: seed, Ranks: ranks,
	}
	return spec, perSocket, ints(f[6])
}

// churnedFaultStream is an overload stream carrying a fault tenant of every
// plan class through three capacity shrink/grow cycles of 8 cores.
func churnedFaultStream(t *testing.T, node *topo.Node, jobs int) ([]Arrival, []CapacityEvent) {
	arrivals, err := GenStream(StreamConfig{Seed: 9, Mix: faultTenantMix(t), Jobs: jobs,
		Rate: OverloadRate, QueueBudget: OverloadQueueBudget})
	if err != nil {
		t.Fatal(err)
	}
	drain := []int{56, 57, 58, 59, 60, 61, 62, 63}
	return arrivals, capacityCycles(arrivals[len(arrivals)-1].At, 3, drain)
}

// waitGoroutines polls until the goroutine count is back to want (a worker
// that has signalled completion may still be unwinding) or fails.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// Batched measurement changes when a measurement runs, never what it
// returns: a real-measurement stream with fault tenants and capacity
// events gives byte-identical logs and results with one worker and with
// four, every memoized measurement equals the one a fresh measurer makes
// for that key alone, and no worker outlives the run.
func TestBatchedMeasurementMatchesSerial(t *testing.T) {
	node := topo.NodeA()
	arrivals, events := churnedFaultStream(t, node, 64)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	type run struct {
		log     string
		digest  uint64
		memo    map[string]measured
		batches int
	}
	runAt := func(procs int) run {
		runtime.GOMAXPROCS(procs)
		before := runtime.NumGoroutine()
		s := NewScheduler(node, PlaceAuto)
		s.SetQueueBudget(OverloadQueueBudget)
		results, err := s.RunWithEvents(arrivals, events)
		if err != nil {
			t.Fatal(err)
		}
		waitGoroutines(t, before)
		return run{strings.Join(s.EventLog(), "\n"), scheduleDigest(s.EventLog(), results), s.ms.memo, s.ms.batches}
	}
	serial, batched := runAt(1), runAt(4)
	if serial.log != batched.log {
		t.Fatalf("event logs differ between GOMAXPROCS 1 and 4:\n--- 1 ---\n%s\n--- 4 ---\n%s", serial.log, batched.log)
	}
	if serial.digest != batched.digest {
		t.Fatalf("results differ between GOMAXPROCS 1 and 4: digest %016x vs %016x", serial.digest, batched.digest)
	}
	if len(batched.memo) <= batched.batches {
		t.Fatalf("%d measurements in %d batches: no event measured more than one key", len(batched.memo), batched.batches)
	}
	if !strings.Contains(batched.log, "capacity") || !strings.Contains(batched.log, "fault-") {
		t.Fatal("stream exercised no capacity event or fault tenant")
	}

	runtime.GOMAXPROCS(1)
	faulty := 0
	for key, want := range batched.memo {
		spec, perSocket, ext := parseMeasureKey(t, key)
		fresh := newMeasurer(node)
		r := fresh.request(spec, perSocket, ext)
		if r.key != key {
			t.Fatalf("key %q round-trips to %q", key, r.key)
		}
		fresh.prefetch([]request{r})
		got := fresh.measure(&r)
		if math.Float64bits(got.t) != math.Float64bits(want.t) || got.out != want.out {
			t.Errorf("%s: batched %v/%s, alone %v/%s", key, want.t, want.out, got.t, got.out)
		}
		if spec.FaultSeed != 0 {
			faulty++
		}
	}
	if faulty == 0 {
		t.Fatal("no fault-seeded measurement to compare")
	}
}

// BenchmarkServeLoadPoint runs one cold load point per iteration: the
// overload mix plus a fault tenant, 32 jobs at 1.5x the saturating rate,
// two capacity shrink/grow cycles, on a fresh scheduler.
func BenchmarkServeLoadPoint(b *testing.B) {
	node := topo.NodeA()
	mix := append(OverloadMix(), JobSpec{
		Name: "fault-tenant", Collective: "allreduce", MsgBytes: 64 << 10, Calls: 2, Ranks: 4,
		Placement: PlaceAuto, Weight: 0.5, FaultSeed: faultClassSeed(b, "mixed", 4), Deadline: 0.5,
	})
	arrivals, err := GenStream(StreamConfig{Seed: 1, Mix: mix, Jobs: 32,
		Rate: 1.5 * SaturatingRate, QueueBudget: OverloadQueueBudget})
	if err != nil {
		b.Fatal(err)
	}
	events := capacityCycles(arrivals[len(arrivals)-1].At, 2, []int{56, 57, 58, 59, 60, 61, 62, 63})
	measurements, batches := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewScheduler(node, PlaceAuto)
		s.SetQueueBudget(OverloadQueueBudget)
		if _, err := s.RunWithEvents(arrivals, events); err != nil {
			b.Fatal(err)
		}
		measurements += len(s.ms.memo)
		batches += s.ms.batches
	}
	b.ReportMetric(float64(measurements)/float64(b.N), "measurements/op")
	b.ReportMetric(float64(batches)/float64(b.N), "batches/op")
}
