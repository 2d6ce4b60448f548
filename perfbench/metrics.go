package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// metrics with the same units (see metrics_test.go).
type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are measured with tracing off, on every workload.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"live_heap_mb", "MB", "lower"},
	{"ok_ratio", "ratio", "higher"},
}

// outcomeClasses are every resilient.Outcome, rank- and cluster-level.
var outcomeClasses = []string{
	"clean-pass", "recovered-after-retry", "recovered-by-remap", "recovered-by-shrink",
	"recovered-by-fallback", "recovered-by-recompile", "recovered-by-reroute", "recovered-by-retry",
	"recovered-by-rejoin", "degraded-pass", "degraded-pass-shrunk", "unrecoverable-but-diagnosed",
	"UNDIAGNOSED",
}

// layerMetrics are reported by the traced run (--trace 1) on every
// workload; a layer the workload does not exercise reads zero.
var layerMetrics = func() []metricDef {
	ms := []metricDef{
		{"sim.self_s", "s", "lower"},
		{"sim.events", "count", "lower"},
		{"sim.steps", "count", "lower"},
		{"sim.ns_per_event", "ns", "lower"},
		{"memmodel.self_s", "s", "lower"},
		{"mpi.run_s", "s", "lower"},
		{"mpi.new_machine_s", "s", "lower"},
		{"plan.attach_s", "s", "lower"},
		{"plan.tuned_calls", "count", "higher"},
		{"cluster.compile_s", "s", "lower"},
		{"cluster.run_s", "s", "lower"},
		{"cluster.compile_share", "ratio", "lower"},
		{"cluster.alloc_b_per_rank", "B", "lower"},
		{"fault.events_fired", "count", "higher"},
		{"resilient.supervise_s", "s", "lower"},
		{"resilient.attempts", "count", "lower"},
		{"resilient.useful_ratio", "ratio", "higher"},
		{"serve.run_s", "s", "lower"},
		{"serve.measure_share", "ratio", "lower"},
		{"serve.ns_per_job", "ns", "lower"},
		{"runtime.gc_cpu_share", "ratio", "lower"},
		{"runtime.alloc_bytes_per_op", "B", "lower"},
		{"runtime.allocs_per_op", "count", "lower"},
		{"runtime.goroutines_delta", "count", "lower"},
		{"trace.overhead", "ratio", "lower"},
		{"host.calib_ns", "ns", "lower"},
	}
	for _, l := range layers {
		ms = append(ms, metricDef{l + ".self_share", "ratio", "lower"})
	}
	for _, o := range outcomeClasses {
		ms = append(ms, metricDef{"resilient.outcomes." + o, "count", "lower"})
	}
	ms = append(ms,
		metricDef{"model.digest", "hash48", "lower"},
		metricDef{"model.memmodel.dav_bytes", "B", "lower"},
		metricDef{"model.memmodel.dram_bytes", "B", "lower"},
		metricDef{"model.memmodel.rfo_bytes", "B", "lower"},
		metricDef{"model.memmodel.nt_store_bytes", "B", "lower"},
		metricDef{"model.memmodel.cross_socket_bytes", "B", "lower"},
		metricDef{"model.memmodel.sync_count", "count", "lower"},
		metricDef{"model.coll.sim_us_geomean", "us", "lower"},
	)
	for _, c := range paperColls {
		ms = append(ms, metricDef{"model.coll." + c + ".sim_us_geomean", "us", "lower"})
	}
	ms = append(ms,
		metricDef{"model.memcopy.nt_fraction", "ratio", "higher"},
		metricDef{"model.cluster.makespan_us_geomean", "us", "lower"},
		metricDef{"model.serve.admitted", "count", "higher"},
		metricDef{"model.serve.shed_ratio", "ratio", "lower"},
		metricDef{"model.serve.job_p50_ms", "ms", "lower"},
		metricDef{"model.serve.job_p99_ms", "ms", "lower"},
		metricDef{"model.serve.wait_p99_ms", "ms", "lower"},
		metricDef{"model.serve.goodput_jps", "1/s", "higher"},
		metricDef{"model.serve.deadline_misses", "count", "lower"},
		metricDef{"model.serve.capacity_epochs", "count", "higher"},
	)
	return ms
}()

// digest hashes every modelled output of a check set in order. Two runs of
// the same code and seed must produce the same digest.
type digest struct{ h hash.Hash }

func (d *digest) hasher() hash.Hash {
	if d.h == nil {
		d.h = sha256.New()
	}
	return d.h
}

func (d *digest) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.hasher().Write(b[:])
}

func (d *digest) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d *digest) str(s string) {
	d.int(int64(len(s)))
	d.hasher().Write([]byte(s))
}

func (d *digest) sum() []byte { return d.hasher().Sum(nil) }

func (d *digest) hex() string { return hex.EncodeToString(d.sum()) }

// value48 is the digest's first 48 bits as an exactly representable number,
// for the model.digest metric.
func (d *digest) value48() float64 {
	b := d.sum()
	return float64(binary.BigEndian.Uint64(b[:8]) >> 16)
}
