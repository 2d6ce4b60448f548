package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// tracer records a span around every call the benchmark makes into a
// module's public API, and applies the same boundary as a pprof label so
// CPU samples can be split by span. Spans stay in memory and are written
// out when the run ends. An off tracer only runs the calls (and the
// attribution self-check's delay).
type tracer struct {
	on    bool
	ctx   context.Context
	epoch time.Time
	spans []span
	open  []int
	opID  int

	delayName string
	delay     time.Duration
	delayed   int // calls the delay wrapped
}

// span is one recorded call. Parent is the index of the enclosing span, -1
// for an op's root span; spans of one op share Op.
type span struct {
	Name       string
	Start, End time.Duration
	Parent     int
	Op         int
}

func newTracer(delayName string, delay time.Duration) *tracer {
	return &tracer{on: true, ctx: context.Background(), epoch: time.Now(), delayName: delayName, delay: delay}
}

// op runs one op under a root span named "op" carrying its id (-1 for
// set-up).
func (t *tracer) op(id int, f func()) {
	if !t.on {
		f()
		return
	}
	t.opID = id
	t.do("op", f)
}

// do runs f as the span name. The name's prefix before the first dot is the
// module the call enters.
func (t *tracer) do(name string, f func()) {
	if !t.on {
		t.maybeDelay(name)
		f()
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.epoch), Parent: parent, Op: t.opID})
	t.open = append(t.open, idx)
	outer := t.ctx
	pprof.Do(outer, pprof.Labels("span", name), func(ctx context.Context) {
		t.ctx = ctx
		t.maybeDelay(name)
		f()
	})
	t.ctx = outer
	t.open = t.open[:len(t.open)-1]
	t.spans[idx].End = time.Since(t.epoch)
}

// maybeDelay busy-waits for the configured delay when name is the wrapped
// span. It spins rather than sleeps so the CPU profile sees it too.
func (t *tracer) maybeDelay(name string) {
	if t.delayName == "" || name != t.delayName {
		return
	}
	t.delayed++
	for start := time.Now(); time.Since(start) < t.delay; {
	}
}

// spanLayer is the module a span name enters; root spans belong to the
// benchmark harness.
func spanLayer(name string) string {
	if mod, _, ok := strings.Cut(name, "."); ok {
		return mod
	}
	return "harness"
}

// total sums the durations of spans named name among spans[from:to].
func (t *tracer) total(name string, from, to int) float64 {
	var d time.Duration
	for _, s := range t.spans[from:to] {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return d.Seconds()
}

// selfByLayer returns each layer's span self time: a span's duration minus
// the part of it its child spans cover.
func (t *tracer) selfByLayer() map[string]float64 {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[spanLayer(s.Name)] += self[i].Seconds()
	}
	return out
}

// writeTrace writes the spans as a Chrome trace and the raw CPU profile
// under the build directory.
func writeTrace(name string, seed uint64, t *tracer, profile []byte) error {
	dir := os.Getenv("CARGO_TARGET_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.Name, Ph: "X", Ts: float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3, Pid: 1, Tid: 1,
			Args: map[string]int{"op": s.Op, "parent": s.Parent}}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{"traceEvents": events}); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.WriteFile(base+".spans.json", buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(base+".cpu.pprof", profile, 0o644)
}

// cpuProfile is a running CPU profile.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

func (p *cpuProfile) stop() ([]byte, error) {
	pprof.StopCPUProfile()
	if p.buf.Len() == 0 {
		return nil, fmt.Errorf("cpu profile is empty")
	}
	return p.buf.Bytes(), nil
}

// layerMetrics derives the per-layer metrics from the spans (spans[:setup]
// belong to the traced set-up), the folded profile, the workload's counts
// and the runtime/metrics snapshots around the traced phase.
func (rep *report) layerMetrics(t *tracer, setup int, led *ledger, counts map[string]float64, before, after runtimeStats) map[string]float64 {
	n := len(t.spans)
	m := map[string]float64{}
	for k, v := range counts {
		m[k] = v
	}
	m["mpi.new_machine_s"] = t.total("mpi.NewMachine", 0, setup)
	m["plan.attach_s"] = t.total("plan.AttachPlans", 0, setup)
	m["mpi.run_s"] = t.total("mpi.Run", setup, n)
	m["cluster.compile_s"] = t.total("cluster.Compile", setup, n)
	m["cluster.run_s"] = t.total("cluster.RunArmed", setup, n)
	if c, r := m["cluster.compile_s"], m["cluster.run_s"]; c+r > 0 {
		m["cluster.compile_share"] = c / (c + r)
	}
	m["resilient.supervise_s"] = t.total("resilient.SuperviseCluster", setup, n)
	m["serve.run_s"] = t.total("serve.RunWithEvents", setup, n)
	if jobs := counts["serve.jobs"]; jobs > 0 {
		m["serve.ns_per_job"] = 1e9 * m["serve.run_s"] / jobs
	}
	if a := counts["resilient.attempts"]; a > 0 {
		m["resilient.useful_ratio"] = counts["resilient.jobs"] / a
	}
	if r := counts["cluster.armed_ranks"]; r > 0 {
		m["cluster.alloc_b_per_rank"] = counts["cluster.alloc_bytes"] / r
	}

	for _, l := range layers {
		m[l+".self_share"] = led.share(l)
	}
	m["sim.self_s"] = led.layerNs["sim"] / 1e9
	m["memmodel.self_s"] = led.layerNs["memmodel"] / 1e9
	if ev := counts["sim.events"]; ev > 0 {
		m["sim.ns_per_event"] = led.spanLayerNs("cluster.RunArmed", "sim") / ev
	}
	if in := led.spanNs("serve.RunWithEvents"); in > 0 {
		m["serve.measure_share"] = (led.spanLayerNs("serve.RunWithEvents", "sim") +
			led.spanLayerNs("serve.RunWithEvents", "memmodel") +
			led.spanLayerNs("serve.RunWithEvents", "coll")) / in
	}

	ops := float64(rep.traced.ops())
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		m["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
	m["runtime.alloc_bytes_per_op"] = (after.allocBytes - before.allocBytes) / ops
	m["runtime.allocs_per_op"] = (after.allocObjects - before.allocObjects) / ops
	m["runtime.goroutines_delta"] = after.goroutines - before.goroutines
	m["trace.overhead"] = 1 - rep.traced.opsPerSec()/rep.timed.opsPerSec()
	m["host.calib_ns"] = rep.calibNs
	for k, v := range rep.model {
		m[k] = v
	}
	return m
}

// prediction is one per-module split the benchmark's design predicted.
type prediction struct {
	workload string
	claim    string
	measured func(rep *report) float64
	holds    func(v float64) bool
}

var predictions = []prediction{
	{"shm_sweep", "sim+memmodel >= 80% of CPU",
		func(rep *report) float64 { return rep.ledger.share("sim") + rep.ledger.share("memmodel") },
		func(v float64) bool { return v >= 0.80 }},
	{"cluster_chaos", "sim event calendar (EventEngine, eventHeap) >= 50% of CPU",
		func(rep *report) float64 { return rep.ledger.calendarShare() },
		func(v float64) bool { return v >= 0.50 }},
	{"serve_churn", "serve self time < 25% of CPU",
		func(rep *report) float64 { return rep.ledger.share("serve") },
		func(v float64) bool { return v < 0.25 }},
	{"serve_churn", "measurement (sim+memmodel+coll inside RunWithEvents) > 60%",
		func(rep *report) float64 { return rep.layers["serve.measure_share"] },
		func(v float64) bool { return v > 0.60 }},
}

// unmeasurable names per-layer metrics a workload reports as zero because
// they cannot be seen from outside the program, with the reason.
var unmeasurable = map[string]map[string]string{
	"serve_churn": {
		"resilient.attempts":     "the scheduler runs the rank-level supervisor inside its memoized measurement and exposes only each job's outcome",
		"resilient.useful_ratio": "needs resilient.attempts",
		"resilient.supervise_s":  "the supervisor is called inside serve.RunWithEvents, not from the benchmark",
	},
	"shm_sweep": {
		"sim.events": "mpi.Machine.Run does not return the engine's counters; sim.ns_per_event is a cluster_chaos metric",
		"sim.steps":  "mpi.Machine.Run does not return the engine's counters",
	},
}

// printLedger writes the traced phase: spans by layer, the folded profile,
// the predictions and the per-layer metrics.
func (rep *report) printLedger(w io.Writer) {
	ph, led := rep.traced, rep.ledger
	fmt.Fprintf(w, "traced phase: %d ops in %d passes, %.2f s in ops, %.0f ms CPU profiled (+%.0f ms in checks, left out), trace.overhead=%.4f\n",
		ph.ops(), ph.passes, sum(ph.times), led.total/1e6, led.checkNs/1e6, rep.layers["trace.overhead"])
	fmt.Fprintf(w, "  spans written: %d (self time by layer:", len(rep.spans.spans))
	self := rep.spans.selfByLayer()
	for _, k := range sortedKeys(self) {
		fmt.Fprintf(w, " %s=%.3fs", k, self[k])
	}
	fmt.Fprintln(w, ")")
	fmt.Fprintln(w, "  cpu by module (innermost repo frame; benchmark frames count for the enclosing span's module):")
	for _, k := range sortedKeys(led.moduleNs) {
		fmt.Fprintf(w, "    %-10s %6.2f%%  %8.3f s\n", k, 100*led.moduleNs[k]/led.total, led.moduleNs[k]/1e9)
	}
	fmt.Fprintln(w, "  hottest functions:")
	for _, f := range led.top(8) {
		fmt.Fprintf(w, "    %6.2f%%  %s\n", 100*led.funcNs[f]/led.total, f)
	}
	for _, p := range predictions {
		if p.workload != rep.name {
			continue
		}
		v := p.measured(rep)
		verdict := "met"
		if !p.holds(v) {
			verdict = "MISSED"
		}
		fmt.Fprintf(w, "  prediction: %s: measured %.1f%% — %s\n", p.claim, 100*v, verdict)
	}
	for _, k := range sortedKeys(unmeasurable[rep.name]) {
		fmt.Fprintf(w, "  not measurable here: %s: %s\n", k, unmeasurable[rep.name][k])
	}
	fmt.Fprintln(w, "per-layer metrics:")
	pl := rep.perLayer()
	for _, lm := range layerMetrics {
		fmt.Fprintf(w, "  %-44s %.6g %s\n", lm.name, pl[lm.name].Value, lm.unit)
	}
}
