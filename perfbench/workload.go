package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// op is one closed-loop request. prepare, when non-nil, writes its inputs
// and run executes it; only run is timed. verify, when non-nil, checks the
// outputs afterwards, outside the timed region.
type op struct {
	prepare func()
	run     func(tr *tracer) (verify func() error, err error)
}

// workload is one seeded benchmark workload. Its methods run on one
// goroutine, one op at a time.
type workload interface {
	// setup generates the inputs from the seed and builds the long-lived
	// state the ops run against, including a warm-up of lazy set-up.
	setup(tr *tracer) error
	// pass returns the ops of pass p in run order. Every pass is a fresh
	// seeded draw of the workload's stratified design, so whole passes
	// carry the same mix of work.
	pass(p int) []op
	// model runs the workload's fixed check set on fresh state, writes every
	// modelled output into d, and returns the model.* metrics. deep adds the
	// checks too slow to repeat (engine parity).
	model(tr *tracer, d *digest, deep bool) (map[string]float64, error)
	// takeCounts returns the per-layer counts accumulated since the last
	// call, and resets them.
	takeCounts() map[string]float64
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed   uint64
	timed  time.Duration
	trace  bool
	setups int // set-ups per run; setup_s is their median

	// delayName/delay wrap every span of that name in a benchmark-side
	// busy delay (the attribution self-check).
	delayName string
	delay     time.Duration
}

// phase is one timed loop over whole passes.
type phase struct {
	times    []float64 // host seconds per op
	passes   int
	wall     float64
	failed   int
	failures []string
}

func (ph *phase) ops() int { return len(ph.times) }

func (ph *phase) opsPerSec() float64 { return float64(len(ph.times)) / sum(ph.times) }

// runPhase runs whole passes of w until d has elapsed. Each op is timed on
// its own; checks run between ops with the clock stopped.
func runPhase(w workload, tr *tracer, d time.Duration) *phase {
	ph := &phase{}
	start := time.Now()
	for p := 0; time.Since(start) < d; p++ {
		for _, o := range w.pass(p) {
			if o.prepare != nil {
				tr.do("check", o.prepare)
			}
			var verify func() error
			var err error
			t0 := time.Now()
			tr.op(len(ph.times), func() { verify, err = o.run(tr) })
			ph.times = append(ph.times, time.Since(t0).Seconds())
			if err == nil && verify != nil {
				tr.do("check", func() { err = verify() })
			}
			if err != nil {
				ph.fail(fmt.Sprintf("op %d (pass %d): %v", len(ph.times)-1, p, err))
			}
		}
		ph.passes++
	}
	ph.wall = time.Since(start).Seconds()
	return ph
}

func (ph *phase) fail(msg string) {
	ph.failed++
	if len(ph.failures) < 5 {
		ph.failures = append(ph.failures, msg)
	}
}

// report is everything one workload run measured.
type report struct {
	name      string
	setups    []float64
	timed     *phase
	liveHeap  float64 // bytes
	calibNs   float64
	model     map[string]float64
	digest    string
	attempted int
	failed    int
	failures  []string
	delayed   int // calls the attribution self-check's delay wrapped

	traced *phase
	layers map[string]float64
	ledger *ledger
	spans  *tracer
}

// runWorkload runs one workload: calibration, repeated set-up, the timed
// phase, the footprint, the determinism-checked model outputs and, when
// tracing, the traced phase and the ledger.
func runWorkload(name string, fresh func() workload, cfg runConfig) (*report, error) {
	rep := &report{name: name, calibNs: calibrate()}
	off := &tracer{delayName: cfg.delayName, delay: cfg.delay}

	var w workload
	for i := 0; i < max(cfg.setups, 1); i++ {
		w = nil
		runtime.GC()
		t0 := time.Now()
		w = fresh()
		if err := w.setup(off); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
	}

	rep.timed = runPhase(w, off, cfg.timed)
	rep.liveHeap = liveHeapBytes()
	runtime.KeepAlive(w)
	rep.attempted, rep.failed = rep.timed.ops(), rep.timed.failed
	rep.failures = append(rep.failures, rep.timed.failures...)
	w = nil

	// The modelled outputs come from a fixed check set on fresh state, run
	// twice: the digests must match, or the simulator is not deterministic.
	var d1, d2 digest
	m1, err1 := fresh().model(off, &d1, true)
	_, err2 := fresh().model(off, &d2, false)
	rep.attempted += 2
	for _, err := range []error{err1, err2} {
		if err != nil {
			rep.failed++
			rep.failures = append(rep.failures, "check set: "+err.Error())
		}
	}
	if m1 == nil {
		m1 = map[string]float64{}
	}
	m1["model.digest"] = d1.value48()
	rep.model, rep.digest = m1, d1.hex()
	if d1.hex() != d2.hex() {
		rep.failed++
		rep.failures = append(rep.failures, fmt.Sprintf("check set: digest %s on the first run, %s on the second", d1.hex(), d2.hex()))
	}

	rep.delayed = off.delayed
	if cfg.trace {
		if err := rep.runTraced(fresh, cfg); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runTraced repeats set-up and the timed phase with spans, pprof labels and
// a CPU profile, then folds the profile into the per-module ledger.
func (rep *report) runTraced(fresh func() workload, cfg runConfig) error {
	tr := newTracer(cfg.delayName, cfg.delay)
	w := fresh()
	var err error
	tr.op(-1, func() { err = w.setup(tr) })
	if err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	setupSpans := len(tr.spans)
	w.takeCounts()

	prof, err := startProfile()
	if err != nil {
		return err
	}
	before := readRuntime()
	rep.traced = runPhase(w, tr, cfg.timed)
	after := readRuntime()
	raw, err := prof.stop()
	if err != nil {
		return err
	}
	counts := w.takeCounts()
	runtime.KeepAlive(w)
	rep.attempted += rep.traced.ops()
	rep.failed += rep.traced.failed
	rep.failures = append(rep.failures, rep.traced.failures...)

	led, err := foldProfile(raw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	rep.ledger, rep.spans = led, tr
	rep.delayed += tr.delayed
	rep.layers = rep.layerMetrics(tr, setupSpans, led, counts, before, after)
	return writeTrace(rep.name, cfg.seed, tr, raw)
}

// liveHeapBytes is the live heap after forced collections (two, so that
// sync.Pool caches are dropped too).
func liveHeapBytes() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// runtimeStats is a runtime/metrics snapshot around the traced phase.
type runtimeStats struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU          float64
	goroutines               float64
}

func readRuntime() runtimeStats {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/sched/goroutines:goroutines"},
	}
	metrics.Read(s)
	return runtimeStats{
		allocBytes:   float64(s[0].Value.Uint64()),
		allocObjects: float64(s[1].Value.Uint64()),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
		goroutines:   float64(s[4].Value.Uint64()),
	}
}

// tail returns the highest percentile with at least ten samples beyond it:
// its value, the percentile, and how many samples lie above it. With ten or
// fewer samples it is the maximum.
func tail(xs []float64) (v, pct float64, beyond int) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) - 11
	if k < 0 {
		k = len(s) - 1
	}
	return s[k], 100 * float64(k+1) / float64(len(s)), len(s) - 1 - k
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank q-th percentile (0 < q <= 100).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(q/100*float64(len(s)))) - 1
	return s[min(max(k, 0), len(s)-1)]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(xs)))
}

// endToEnd returns the untraced metrics a user of the simulator sees.
func (rep *report) endToEnd() map[string]metric {
	tv, _, _ := tail(rep.timed.times)
	values := map[string]float64{
		"setup_s":      median(rep.setups),
		"ops_per_s":    rep.timed.opsPerSec(),
		"op_p50_ms":    1e3 * median(rep.timed.times),
		"op_tail_ms":   1e3 * tv,
		"live_heap_mb": rep.liveHeap / (1 << 20),
		"ok_ratio":     1 - float64(rep.failed)/float64(rep.attempted),
	}
	out := make(map[string]metric, len(endToEndMetrics))
	for _, m := range endToEndMetrics {
		out[m.name] = metric{values[m.name], m.unit}
	}
	return out
}

// perLayer returns every per-layer metric, zero where the workload does
// not exercise the layer.
func (rep *report) perLayer() map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		v, ok := rep.layers[lm.name]
		if !ok {
			v = rep.model[lm.name]
		}
		out[lm.name] = metric{v, lm.unit}
	}
	return out
}

// print writes the human-readable report.
func (rep *report) print(w io.Writer, cfg runConfig) {
	fmt.Fprintf(w, "\n== %s  seed=%d  host.calib_ns=%.4f\n", rep.name, cfg.seed, rep.calibNs)
	ph := rep.timed
	fmt.Fprintf(w, "timed phase: %d ops in %d passes, %.2f s wall, %.2f s in ops\n", ph.ops(), ph.passes, ph.wall, sum(ph.times))
	e := rep.endToEnd()
	tv, pct, beyond := tail(ph.times)
	fmt.Fprintf(w, "  %-13s %12.4f s    (median of %d set-ups: %s)\n", "setup_s", e["setup_s"].Value, len(rep.setups), fmtList(rep.setups))
	fmt.Fprintf(w, "  %-13s %12.4f 1/s\n", "ops_per_s", e["ops_per_s"].Value)
	fmt.Fprintf(w, "  %-13s %12.4f ms\n", "op_p50_ms", e["op_p50_ms"].Value)
	fmt.Fprintf(w, "  %-13s %12.4f ms   (p%.2f, n=%d, %d beyond)\n", "op_tail_ms", 1e3*tv, pct, ph.ops(), beyond)
	fmt.Fprintf(w, "  %-13s %12.4f MB\n", "live_heap_mb", e["live_heap_mb"].Value)
	fmt.Fprintf(w, "  %-13s %12.4f      (%d failed of %d attempted; reported as ok_ratio=%.4f)\n",
		"fail_ratio", float64(rep.failed)/float64(rep.attempted), rep.failed, rep.attempted, e["ok_ratio"].Value)
	for _, f := range rep.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	fmt.Fprintf(w, "model outputs (fixed check set, run twice): digest %s\n", rep.digest)
	for _, k := range sortedKeys(rep.model) {
		fmt.Fprintf(w, "  %-44s %.10g\n", k, rep.model[k])
	}
	if rep.traced != nil {
		rep.printLedger(w)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}
