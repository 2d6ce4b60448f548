package main

import (
	"testing"
	"time"
)

// TestAttribution wraps every cluster.RunArmed call in a fixed
// benchmark-side delay. The delay must slow cluster_chaos and no other
// workload, and the traced run must put it in the cluster layer, both in
// the span times and in the folded CPU profile.
func TestAttribution(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	const delay = 50 * time.Millisecond
	plain := runConfig{seed: 1, timed: time.Second, setups: 1}
	slowed := plain
	slowed.delayName, slowed.delay = "cluster.RunArmed", delay

	for _, name := range workloadNames {
		fresh := func() workload { w, _ := newWorkload(name, 1); return w }
		a, err := runWorkload(name, fresh, plain)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runWorkload(name, fresh, slowed)
		if err != nil {
			t.Fatal(err)
		}
		if a.failed+b.failed > 0 {
			t.Fatalf("%s: failures: %v %v", name, a.failures, b.failures)
		}
		ratio := b.timed.opsPerSec() / a.timed.opsPerSec()
		t.Logf("%s: ops_per_s %.3f -> %.3f (x%.3f), %d delayed calls", name, a.timed.opsPerSec(), b.timed.opsPerSec(), ratio, b.delayed)
		if name == "cluster_chaos" {
			if b.delayed == 0 || ratio > 0.85 {
				t.Errorf("%s: the delay on %d calls moved ops_per_s only x%.3f", name, b.delayed, ratio)
			}
			continue
		}
		if b.delayed != 0 {
			t.Errorf("%s: the delay wrapped %d calls; the workload must not call cluster.RunArmed", name, b.delayed)
		}
		if ratio < 0.67 || ratio > 1.5 {
			t.Errorf("%s: ops_per_s moved x%.3f without the delay firing", name, ratio)
		}
	}

	slowed.trace = true
	fresh := func() workload { return newClusterChaos(1) }
	rep, err := runWorkload("cluster_chaos", fresh, slowed)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, s := range rep.spans.spans {
		if s.Name == "cluster.RunArmed" && s.Op >= 0 {
			calls++
		}
	}
	injected := float64(calls) * delay.Seconds()
	if got := rep.layers["cluster.run_s"]; got < injected {
		t.Errorf("cluster.run_s = %.3f s, below the %.3f s injected into %d calls", got, injected, calls)
	}
	if got := rep.ledger.layerNs["cluster"] / 1e9; got < 0.8*injected {
		t.Errorf("the profile puts %.3f s in cluster, less than 80%% of the %.3f s injected", got, injected)
	}
	if h := rep.ledger.share("harness"); h > 0.05 {
		t.Errorf("the profile leaves %.1f%% in the harness; the delay should count for cluster", 100*h)
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, pct, beyond := tail(xs)
	if v != 90 || pct != 90 || beyond != 10 {
		t.Errorf("tail of 1..100 = %v (p%v, %d beyond), want 90 (p90, 10 beyond)", v, pct, beyond)
	}
	if v, _, beyond := tail(xs[:5]); v != 5 || beyond != 0 {
		t.Errorf("tail of 1..5 = %v with %d beyond, want the maximum", v, beyond)
	}
}
