package sim

import (
	"math/rand"
	"testing"
)

// BenchmarkEngineYield measures the cost of one Advance that forces a
// control transfer to another proc: two procs advance in a strictly
// alternating pattern, so every operation makes the other proc the
// earliest runnable one.
func BenchmarkEngineYield(b *testing.B) {
	e := NewEngine()
	n := b.N
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Advance(2) // clocks 2, 4, 6, ...
		}
	})
	e.Spawn("b", func(p *Proc) {
		p.Advance(1) // offset to 1, then 3, 5, ...
		for i := 0; i < n; i++ {
			p.Advance(2)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineYieldFast measures the skip-yield fast path: a single
// proc advancing repeatedly never needs a handoff.
func BenchmarkEngineYieldFast(b *testing.B) {
	e := NewEngine()
	n := b.N
	e.Spawn("solo", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Advance(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineFlagWait measures a two-proc flag ping-pong: each round
// is one Set, one Wait-release and the associated control transfers.
func BenchmarkEngineFlagWait(b *testing.B) {
	e := NewEngine()
	fa, fb := NewFlag("a"), NewFlag("b")
	n := b.N
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Advance(0.001)
			p.Incr(fa)
			p.Wait(fb, uint64(i+1), 0.001)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Wait(fa, uint64(i+1), 0.001)
			p.Advance(0.001)
			p.Incr(fb)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineBarrier measures an 8-party barrier round trip.
func BenchmarkEngineBarrier(b *testing.B) {
	const parties = 8
	e := NewEngine()
	bar := NewBarrier("bench", parties)
	n := b.N
	for i := 0; i < parties; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			for j := 0; j < n; j++ {
				p.Advance(float64(i+1) * 0.001)
				p.Arrive(bar, 0.001)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineMixed measures a randomized mix of advances and flag
// synchronization across 16 procs — closer to a collective's control flow.
func BenchmarkEngineMixed(b *testing.B) {
	const procs = 16
	e := NewEngine()
	f := NewFlag("f")
	bar := NewBarrier("bar", procs)
	rng := rand.New(rand.NewSource(42))
	durs := make([]float64, 1024)
	for i := range durs {
		durs[i] = rng.Float64() * 0.01
	}
	n := b.N
	for i := 0; i < procs; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			for j := 0; j < n; j++ {
				p.Advance(durs[(i*131+j)%len(durs)])
				if i == 0 {
					p.Set(f, uint64(j+1))
				} else {
					p.Wait(f, uint64(j+1), 0.0001)
				}
				p.Arrive(bar, 0.0001)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEngineRoundRobin64 measures one Advance among 64 procs moving
// in near lockstep, as the ranks of a 64-rank memory-model machine do:
// every step is one time unit plus seeded jitter, so every Advance hands
// over to another proc and the yielder re-enters the runnable set at or
// near its back. One op is one Advance of one proc.
func BenchmarkEngineRoundRobin64(b *testing.B) {
	const procs = 64
	e := NewEngine()
	rng := rand.New(rand.NewSource(64))
	durs := make([]float64, 1024)
	for i := range durs {
		durs[i] = 1 + rng.Float64()*0.1
	}
	n := b.N/procs + 1
	for i := 0; i < procs; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			for j := 0; j < n; j++ {
				p.Advance(durs[(i*131+j)%len(durs)])
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
