package main

import "math"

// rng is a splitmix64 stream. Every input the benchmark generates comes
// from one, keyed by the workload seed and a purpose, so the same seed
// always gives the same inputs.
type rng struct{ s uint64 }

// newRNG derives an independent stream for (seed, keys...).
func newRNG(seed uint64, keys ...uint64) *rng {
	r := &rng{s: seed}
	for _, k := range keys {
		r.s ^= k * 0xbf58476d1ce4e5b9
		r.next()
	}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float is uniform in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// stratum draws from the s-th of n equal slices of [lo, hi) on a log scale,
// so n strata cover the range evenly whatever the seed.
func (r *rng) stratum(s, n int, lo, hi float64) float64 {
	u := (float64(s) + r.float()) / float64(n)
	return lo * math.Pow(hi/lo, u)
}

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// perm is a seeded permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
