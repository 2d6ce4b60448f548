package coll

import (
	"fmt"

	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
)

// Resilient dispatch: every collective has a fallback chain — the primary
// algorithm followed by progressively more conservative variants — walked by
// the recovery supervisor when the primary keeps failing under faults. The
// fallbacks favor tree/two-level shapes over rings: a ring couples every
// rank to its neighbor at every step, so one straggler stretches all p
// pipeline stages, while a two-level or binomial shape pays the slow rank's
// cost once, in a single leaf contribution.

// fallbacks lists the straggler-tolerant tail of each collective's chain,
// most preferred first. Every entry must exist in the matching registry
// (checked by tests).
var fallbacks = map[string][]string{
	"allreduce":      {"two-level", "ring"},
	"reduce-scatter": {"ring"},
	"reduce":         {"two-level"},
	"bcast":          {"binomial"},
	"allgather":      {"ring"},
}

// FallbackChain returns the algorithm sequence resilient dispatch walks for
// the collective: the primary first, then the registered fallbacks with any
// duplicate of the primary removed. Unknown collectives get a chain of just
// the primary.
func FallbackChain(collective, primary string) []string {
	chain := []string{primary}
	for _, name := range fallbacks[collective] {
		if name != primary {
			chain = append(chain, name)
		}
	}
	return chain
}

// MaxFallbackDepth returns the largest meaningful Options.FallbackDepth for
// the collective/primary pair (0 when there is nothing to fall back to).
func MaxFallbackDepth(collective, primary string) int {
	return len(FallbackChain(collective, primary)) - 1
}

// PaperCollective reports whether the collective is one of the five the
// paper evaluates — exactly those with a fallback chain, tuned plans and a
// validated body.
func PaperCollective(collective string) bool {
	_, ok := fallbacks[collective]
	return ok
}

// resilient resolves the algorithm at depth along primary's fallback chain
// (past-end depths clamp to the last, most conservative one) and returns
// its name and a Call that tags the rank with "collective/name" (SetOp)
// before running it, so a hang or crash is attributed to the algorithm.
func resilient(collective, primary string, depth int) (string, Call, error) {
	chain := FallbackChain(collective, primary)
	name := chain[min(max(depth, 0), len(chain)-1)]
	f, err := Bind(collective, name)
	if err != nil {
		return name, nil, fmt.Errorf("resilient %s: %w", collective, err)
	}
	tag := collective + "/" + name
	return name, func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, root int, o Options) {
		r.SetOp(tag)
		f(r, c, sb, rb, n, op, root, o)
	}, nil
}

// BindResilient binds the collective at depth along primary's fallback
// chain, instrumented for attribution. Depth 0 is the primary itself, so a
// clean run dispatches exactly what Bind would.
func BindResilient(collective, primary string, depth int) (Call, error) {
	_, f, err := resilient(collective, primary, depth)
	return f, err
}

// SumBasesSalted is SumBases offset by a retry salt: attempt k fills rank
// r's buffer with base r*1000 + k*17. Salt 0 is exactly SumBases, keeping
// the clean path bit-identical; a non-zero salt gives each retry a fresh
// fill pattern, so a validation pass on the retried run cannot be satisfied
// by data left over from the corrupted attempt. All values stay small
// integers, preserving the exact-float64 property of the validators.
func SumBasesSalted(p, salt int) []float64 {
	bases := make([]float64, p)
	for i := range bases {
		bases[i] = float64(i*1000 + salt*17)
	}
	return bases
}
