package yhccl

import (
	"fmt"

	"yhccl/internal/coll"
)

// Unified request API: every collective the library implements is reachable
// through one entry point, Exec, driven by a declarative Req. Default,
// named-algorithm, tuned and resilient dispatch of all nine collectives are
// fields of the request, not separate functions.

// Req describes one collective call declaratively: which collective, which
// algorithm (or tuned/resilient dispatch), the buffers it moves, and the
// rooted/reduction parameters where the collective needs them.
//
// Field semantics:
//
//   - Collective: "allreduce", "reduce-scatter", "reduce", "bcast",
//     "allgather", "gather", "scatter", "alltoall", "scan" (aliases
//     "reducescatter" and "broadcast" are accepted).
//   - Alg: registry algorithm name (see AlgorithmNames); "" selects the
//     collective's default ("yhccl").
//   - Tuned: dispatch through the machine's attached tuned-plan table
//     (paper collectives only); the plan picks the algorithm, so Tuned is
//     incompatible with a non-empty Alg and with Resilience.
//   - Resilience: dispatch through the fallback chain (paper collectives
//     only): the primary is Alg (or the default), and
//     Options.FallbackDepth selects the chain entry, exactly as the
//     recovery supervisor does. The implementation is instrumented so a
//     hang or crash is attributed to "collective/algorithm".
//   - Root: the root rank for reduce, bcast, gather and scatter.
//   - Op: the reduction operation for reducing collectives; the zero Op
//     defaults to Sum.
//   - Send/Recv: the buffers. Bcast operates in place on Send (Recv is
//     accepted as an alias when Send is nil); all other collectives read
//     Send and write Recv.
//   - Count: the per-rank element count n. Buffer shapes follow each
//     collective's convention (e.g. all-gather reads n elements from Send
//     and writes p*n to Recv).
type Req struct {
	Collective string
	Alg        string
	Tuned      bool
	Resilience bool
	Root       int
	Op         Op
	Options    Options
	Send       *Buffer
	Recv       *Buffer
	Count      int64
}

// paperCollective reports whether Tuned/Resilience dispatch exists for the
// collective (the five the paper evaluates).
func paperCollective(c string) bool {
	switch c {
	case "allreduce", "reduce-scatter", "reduce", "bcast", "allgather":
		return true
	}
	return false
}

// normalizeCollective folds accepted aliases onto canonical names.
func normalizeCollective(c string) string {
	switch c {
	case "reducescatter":
		return "reduce-scatter"
	case "broadcast":
		return "bcast"
	}
	return c
}

// validate checks the request's cross-field constraints and returns the
// canonicalized request.
func (q Req) validate() (Req, error) {
	q.Collective = normalizeCollective(q.Collective)
	switch q.Collective {
	case "allreduce", "reduce-scatter", "reduce", "bcast", "allgather",
		"gather", "scatter", "alltoall", "scan":
	case "":
		return q, fmt.Errorf("yhccl: Req.Collective is empty")
	default:
		return q, fmt.Errorf("yhccl: unknown collective %q", q.Collective)
	}
	if q.Count <= 0 {
		return q, fmt.Errorf("yhccl: %s: Req.Count must be positive, got %d", q.Collective, q.Count)
	}
	if q.Tuned && q.Resilience {
		return q, fmt.Errorf("yhccl: %s: Tuned and Resilience are mutually exclusive", q.Collective)
	}
	if q.Tuned && q.Alg != "" {
		return q, fmt.Errorf("yhccl: %s: Tuned dispatch picks the algorithm; Alg %q conflicts", q.Collective, q.Alg)
	}
	if (q.Tuned || q.Resilience) && !paperCollective(q.Collective) {
		mode := "Tuned"
		if q.Resilience {
			mode = "Resilience"
		}
		return q, fmt.Errorf("yhccl: %s: %s dispatch covers only the paper collectives (allreduce, reduce-scatter, reduce, bcast, allgather)", q.Collective, mode)
	}
	if q.Collective == "bcast" {
		if q.Send == nil {
			q.Send = q.Recv
		}
		if q.Send == nil {
			return q, fmt.Errorf("yhccl: bcast: Req.Send (in-place buffer) is nil")
		}
	} else {
		if q.Send == nil || q.Recv == nil {
			return q, fmt.Errorf("yhccl: %s: Req.Send and Req.Recv must both be set", q.Collective)
		}
	}
	if q.Op.Name == "" {
		q.Op = Sum
	}
	if q.Alg == "" {
		q.Alg = "yhccl"
	}
	return q, nil
}

// Exec runs one collective described by q on r's world communicator. It
// returns an error for malformed requests (unknown collective or
// algorithm, conflicting dispatch modes, missing buffers) before any data
// moves; a valid request executes exactly what a direct call of the
// resolved internal implementation would.
func Exec(r *Rank, q Req) error {
	q, err := q.validate()
	if err != nil {
		return err
	}
	c := r.World()
	sb, rb, n := q.Send, q.Recv, q.Count
	switch q.Collective {
	case "allreduce":
		if q.Tuned {
			coll.TunedAllreduce(plannerOf(r), r, c, sb, rb, n, q.Op, q.Options)
			return nil
		}
		f, err := resolveAR(q)
		if err != nil {
			return err
		}
		f(r, c, sb, rb, n, q.Op, q.Options)
	case "reduce-scatter":
		if q.Tuned {
			coll.TunedReduceScatter(plannerOf(r), r, c, sb, rb, n, q.Op, q.Options)
			return nil
		}
		f, err := resolveRS(q)
		if err != nil {
			return err
		}
		f(r, c, sb, rb, n, q.Op, q.Options)
	case "reduce":
		if q.Tuned {
			coll.TunedReduce(plannerOf(r), r, c, sb, rb, n, q.Op, q.Root, q.Options)
			return nil
		}
		f, err := resolveReduce(q)
		if err != nil {
			return err
		}
		f(r, c, sb, rb, n, q.Op, q.Root, q.Options)
	case "bcast":
		if q.Tuned {
			coll.TunedBcast(plannerOf(r), r, c, sb, n, q.Root, q.Options)
			return nil
		}
		f, err := resolveBcast(q)
		if err != nil {
			return err
		}
		f(r, c, sb, n, q.Root, q.Options)
	case "allgather":
		if q.Tuned {
			coll.TunedAllgather(plannerOf(r), r, c, sb, rb, n, q.Options)
			return nil
		}
		f, err := resolveAG(q)
		if err != nil {
			return err
		}
		f(r, c, sb, rb, n, q.Options)
	case "gather":
		f, err := coll.Lookup(coll.GatherAlgos, q.Alg)
		if err != nil {
			return err
		}
		f(r, c, sb, rb, n, q.Root, q.Options)
	case "scatter":
		f, err := coll.Lookup(coll.ScatterAlgos, q.Alg)
		if err != nil {
			return err
		}
		f(r, c, sb, rb, n, q.Root, q.Options)
	case "alltoall":
		f, err := coll.Lookup(coll.AlltoallAlgos, q.Alg)
		if err != nil {
			return err
		}
		f(r, c, sb, rb, n, q.Options)
	case "scan":
		f, err := coll.Lookup(coll.ScanAlgos, q.Alg)
		if err != nil {
			return err
		}
		f(r, c, sb, rb, n, q.Op, q.Options)
	}
	return nil
}

// resolveAR picks the all-reduce implementation for a validated request:
// resilient chain dispatch when asked, plain registry lookup otherwise
// (uninstrumented, keeping the healthy path identical to a direct call).
func resolveAR(q Req) (coll.ARFunc, error) {
	if q.Resilience {
		_, f, err := coll.ResilientAR(q.Alg, q.Options)
		return f, err
	}
	return coll.Lookup(coll.AllreduceAlgos, q.Alg)
}

func resolveRS(q Req) (coll.RSFunc, error) {
	if q.Resilience {
		_, f, err := coll.ResilientRS(q.Alg, q.Options)
		return f, err
	}
	return coll.Lookup(coll.ReduceScatterAlgos, q.Alg)
}

func resolveReduce(q Req) (coll.ReduceFunc, error) {
	if q.Resilience {
		_, f, err := coll.ResilientReduce(q.Alg, q.Options)
		return f, err
	}
	return coll.Lookup(coll.ReduceAlgos, q.Alg)
}

func resolveBcast(q Req) (coll.BcastFunc, error) {
	if q.Resilience {
		_, f, err := coll.ResilientBcast(q.Alg, q.Options)
		return f, err
	}
	return coll.Lookup(coll.BcastAlgos, q.Alg)
}

func resolveAG(q Req) (coll.AGFunc, error) {
	if q.Resilience {
		_, f, err := coll.ResilientAG(q.Alg, q.Options)
		return f, err
	}
	return coll.Lookup(coll.AllgatherAlgos, q.Alg)
}
