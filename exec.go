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
	if (q.Tuned || q.Resilience) && !coll.PaperCollective(q.Collective) {
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
// validates the request — unknown collective or algorithm, conflicting
// dispatch modes, missing buffers are errors before any data moves — and
// hands it to the collective binder (internal/coll): a valid request
// executes exactly what a direct call of the resolved implementation
// would.
func Exec(r *Rank, q Req) error {
	q, err := q.validate()
	if err != nil {
		return err
	}
	var f coll.Call
	switch {
	case q.Tuned:
		f, err = coll.BindTuned(plannerOf(r), q.Collective)
	case q.Resilience:
		f, err = coll.BindResilient(q.Collective, q.Alg, q.Options.FallbackDepth)
	default:
		f, err = coll.Bind(q.Collective, q.Alg)
	}
	if err != nil {
		return err
	}
	f(r, r.World(), q.Send, q.Recv, q.Count, q.Op, q.Root, q.Options)
	return nil
}
