package coll

import (
	"fmt"

	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
)

// One call form for every collective: the typed registries keep each
// algorithm's natural signature, and the binder lifts them once into Call,
// so every name-keyed site (the facade's Exec, the figure and tuner
// harnesses, the chaos and serving bodies, the CLIs) resolves a
// (collective, algorithm, dispatch) triple in one place instead of
// switching over five signatures. Three dispatch modes share the lifted
// registry: Bind (plain lookup), BindResilient (fallback chain plus SetOp
// attribution) and BindTuned (plan-table lookup).

// Call runs any collective: sb and rb are shaped as Shape gives them, n is
// the per-rank count (the block size for reduce-scatter), op is the
// reduction of the reducing collectives and root the root of the rooted
// ones. Bcast runs in place on sb; arguments a collective does not take
// are ignored.
type Call func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, root int, o Options)

// registry holds every typed registry lifted to Calls, built once so that
// binding is a map lookup and a bound call allocates nothing.
var registry = map[string]map[string]Call{
	"allreduce":      lift(AllreduceAlgos, reduction[ARFunc]),
	"reduce-scatter": lift(ReduceScatterAlgos, reduction[RSFunc]),
	"scan":           lift(ScanAlgos, reduction[ScanFunc]),
	"reduce":         lift(ReduceAlgos, rootedReduction),
	"bcast":          lift(BcastAlgos, bcast),
	"allgather":      lift(AllgatherAlgos, movement[AGFunc]),
	"alltoall":       lift(AlltoallAlgos, movement[AlltoallFunc]),
	"gather":         lift(GatherAlgos, rooted[GatherFunc]),
	"scatter":        lift(ScatterAlgos, rooted[ScatterFunc]),
}

func lift[F any](algos map[string]F, call func(F) Call) map[string]Call {
	out := make(map[string]Call, len(algos))
	for name, f := range algos {
		out[name] = call(f)
	}
	return out
}

func reduction[F ~func(*mpi.Rank, *mpi.Comm, *memmodel.Buffer, *memmodel.Buffer, int64, mpi.Op, Options)](f F) Call {
	return func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, op mpi.Op, _ int, o Options) {
		f(r, c, sb, rb, n, op, o)
	}
}

func rootedReduction(f ReduceFunc) Call { return Call(f) }

func bcast(f BcastFunc) Call {
	return func(r *mpi.Rank, c *mpi.Comm, buf, _ *memmodel.Buffer, n int64, _ mpi.Op, root int, o Options) {
		f(r, c, buf, n, root, o)
	}
}

func movement[F ~func(*mpi.Rank, *mpi.Comm, *memmodel.Buffer, *memmodel.Buffer, int64, Options)](f F) Call {
	return func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, _ mpi.Op, _ int, o Options) {
		f(r, c, sb, rb, n, o)
	}
}

func rooted[F ~func(*mpi.Rank, *mpi.Comm, *memmodel.Buffer, *memmodel.Buffer, int64, int, Options)](f F) Call {
	return func(r *mpi.Rank, c *mpi.Comm, sb, rb *memmodel.Buffer, n int64, _ mpi.Op, root int, o Options) {
		f(r, c, sb, rb, n, root, o)
	}
}

// Bind resolves a registry algorithm of any of the nine collectives, or an
// error listing the collective's algorithms.
func Bind(collective, alg string) (Call, error) {
	return Lookup(registry[collective], alg)
}

// Algorithms returns a collective's sorted algorithm names (nil for an
// unknown collective).
func Algorithms(collective string) []string {
	algos, ok := registry[collective]
	if !ok {
		return nil
	}
	return Names(algos)
}

// Shape returns the send and receive buffer lengths, in elements, of one
// call over p ranks with per-rank count n (the block size for
// reduce-scatter). Bcast runs in place on the send buffer, so its receive
// length is 0; an unknown collective has shape 0, 0.
func Shape(collective string, p int, n int64) (send, recv int64) {
	pn := int64(p) * n
	switch collective {
	case "allreduce", "reduce", "scan":
		return n, n
	case "reduce-scatter", "scatter":
		return pn, n
	case "allgather", "gather":
		return n, pn
	case "alltoall":
		return pn, pn
	case "bcast":
		return n, 0
	}
	return 0, 0
}

// Checked is one self-validating collective call: Run is the per-rank
// body, Err the first validation failure any rank reported.
type Checked struct {
	Run func(*mpi.Rank)
	err error
}

// Err returns the first validation failure of the last run (nil if none).
func (b *Checked) Err() error { return b.err }

// BindChecked builds the validated single-call body the chaos sweep and
// fault-seeded serving tenants run on p ranks: every rank fills its send
// buffer with SumBasesSalted bases (bcast: root 0 fills 777 + 17*salt),
// the call resolves at depth along primary's fallback chain (root 0, Sum)
// and every rank's output is checked exactly. Depth 0 with salt 0 runs
// the plain dispatch of primary. Only the paper collectives have a body.
func BindChecked(collective, primary string, p int, n int64, depth, salt int) (*Checked, error) {
	name, call, err := resilient(collective, primary, depth)
	if err != nil {
		return nil, err
	}
	opName := collective + "/" + name
	bases := SumBasesSalted(p, salt)
	rootBase := 777 + float64(salt*17)
	var validate func(rank int, sb, rb *memmodel.Buffer) error
	switch collective {
	case "allreduce":
		validate = func(rank int, _, rb *memmodel.Buffer) error { return ValidateAllreduceSum(opName, rank, rb, n, bases) }
	case "reduce-scatter":
		validate = func(rank int, _, rb *memmodel.Buffer) error {
			return ValidateReduceScatterSum(opName, rank, rb, n, bases)
		}
	case "reduce":
		validate = func(rank int, _, rb *memmodel.Buffer) error { return ValidateReduceSum(opName, rank, 0, rb, n, bases) }
	case "bcast":
		validate = func(rank int, buf, _ *memmodel.Buffer) error { return ValidateBcast(opName, rank, buf, n, rootBase) }
	case "allgather":
		validate = func(rank int, _, rb *memmodel.Buffer) error { return ValidateAllgather(opName, rank, rb, n, bases) }
	default:
		return nil, fmt.Errorf("coll: no validated body for %q", collective)
	}
	send, recv := Shape(collective, p, n)
	o := Options{FallbackDepth: depth}
	b := &Checked{}
	b.Run = func(r *mpi.Rank) {
		sb := r.NewBuffer("sb", send)
		var rb *memmodel.Buffer
		if recv > 0 {
			rb = r.NewBuffer("rb", recv)
		}
		switch {
		case collective != "bcast":
			r.FillPattern(sb, bases[r.ID()])
		case r.ID() == 0:
			r.FillPattern(sb, rootBase)
		}
		call(r, r.World(), sb, rb, n, mpi.Sum, 0, o)
		if err := validate(r.ID(), sb, rb); err != nil && b.err == nil {
			b.err = err
		}
	}
	return b, nil
}
