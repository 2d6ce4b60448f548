package yhccl

import (
	"fmt"
	"strings"
	"testing"

	"yhccl/internal/coll"
	"yhccl/internal/plan"
	"yhccl/internal/schedule"
)

// execMakespan runs one collective through run on a fresh real-data NodeA
// machine and returns its simulated makespan.
func execMakespan(t *testing.T, p int, n int64, run func(r *Rank, sb, rb *Buffer)) float64 {
	t.Helper()
	return execMakespanOn(t, NewMachine(NodeA(), p, true), n, run)
}

// execMakespanOn is execMakespan on a given machine.
func execMakespanOn(t *testing.T, m *Machine, n int64, run func(r *Rank, sb, rb *Buffer)) float64 {
	t.Helper()
	p := m.Size()
	return m.MustRun(func(r *Rank) {
		// Generous shapes cover every collective's convention (p*n on
		// both sides); each body slices what it needs.
		sb := r.NewBuffer("sb", n*int64(p))
		rb := r.NewBuffer("rb", n*int64(p))
		r.FillPattern(sb, float64(r.ID()*1000))
		run(r, sb, rb)
	})
}

// lookup runs a registry algorithm directly, bypassing the facade.
func lookup[F any](algos map[string]F, name string, run func(F)) error {
	f, err := coll.Lookup(algos, name)
	if err != nil {
		return err
	}
	run(f)
	return nil
}

// TestExecParity proves the facade adds nothing: for each (collective,
// algorithm) pair in the registries, the Exec makespan equals the makespan
// of the direct coll.Lookup call exactly (same machine shape, same
// buffers, same fill).
func TestExecParity(t *testing.T) {
	const p, n = 8, 1024

	type direct func(name string, r *Rank, sb, rb *Buffer) error
	cases := []struct {
		collective string
		names      []string
		direct     direct
	}{
		{"allreduce", AlgorithmNames("allreduce"), func(name string, r *Rank, sb, rb *Buffer) error {
			return lookup(coll.AllreduceAlgos, name, func(f coll.ARFunc) { f(r, r.World(), sb, rb, n, Sum, Options{}) })
		}},
		{"reduce-scatter", AlgorithmNames("reduce-scatter"), func(name string, r *Rank, sb, rb *Buffer) error {
			return lookup(coll.ReduceScatterAlgos, name, func(f coll.RSFunc) { f(r, r.World(), sb, rb, n, Sum, Options{}) })
		}},
		{"reduce", AlgorithmNames("reduce"), func(name string, r *Rank, sb, rb *Buffer) error {
			return lookup(coll.ReduceAlgos, name, func(f coll.ReduceFunc) { f(r, r.World(), sb, rb, n, Sum, 0, Options{}) })
		}},
		{"bcast", AlgorithmNames("bcast"), func(name string, r *Rank, sb, rb *Buffer) error {
			return lookup(coll.BcastAlgos, name, func(f coll.BcastFunc) { f(r, r.World(), sb, n, 0, Options{}) })
		}},
		{"allgather", AlgorithmNames("allgather"), func(name string, r *Rank, sb, rb *Buffer) error {
			return lookup(coll.AllgatherAlgos, name, func(f coll.AGFunc) { f(r, r.World(), sb, rb, n, Options{}) })
		}},
	}
	for _, tc := range cases {
		if len(tc.names) == 0 {
			t.Fatalf("%s: empty registry", tc.collective)
		}
		for _, name := range tc.names {
			t.Run(tc.collective+"/"+name, func(t *testing.T) {
				directT := execMakespan(t, p, n, func(r *Rank, sb, rb *Buffer) {
					if err := tc.direct(name, r, sb, rb); err != nil {
						t.Errorf("direct: %v", err)
					}
				})
				execT := execMakespan(t, p, n, func(r *Rank, sb, rb *Buffer) {
					if err := Exec(r, Req{Collective: tc.collective, Alg: name,
						Send: sb, Recv: rb, Count: n, Root: 0}); err != nil {
						t.Errorf("Exec: %v", err)
					}
				})
				if directT != execT {
					t.Errorf("makespan diverged: direct %v, Exec %v", directT, execT)
				}
			})
		}
	}
}

// registryCall runs the named registry algorithm of a paper collective
// directly (root 0 for the rooted ones), bypassing every dispatcher.
func registryCall(t *testing.T, collective, alg string, n int64, o Options) func(r *Rank, sb, rb *Buffer) {
	t.Helper()
	switch collective {
	case "allreduce":
		f := coll.AllreduceAlgos[alg]
		return func(r *Rank, sb, rb *Buffer) { f(r, r.World(), sb, rb, n, Sum, o) }
	case "reduce-scatter":
		f := coll.ReduceScatterAlgos[alg]
		return func(r *Rank, sb, rb *Buffer) { f(r, r.World(), sb, rb, n, Sum, o) }
	case "reduce":
		f := coll.ReduceAlgos[alg]
		return func(r *Rank, sb, rb *Buffer) { f(r, r.World(), sb, rb, n, Sum, 0, o) }
	case "bcast":
		f := coll.BcastAlgos[alg]
		return func(r *Rank, sb, rb *Buffer) { f(r, r.World(), sb, n, 0, o) }
	case "allgather":
		f := coll.AllgatherAlgos[alg]
		return func(r *Rank, sb, rb *Buffer) { f(r, r.World(), sb, rb, n, o) }
	}
	t.Fatalf("no registry for %q", collective)
	return nil
}

// parityPlans is an in-memory tuned-plan table for p=8 ranks and 8 KB
// per-rank messages (n=1024). Every entry differs from the hand-tuned
// switch: fanout graphs for allreduce and reduce-scatter, non-default
// families with slice/policy/degree params for the other three.
// Reduce-scatter is keyed on the total message (p*8 KB = 64 KB, bucket
// 16); a lookup on the per-rank 8 KB would land on the ring buckets.
func parityPlans(t *testing.T) *plan.Table {
	t.Helper()
	entry := func(c string, bucket int, pr plan.Params) plan.Plan {
		return plan.Plan{Collective: c, Bucket: bucket, SizeBytes: plan.BucketSize(bucket), Params: pr, Source: "searched"}
	}
	tab, err := plan.NewTable([]plan.Plan{
		entry("allreduce", 13, plan.Params{Family: "fanout", Fanout: 2, SliceKB: 4}),
		entry("reduce-scatter", 13, plan.Params{Family: "ring"}),
		entry("reduce-scatter", 14, plan.Params{Family: "ring"}),
		entry("reduce-scatter", 15, plan.Params{Family: "ring"}),
		entry("reduce-scatter", 16, plan.Params{Family: "fanout", Fanout: 4}),
		entry("reduce", 13, plan.Params{Family: "rg", SliceKB: 2, RGDegree: 4, Policy: "t-copy"}),
		entry("bcast", 13, plan.Params{Family: "pipelined", SliceKB: 2, Policy: "nt-copy"}),
		entry("allgather", 13, plan.Params{Family: "pipelined", SliceKB: 1, Policy: "t-copy"}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// TestExecParityExtras covers the remaining dispatch modes — the default
// algorithm of every collective, rooted requests with a non-zero root,
// tuned and resilient dispatch — against direct calls of the internal
// implementation the request resolves to. Tuned cases run twice: on the
// plain machine (no plans for p=8: the hand-tuned fallback) and on one
// whose planner holds parityPlans; resilient cases cover every depth of
// each paper collective's fallback chain.
func TestExecParityExtras(t *testing.T) {
	const p, n = 8, 1024
	tab := parityPlans(t)
	graph := func(c plan.Coll, f int) *plan.Graph {
		var g *plan.Graph
		var err error
		if c == plan.Allreduce {
			g, err = plan.AllreduceFromSchedule(schedule.Fanout(p, f))
		} else {
			g, err = plan.FromSchedule(schedule.Fanout(p, f))
		}
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	arGraph, rsGraph := graph(plan.Allreduce, 2), graph(plan.ReduceScatter, 4)
	type parityCase struct {
		name   string
		direct func(r *Rank, sb, rb *Buffer)
		req    Req
		tuned  bool // run on the machine holding parityPlans
	}
	cases := []parityCase{
		{"allreduce", func(r *Rank, sb, rb *Buffer) {
			coll.AllreduceAlgos["yhccl"](r, r.World(), sb, rb, n, Sum, Options{})
		}, Req{Collective: "allreduce", Count: n}, false},
		{"reduce-scatter", func(r *Rank, sb, rb *Buffer) {
			coll.ReduceScatterAlgos["yhccl"](r, r.World(), sb, rb, n, Sum, Options{})
		}, Req{Collective: "reduce-scatter", Count: n}, false},
		{"reduce", func(r *Rank, sb, rb *Buffer) {
			coll.ReduceAlgos["yhccl"](r, r.World(), sb, rb, n, Sum, 2, Options{})
		}, Req{Collective: "reduce", Root: 2, Count: n}, false},
		{"bcast", func(r *Rank, sb, rb *Buffer) {
			coll.BcastAlgos["yhccl"](r, r.World(), sb, n, 1, Options{})
		}, Req{Collective: "bcast", Root: 1, Count: n}, false},
		{"allgather", func(r *Rank, sb, rb *Buffer) {
			coll.AllgatherAlgos["yhccl"](r, r.World(), sb, rb, n, Options{})
		}, Req{Collective: "allgather", Count: n}, false},
		{"gather", func(r *Rank, sb, rb *Buffer) {
			coll.GatherAlgos["yhccl"](r, r.World(), sb, rb, n, 0, Options{})
		}, Req{Collective: "gather", Count: n}, false},
		{"scatter", func(r *Rank, sb, rb *Buffer) {
			coll.ScatterAlgos["yhccl"](r, r.World(), sb, rb, n, 0, Options{})
		}, Req{Collective: "scatter", Count: n}, false},
		{"alltoall", func(r *Rank, sb, rb *Buffer) {
			coll.AlltoallAlgos["yhccl"](r, r.World(), sb, rb, n, Options{})
		}, Req{Collective: "alltoall", Count: n}, false},
		{"scan", func(r *Rank, sb, rb *Buffer) {
			coll.ScanAlgos["yhccl"](r, r.World(), sb, rb, n, Sum, Options{})
		}, Req{Collective: "scan", Count: n}, false},
		{"tuned-allreduce", func(r *Rank, sb, rb *Buffer) {
			coll.AllreduceAlgos["yhccl"](r, r.World(), sb, rb, n, Sum, Options{})
		}, Req{Collective: "allreduce", Tuned: true, Count: n}, false},
		{"tuned-allgather", func(r *Rank, sb, rb *Buffer) {
			coll.AllgatherAlgos["yhccl"](r, r.World(), sb, rb, n, Options{})
		}, Req{Collective: "allgather", Tuned: true, Count: n}, false},
		{"planned-allreduce", func(r *Rank, sb, rb *Buffer) {
			coll.AllreduceGraph(r, r.World(), arGraph, sb, rb, n, Sum, Options{SliceMaxBytes: 4 << 10})
		}, Req{Collective: "allreduce", Tuned: true, Count: n}, true},
		{"planned-reduce-scatter", func(r *Rank, sb, rb *Buffer) {
			coll.ReduceScatterGraph(r, r.World(), rsGraph, sb, rb, n, Sum, Options{})
		}, Req{Collective: "reduce-scatter", Tuned: true, Count: n}, true},
		{"planned-reduce", func(r *Rank, sb, rb *Buffer) {
			o := Options{SliceMaxBytes: 2 << 10, RGDegree: 4}.WithPolicy(TCopy)
			coll.ReduceAlgos["rg"](r, r.World(), sb, rb, n, Sum, 2, o)
		}, Req{Collective: "reduce", Tuned: true, Root: 2, Count: n}, true},
		{"planned-bcast", func(r *Rank, sb, rb *Buffer) {
			o := Options{SliceMaxBytes: 2 << 10}.WithPolicy(NTCopy)
			coll.BcastAlgos["pipelined"](r, r.World(), sb, n, 1, o)
		}, Req{Collective: "bcast", Tuned: true, Root: 1, Count: n}, true},
		{"planned-allgather", func(r *Rank, sb, rb *Buffer) {
			o := Options{SliceMaxBytes: 1 << 10}.WithPolicy(TCopy)
			coll.AllgatherAlgos["pipelined"](r, r.World(), sb, rb, n, o)
		}, Req{Collective: "allgather", Tuned: true, Count: n}, true},
	}
	for _, c := range []string{"allreduce", "reduce-scatter", "reduce", "bcast", "allgather"} {
		for d, alg := range coll.FallbackChain(c, "yhccl") {
			o := Options{FallbackDepth: d}
			cases = append(cases, parityCase{fmt.Sprintf("resilient-%s-depth%d", c, d), registryCall(t, c, alg, n, o),
				Req{Collective: c, Resilience: true, Count: n, Options: o}, false})
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			machine := func() *Machine {
				m := NewMachine(NodeA(), p, true)
				if tc.tuned {
					m.SetTuning(coll.NewPlanner(tab))
				}
				return m
			}
			directT := execMakespanOn(t, machine(), n, tc.direct)
			execT := execMakespanOn(t, machine(), n, func(r *Rank, sb, rb *Buffer) {
				q := tc.req
				q.Send, q.Recv = sb, rb
				if err := Exec(r, q); err != nil {
					t.Errorf("Exec: %v", err)
				}
			})
			if directT != execT {
				t.Errorf("makespan diverged: direct %v, Exec %v", directT, execT)
			}
		})
	}
}

// TestExecValidation pins the dispatcher's request validation: bad
// requests error before any rank body runs.
func TestExecValidation(t *testing.T) {
	const p, n = 4, 64
	cases := []struct {
		name string
		req  Req
		want string
	}{
		{"empty", Req{}, "Collective is empty"},
		{"unknown", Req{Collective: "allsum", Count: n}, "unknown collective"},
		{"count", Req{Collective: "allreduce", Count: 0}, "Count must be positive"},
		{"tuned+resilient", Req{Collective: "allreduce", Tuned: true, Resilience: true, Count: n}, "mutually exclusive"},
		{"tuned+alg", Req{Collective: "allreduce", Tuned: true, Alg: "ring", Count: n}, "conflicts"},
		{"tuned-scan", Req{Collective: "scan", Tuned: true, Count: n}, "paper collectives"},
		{"resilient-alltoall", Req{Collective: "alltoall", Resilience: true, Count: n}, "paper collectives"},
		{"nil-buffers", Req{Collective: "allreduce", Count: n}, "must both be set"},
		{"bcast-nil", Req{Collective: "bcast", Count: n}, "in-place buffer"},
		{"bad-alg", Req{Collective: "allreduce", Alg: "nope", Count: n}, "unknown algorithm"},
	}
	m := NewMachine(NodeB(), p, false)
	m.MustRun(func(r *Rank) {
		sb := r.NewBuffer("sb", n*p)
		rb := r.NewBuffer("rb", n*p)
		for _, tc := range cases {
			q := tc.req
			switch tc.name {
			case "nil-buffers", "bcast-nil":
				// leave buffers nil
			default:
				q.Send, q.Recv = sb, rb
			}
			err := Exec(r, q)
			if err == nil {
				if r.ID() == 0 {
					t.Errorf("%s: expected error, got nil", tc.name)
				}
				continue
			}
			if !strings.Contains(err.Error(), tc.want) {
				if r.ID() == 0 {
					t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
				}
			}
		}
	})
}

// TestExecAliases pins the accepted collective-name aliases.
func TestExecAliases(t *testing.T) {
	const p, n = 4, 256
	for _, alias := range []struct{ alias, canon string }{
		{"reducescatter", "reduce-scatter"},
		{"broadcast", "bcast"},
	} {
		a := execMakespan(t, p, n, func(r *Rank, sb, rb *Buffer) {
			if err := Exec(r, Req{Collective: alias.alias, Send: sb, Recv: rb, Count: n}); err != nil {
				t.Errorf("%s: %v", alias.alias, err)
			}
		})
		b := execMakespan(t, p, n, func(r *Rank, sb, rb *Buffer) {
			if err := Exec(r, Req{Collective: alias.canon, Send: sb, Recv: rb, Count: n}); err != nil {
				t.Errorf("%s: %v", alias.canon, err)
			}
		})
		if a != b {
			t.Errorf("%s vs %s: makespan %v != %v", alias.alias, alias.canon, a, b)
		}
	}
}

// TestExecDefaultOp pins the zero-Op default: a zero-valued Req.Op reduces
// with Sum rather than panicking on nil closures.
func TestExecDefaultOp(t *testing.T) {
	const p, n = 4, 256
	m := NewMachine(NodeA(), p, true)
	m.MustRun(func(r *Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, float64(r.ID()))
		if err := Exec(r, Req{Collective: "allreduce", Send: sb, Recv: rb, Count: n}); err != nil {
			t.Errorf("Exec: %v", err)
			return
		}
		for i := int64(0); i < n; i += 7 {
			if got, want := rb.Slice(i, 1)[0], expectSum(p, i); got != want {
				t.Errorf("rank %d rb[%d] = %v, want %v", r.ID(), i, got, want)
				return
			}
		}
	})
}
