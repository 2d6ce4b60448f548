// Command osu is an OSU-micro-benchmark-style driver for the simulated
// collectives, mirroring the artifact's verification flow
// ("mpiexec -n 64 ./osu_allreduce -c -m 65536:268435456").
//
// Usage:
//
//	osu -coll allreduce -np 64 -node NodeA -m 65536:268435456
//	osu -coll reduce-scatter -alg dpml -np 48 -node NodeB -c
//
// -c additionally runs a data-carrying verification pass at a reduced
// size, like the OSU -c flag.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"yhccl"
	"yhccl/internal/coll"
	"yhccl/internal/fault"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/sim"
	"yhccl/internal/topo"
)

func main() {
	var (
		collective = flag.String("coll", "allreduce", "collective: allreduce, reduce-scatter, reduce, bcast, allgather, gather, scatter, alltoall, scan")
		alg        = flag.String("alg", "yhccl", "algorithm name (see -algs)")
		np         = flag.Int("np", 64, "number of ranks")
		nodeName   = flag.String("node", "NodeA", "node preset: NodeA, NodeB, NodeC")
		mrange     = flag.String("m", "65536:268435456", "message byte range min:max (doubling)")
		check      = flag.Bool("c", false, "run a data verification pass first")
		stats      = flag.Bool("stats", false, "also print DAV and DRAM-traffic columns")
		traceFile  = flag.String("trace", "", "write a chrome://tracing JSON of the largest size's run")
		algsFlag   = flag.Bool("algs", false, "list algorithms for -coll and exit")
		straggler  = flag.String("straggler", "", "inject a deterministic straggler into the timed runs, as rank:factor (e.g. 3:8)")
	)
	flag.Parse()

	if *algsFlag {
		fmt.Println(strings.Join(yhccl.AlgorithmNames(*collective), " "))
		return
	}

	node, err := topo.Preset(*nodeName)
	if err != nil {
		fatal(err)
	}
	lo, hi, err := parseRange(*mrange)
	if err != nil {
		fatal(err)
	}
	plan, err := parseStraggler(*straggler, *np)
	if err != nil {
		fatal(err)
	}

	if *check {
		if err := verify(node, *np, *collective, *alg); err != nil {
			fatal(fmt.Errorf("verification FAILED: %w", err))
		}
		fmt.Println("# verification passed")
	}

	fmt.Printf("# OSU-style %s, %s, np=%d, algorithm=%s (simulated time)\n",
		*collective, node.Name, *np, *alg)
	if plan != nil {
		fmt.Printf("# %v\n", plan)
	}
	if *stats {
		fmt.Printf("%-12s %14s %12s %12s %10s\n", "# Size", "Avg Latency(us)", "DAV(MB)", "DRAM(MB)", "syncs")
	} else {
		fmt.Printf("%-12s %14s\n", "# Size", "Avg Latency(us)")
	}
	for s := lo; s <= hi; s *= 2 {
		trace := *traceFile != "" && s*2 > hi // only the largest size
		t, counters, tr, err := measure(node, *np, *collective, *alg, s, trace, plan)
		if err != nil {
			fatal(err)
		}
		if *stats {
			fmt.Printf("%-12d %14.2f %12d %12d %10d\n",
				s, t*1e6, counters.DAV()>>20, counters.DRAMTraffic>>20, counters.SyncCount)
		} else {
			fmt.Printf("%-12d %14.2f\n", s, t*1e6)
		}
		if tr != nil {
			f, err := os.Create(*traceFile)
			if err != nil {
				fatal(err)
			}
			if err := tr.WriteJSON(f); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("# trace (%d events) written to %s\n", tr.Len(), *traceFile)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "osu:", err)
	os.Exit(1)
}

func parseRange(s string) (int64, int64, error) {
	parts := strings.SplitN(s, ":", 2)
	lo, err := strconv.ParseInt(parts[0], 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad range %q", s)
	}
	hi := lo
	if len(parts) == 2 {
		hi, err = strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad range %q", s)
		}
	}
	if lo < 8 || hi < lo {
		return 0, 0, fmt.Errorf("range %q must satisfy 8 <= min <= max", s)
	}
	return lo, hi, nil
}

// parseStraggler turns a "rank:factor" spec into a one-straggler fault plan
// (nil when the spec is empty). The rank must name one of the np ranks and
// the factor must be a positive finite slowdown — a spec that falls outside
// those bounds is rejected here rather than silently arming nothing.
func parseStraggler(s string, np int) (*fault.Plan, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("bad -straggler %q, want rank:factor", s)
	}
	rank, err := strconv.Atoi(parts[0])
	if err != nil {
		return nil, fmt.Errorf("bad -straggler rank %q", parts[0])
	}
	if rank < 0 || rank >= np {
		return nil, fmt.Errorf("-straggler rank %d outside 0..%d (np=%d)", rank, np-1, np)
	}
	factor, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return nil, fmt.Errorf("bad -straggler factor %q", parts[1])
	}
	if math.IsNaN(factor) || math.IsInf(factor, 0) || factor <= 0 {
		return nil, fmt.Errorf("-straggler factor %v must be positive and finite", factor)
	}
	return &fault.Plan{
		Name:       "cli-straggler",
		Stragglers: []fault.Straggler{{Rank: rank, Factor: factor}},
	}, nil
}

// measure returns steady-state simulated seconds and the measured
// iteration's counters at message bytes s, optionally tracing it.
func measure(node *topo.Node, np int, collective, alg string, s int64, trace bool, plan *fault.Plan) (float64, memmodel.Counters, *sim.Tracer, error) {
	m := mpi.NewMachine(node, np, false)
	if err := m.SetFaultPlan(plan); err != nil {
		return 0, memmodel.Counters{}, nil, err
	}
	var failure error
	body, err := makeBody(m, collective, alg, s, &failure)
	if err != nil {
		return 0, memmodel.Counters{}, nil, err
	}
	m.MustRun(body) // warm-up
	if failure != nil {
		return 0, memmodel.Counters{}, nil, failure
	}
	var tr *sim.Tracer
	if trace {
		tr = sim.NewTracer()
		m.Model.SetTracer(tr)
	}
	before := m.Model.Counters()
	t := m.MustRun(body)
	m.Model.SetTracer(nil)
	return t, m.Model.Counters().Sub(before), tr, nil
}

// exec runs one request from a rank body, recording the first error: a
// request Exec rejects (an unknown algorithm) fails on every rank before
// any data moves.
func exec(r *mpi.Rank, q yhccl.Req, failure *error) {
	if err := yhccl.Exec(r, q); err != nil && *failure == nil {
		*failure = err
	}
}

// makeBody builds the timed rank body: persistent buffers shaped for the
// collective at message bytes s, warmed the way an application iteration
// leaves them.
func makeBody(m *mpi.Machine, collective, alg string, s int64, failure *error) (func(r *mpi.Rank), error) {
	n := max(s/memmodel.ElemSize, 1)
	if collective == "reduce-scatter" {
		n = max(n/int64(m.Size()), 1)
	}
	sbLen, rbLen := coll.Shape(collective, m.Size(), n)
	if sbLen == 0 {
		return nil, fmt.Errorf("unknown collective %q", collective)
	}
	return func(r *mpi.Rank) {
		q := yhccl.Req{Collective: collective, Alg: alg, Count: n}
		q.Send = r.PersistentBuffer("osu/sb", sbLen)
		if rbLen > 0 {
			q.Recv = r.PersistentBuffer("osu/rb", rbLen)
		}
		if collective != "scatter" || r.ID() == 0 {
			r.Warm(q.Send, 0, sbLen)
		}
		if collective == "allreduce" {
			r.Warm(q.Recv, 0, rbLen)
		}
		exec(r, q, failure)
	}, nil
}

// verify runs the collective with real data at a small size and checks the
// result element-wise.
func verify(node *topo.Node, np int, collective, alg string) error {
	const n = 1024
	m := mpi.NewMachine(node, np, true)
	var failure error
	p := np
	expectSum := func(i int64) float64 {
		return float64(p)*float64(i) + float64(p*(p-1))/2
	}
	body, err := makeVerifyBody(m, collective, alg, n, expectSum, &failure)
	if err != nil {
		return err
	}
	m.MustRun(body)
	return failure
}

func makeVerifyBody(m *mpi.Machine, collective, alg string, n int64,
	expectSum func(i int64) float64, failure *error) (func(r *mpi.Rank), error) {
	p := int64(m.Size())
	fail := func(format string, args ...interface{}) {
		if *failure == nil {
			*failure = fmt.Errorf(format, args...)
		}
	}
	run := func(r *mpi.Rank, sb, rb *memmodel.Buffer) {
		exec(r, yhccl.Req{Collective: collective, Alg: alg, Send: sb, Recv: rb, Count: n}, failure)
	}
	switch collective {
	case "allreduce":
		return func(r *mpi.Rank) {
			sb := r.NewBuffer("v/sb", n)
			rb := r.NewBuffer("v/rb", n)
			r.FillPattern(sb, float64(r.ID()))
			run(r, sb, rb)
			for i := int64(0); i < n; i += 17 {
				if got := rb.Slice(i, 1)[0]; got != expectSum(i) {
					fail("rank %d rb[%d] = %v, want %v", r.ID(), i, got, expectSum(i))
					return
				}
			}
		}, nil
	case "reduce-scatter":
		return func(r *mpi.Rank) {
			sb := r.NewBuffer("v/sb", n*p)
			rb := r.NewBuffer("v/rb", n)
			r.FillPattern(sb, float64(r.ID()))
			run(r, sb, rb)
			for i := int64(0); i < n; i += 17 {
				want := expectSum(int64(r.ID())*n + i)
				if got := rb.Slice(i, 1)[0]; got != want {
					fail("rank %d rb[%d] = %v, want %v", r.ID(), i, got, want)
					return
				}
			}
		}, nil
	case "reduce":
		return func(r *mpi.Rank) {
			sb := r.NewBuffer("v/sb", n)
			rb := r.NewBuffer("v/rb", n)
			r.FillPattern(sb, float64(r.ID()))
			run(r, sb, rb)
			if r.ID() == 0 {
				for i := int64(0); i < n; i += 17 {
					if got := rb.Slice(i, 1)[0]; got != expectSum(i) {
						fail("root rb[%d] = %v, want %v", i, got, expectSum(i))
						return
					}
				}
			}
		}, nil
	case "bcast":
		return func(r *mpi.Rank) {
			buf := r.NewBuffer("v/buf", n)
			if r.ID() == 0 {
				r.FillPattern(buf, 777)
			}
			run(r, buf, nil)
			for i := int64(0); i < n; i += 17 {
				if got := buf.Slice(i, 1)[0]; got != 777+float64(i) {
					fail("rank %d buf[%d] = %v", r.ID(), i, got)
					return
				}
			}
		}, nil
	case "allgather":
		return func(r *mpi.Rank) {
			sb := r.NewBuffer("v/sb", n)
			rb := r.NewBuffer("v/rb", n*p)
			r.FillPattern(sb, float64(r.ID()*100000))
			run(r, sb, rb)
			for b := int64(0); b < p; b++ {
				for i := int64(0); i < n; i += 111 {
					want := float64(b*100000) + float64(i)
					if got := rb.Slice(b*n+i, 1)[0]; got != want {
						fail("rank %d rb[%d][%d] = %v, want %v", r.ID(), b, i, got, want)
						return
					}
				}
			}
		}, nil
	case "gather":
		return func(r *mpi.Rank) {
			sb := r.NewBuffer("v/sb", n)
			rb := r.NewBuffer("v/rb", n*p)
			r.FillPattern(sb, float64(r.ID()*100000))
			run(r, sb, rb)
			if r.ID() == 0 {
				for b := int64(0); b < p; b++ {
					if got := rb.Slice(b*n, 1)[0]; got != float64(b*100000) {
						fail("gather rb[%d] = %v", b, got)
						return
					}
				}
			}
		}, nil
	case "scatter":
		return func(r *mpi.Rank) {
			sb := r.NewBuffer("v/sb", n*p)
			rb := r.NewBuffer("v/rb", n)
			if r.ID() == 0 {
				r.FillPattern(sb, 0)
			}
			run(r, sb, rb)
			me := int64(r.ID())
			if got := rb.Slice(0, 1)[0]; got != float64(me*n) {
				fail("scatter rank %d rb[0] = %v, want %v", r.ID(), got, me*n)
			}
		}, nil
	case "scan":
		return func(r *mpi.Rank) {
			sb := r.NewBuffer("v/sb", n)
			rb := r.NewBuffer("v/rb", n)
			r.FillPattern(sb, float64(r.ID()))
			run(r, sb, rb)
			me := r.ID()
			want := float64(me+1)*5 + float64(me*(me+1))/2
			if got := rb.Slice(5, 1)[0]; got != want {
				fail("scan rank %d rb[5] = %v, want %v", me, got, want)
			}
		}, nil
	case "alltoall":
		return func(r *mpi.Rank) {
			sb := r.NewBuffer("v/sb", n*p)
			rb := r.NewBuffer("v/rb", n*p)
			data := sb.Slice(0, n*p)
			for j := int64(0); j < p; j++ {
				for i := int64(0); i < n; i++ {
					data[j*n+i] = float64(r.ID())*1e6 + float64(j)*1e3
				}
			}
			run(r, sb, rb)
			for j := int64(0); j < p; j++ {
				want := float64(j)*1e6 + float64(r.ID())*1e3
				if got := rb.Slice(j*n, 1)[0]; got != want {
					fail("alltoall rank %d rb[%d] = %v, want %v", r.ID(), j, got, want)
					return
				}
			}
		}, nil
	}
	return nil, fmt.Errorf("unknown collective %q", collective)
}
