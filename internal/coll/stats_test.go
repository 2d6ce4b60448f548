package coll

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/topo"
)

var updateStats = flag.Bool("update-stats", false,
	"rewrite testdata/stats.golden from the current implementation")

// TestSchedulingStatsGolden pins the coroutine engine's scheduling counts
// (switches, run-ahead hits, blocks, timer fires) of the steady-state call
// of each paper collective's yhccl algorithm on NodeA at 64 ranks, plus
// the makespan as a hex float. The counts follow from the dispatch order,
// so a change to the runnable set that keeps every output but reorders
// dispatch still shows up here.
func TestSchedulingStatsGolden(t *testing.T) {
	node := topo.NodeA()
	const p = 64
	var b strings.Builder
	for _, c := range []string{"allreduce", "reduce-scatter", "reduce", "bcast", "allgather"} {
		call, err := Bind(c, "yhccl")
		if err != nil {
			t.Fatal(err)
		}
		for _, bytes := range []int64{8 << 10, 4 << 20} {
			n := bytes / memmodel.ElemSize
			if c == "reduce-scatter" {
				n /= p
			}
			send, recv := Shape(c, p, n)
			m := mpi.NewMachine(node, p, false)
			body := func(r *mpi.Rank) {
				sb := r.PersistentBuffer("stats/sb", send)
				var rb *memmodel.Buffer
				if recv > 0 {
					rb = r.PersistentBuffer("stats/rb", recv)
				}
				r.Warm(sb, 0, send)
				if rb != nil && c != "allgather" {
					r.Warm(rb, 0, recv)
				}
				call(r, r.World(), sb, rb, n, mpi.Sum, 0, Options{})
			}
			m.MustRun(body)
			span := m.MustRun(body)
			s := m.LastStats()
			fmt.Fprintf(&b, "%s-%d t=%x switches=%d runahead=%d blocks=%d timers=%d\n",
				c, bytes, span, s.Switches, s.RunAhead, s.Blocks, s.TimerFires)
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "stats.golden")
	if *updateStats {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-stats to create it)", err)
	}
	if got != string(want) {
		t.Errorf("scheduling stats drifted from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
