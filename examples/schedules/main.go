// Schedules: the paper's §3.1 formalism live — express reduction
// algorithms as reduction trees, verify the Theorem 3.1 lower bound by
// exhaustive search, then lower the DPML and movement-avoiding schedules
// to plan graphs, execute them through the generic graph executor and
// compare their measured copy volume and simulated time.
package main

import (
	"fmt"
	"log"

	"yhccl/internal/coll"
	"yhccl/internal/memmodel"
	"yhccl/internal/mpi"
	"yhccl/internal/plan"
	"yhccl/internal/schedule"
	"yhccl/internal/topo"
)

func main() {
	// 1. The formal optimization problem: exhaustive minimum copy volume
	// per tree (in slice units) for small p.
	fmt.Println("Theorem 3.1 (exhaustive verification):")
	for p := 2; p <= 5; p++ {
		fmt.Printf("  p=%d: min copy volume over all valid trees = %d units (theorem: 2)\n",
			p, schedule.MinTreeCopyUnits(p))
	}

	// 2. The two named schedules, formally.
	const p = 8
	fmt.Printf("\nschedules at p=%d (copy units per schedule, lower is better):\n", p)
	fmt.Printf("  DPML: %d units\n", schedule.DPML(p).TotalCopyUnits())
	fmt.Printf("  MA  : %d units (the optimum 2p)\n", schedule.MA(p).TotalCopyUnits())

	// 3. Lower both to plan graphs, execute them through the generic graph
	// executor and compare measured V and simulated time.
	const n = 1 << 15 // 256 KB blocks
	for _, sc := range []struct {
		name  string
		sched schedule.Schedule
	}{
		{"DPML", schedule.DPML(p)},
		{"MA", schedule.MA(p)},
	} {
		g, err := plan.FromSchedule(sc.sched)
		if err != nil {
			log.Fatal(err)
		}
		m := mpi.NewMachine(topo.NodeA(), p, true)
		elapsed := m.MustRun(func(r *mpi.Rank) {
			sb := r.NewBuffer("sb", int64(p)*n)
			rb := r.NewBuffer("rb", n)
			r.FillPattern(sb, float64(r.ID()))
			coll.ReduceScatterGraph(r, r.World(), g, sb, rb, n, mpi.Sum, coll.Options{})
			// Spot-check the reduction result.
			want := float64(p)*float64(int64(r.ID())*n) + float64(p*(p-1))/2
			if got := rb.Slice(0, 1)[0]; got != want {
				log.Fatalf("rank %d: rb[0] = %v, want %v", r.ID(), got, want)
			}
		})
		c := m.Model.Counters()
		fmt.Printf("\n%s executed: %.0f us simulated, copy volume V = %d KB, DAV = %d KB\n",
			sc.name, elapsed*1e6, c.CopyVolume>>10, c.DAV()>>10)
	}
	s := int64(p) * n * memmodel.ElemSize
	fmt.Printf("\n(2s = %d KB — the MA run should match it exactly)\n", 2*s>>10)
}
