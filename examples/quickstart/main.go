// Quickstart: run YHCCL's all-reduce on a simulated 64-core NodeA with
// real data, verify the result, and print the simulated latency and the
// memory-traffic counters behind it.
package main

import (
	"fmt"
	"log"

	"yhccl"
)

func main() {
	node := yhccl.NodeA()
	const p = 64
	const elems = 1 << 20 // 8 MB message

	m := yhccl.NewMachine(node, p, true)

	// Every rank contributes sb[i] = rank + i; the all-reduced rb[i] must
	// be p*i + p(p-1)/2.
	makespan := m.MustRun(func(r *yhccl.Rank) {
		sb := r.NewBuffer("sb", elems)
		rb := r.NewBuffer("rb", elems)
		r.FillPattern(sb, float64(r.ID()))

		if err := yhccl.Exec(r, yhccl.Req{Collective: "allreduce", Send: sb, Recv: rb, Count: elems}); err != nil {
			log.Fatal(err)
		}

		for i := int64(0); i < elems; i += 4097 {
			want := float64(p)*float64(i) + float64(p*(p-1))/2
			if got := rb.Slice(i, 1)[0]; got != want {
				log.Fatalf("rank %d: rb[%d] = %v, want %v", r.ID(), i, got, want)
			}
		}
	})

	c := m.Model.Counters()
	fmt.Printf("all-reduce of %d MB on %s with %d ranks\n", elems*8>>20, node.Name, p)
	fmt.Printf("  simulated latency : %.1f us\n", makespan*1e6)
	fmt.Printf("  data access volume: %d MB (loads+stores)\n", c.DAV()>>20)
	fmt.Printf("  DRAM traffic      : %d MB\n", c.DRAMTraffic>>20)
	fmt.Printf("  NT-store bytes    : %d MB\n", c.NTStoreBytes>>20)
	fmt.Printf("  synchronizations  : %d\n", c.SyncCount)
	fmt.Println("result verified on every rank")
}
