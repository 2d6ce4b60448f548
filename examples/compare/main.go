// Compare: sweep one message size range and print every registered
// all-reduce algorithm side by side — a miniature Fig. 11 on your terminal.
package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"yhccl"
)

func main() {
	node := yhccl.NodeB()
	const p = 48

	algos := yhccl.AlgorithmNames("allreduce")
	sizes := []int64{64 << 10, 512 << 10, 4 << 20, 32 << 20}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "msg\t")
	for _, a := range algos {
		fmt.Fprintf(w, "%s\t", a)
	}
	fmt.Fprintln(w)

	for _, s := range sizes {
		n := s / 8
		fmt.Fprintf(w, "%dKB\t", s>>10)
		for _, a := range algos {
			m := yhccl.NewMachine(node, p, false)
			run := func() float64 {
				return m.MustRun(func(r *yhccl.Rank) {
					sb := r.PersistentBuffer("sb", n)
					rb := r.PersistentBuffer("rb", n)
					r.Warm(sb, 0, n)
					r.Warm(rb, 0, n)
					if err := yhccl.Exec(r, yhccl.Req{Collective: "allreduce", Alg: a, Send: sb, Recv: rb, Count: n}); err != nil {
						panic(err)
					}
				})
			}
			run() // warm-up
			fmt.Fprintf(w, "%.0fus\t", run()*1e6)
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	fmt.Println("\n(lower is better; yhccl switches algorithms at the 256 KB boundary)")
}
