package cluster

import (
	"testing"

	"yhccl/internal/topo"
)

// mixJob is one healthy job of the cluster_chaos grid.
type mixJob struct {
	nodes int
	coll  string
	alg   Algorithm
	opts  ScheduleOptions
}

// healthyMix is the cluster_chaos healthy grid: the hierarchical
// composition at 16-256 nodes and the leader ring and tree at 16-1024
// nodes, 64 ranks per node, all three collectives, with inter-node rings
// coarsened to 16 macro-steps from 128 nodes.
func healthyMix() []mixJob {
	var jobs []mixJob
	for _, alg := range []Algorithm{YHCCLHierarchical, LeaderRing, LeaderTree} {
		maxNodes := 1024
		if alg == YHCCLHierarchical {
			maxNodes = 256
		}
		for _, coll := range []string{CollAllreduce, CollBcast, CollAllgather} {
			for nodes := 16; nodes <= maxNodes; nodes *= 2 {
				j := mixJob{nodes: nodes, coll: coll, alg: alg}
				if nodes >= 128 {
					j.opts.RingSteps = 16
				}
				jobs = append(jobs, j)
			}
		}
	}
	return jobs
}

// BenchmarkClusterHealthyMix runs the whole healthy grid per op at a fixed
// 512 KB per rank, each job as New -> Compile -> RunArmed with no plan, and
// reports the events dispatched per op and the host time per event.
func BenchmarkClusterHealthyMix(b *testing.B) {
	jobs := healthyMix()
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			c := New(topo.NodeA(), j.nodes, 64, IB100())
			prog, err := c.Compile(j.coll, j.alg, 1<<16, j.opts)
			if err != nil {
				b.Fatal(err)
			}
			run, err := RunArmed(prog, nil, 0)
			if err != nil {
				b.Fatal(err)
			}
			events += run.Res.Events
		}
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}
