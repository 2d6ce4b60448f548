package cluster

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"yhccl/internal/sim"
)

var updateSteps = flag.Bool("update-steps", false,
	"rewrite testdata/steps.golden from the current implementation")

// stepDigest walks every (rank, step) of a program and folds its duration
// and its dependency list, in visit order, into an FNV-64a digest. It
// returns the total step count and the digest, and fails the test unless
// Step reports NoStep exactly at Steps(rank).
func stepDigest(t *testing.T, p sim.Program) (int, uint64) {
	h := fnv.New64a()
	var buf [8]byte
	put := func(h hash.Hash64, v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	var deps []int64
	total := 0
	for r := 0; r < p.Ranks(); r++ {
		S := p.Steps(r)
		for s := 0; s < S; s++ {
			deps = deps[:0]
			d := p.Step(r, s, func(depRank, depStep int) bool {
				deps = append(deps, int64(depRank), int64(depStep))
				return true
			})
			if d < 0 {
				t.Fatalf("rank %d step %d of %d: Step reported no such step", r, s, S)
			}
			put(h, int64(r))
			put(h, int64(s))
			put(h, int64(d))
			put(h, int64(len(deps)/2))
			for _, v := range deps {
				put(h, v)
			}
		}
		past := func(int, int) bool {
			t.Fatalf("rank %d: the step past its last visited a dependency", r)
			return true
		}
		if d := p.Step(r, S, past); d != sim.NoStep {
			t.Fatalf("rank %d: Step(%d) = %d past its last step, want NoStep", r, S, d)
		}
		total += S
	}
	return total, h.Sum64()
}

// goldenArmed wraps a compiled program with a fixed fault repricing: the
// last node straggles by 2.5x and node 0's lane is degraded 3.5x, so the
// golden pins the repriced durations as well as the healthy ones.
func goldenArmed(t *testing.T, prog sim.Program) sim.Program {
	t.Helper()
	np, ok := prog.(nodePhased)
	if !ok {
		t.Fatalf("program %T does not expose node structure", prog)
	}
	shape := np.Shape()
	link := make([]float64, shape.Nodes)
	dil := make([]float64, shape.Nodes)
	link[0] = 3.5
	dil[shape.Nodes-1] = 2.5
	return &armedProgram{nodePhased: np, perNode: shape.PerNode, linkFactor: link, dilate: dil}
}

// TestStepTableGolden pins every compiled step of the parity matrix: per
// case, the step count and a digest over (rank, step, duration, deps in
// visit order), healthy and under a fixed straggler + link-degrade
// repricing. Regenerate (only for intentional model changes) with:
// go test ./internal/cluster -run TestStepTableGolden -update-steps
func TestStepTableGolden(t *testing.T) {
	var sb strings.Builder
	for _, pc := range ParityCases() {
		var prog sim.Program
		var err error
		if pc.Graph != nil {
			prog, err = pc.Clust.CompileGraph(pc.Graph, pc.Elems, pc.Opts)
		} else {
			prog, err = pc.Clust.Compile(pc.Coll, pc.Alg, pc.Elems, pc.Opts)
		}
		if err != nil {
			t.Fatalf("%s: compile: %v", pc.Name, err)
		}
		n, sum := stepDigest(t, prog)
		fmt.Fprintf(&sb, "%s steps=%d digest=%016x\n", pc.Name, n, sum)
		n, sum = stepDigest(t, goldenArmed(t, prog))
		fmt.Fprintf(&sb, "%s/armed steps=%d digest=%016x\n", pc.Name, n, sum)
	}
	got := sb.String()
	path := filepath.Join("testdata", "steps.golden")
	if *updateSteps {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-steps to record): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("steps golden line %d:\n got  %q\n want %q", i+1, g, w)
			}
		}
	}
}
