package yhccl

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"yhccl/internal/coll"
	"yhccl/internal/plan"
	"yhccl/internal/tune"
)

// tunedCacheDir builds a real tuned cache for NodeA p=4 in a temp dir.
func tunedCacheDir(t *testing.T, p int) string {
	t.Helper()
	cache, err := tune.Tune(tune.Config{Node: NodeA(), Ranks: p, Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := cache.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// AttachPlans + Tuned requests is the documented runtime path: load once at machine
// creation, dispatch per call, results bit-exact.
func TestAttachPlansDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning run in -short mode")
	}
	p, n := 4, int64(2048)
	dir := tunedCacheDir(t, p)
	m := NewMachine(NodeA(), p, true)
	if err := AttachPlans(m, dir); err != nil {
		t.Fatalf("attach: %v", err)
	}
	m.MustRun(func(r *Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, float64(r.ID()))
		if err := Exec(r, Req{Collective: "allreduce", Tuned: true, Send: sb, Recv: rb, Count: n}); err != nil {
			t.Error(err)
			return
		}
		for j := int64(0); j < n; j += 13 {
			want := float64(p)*float64(j) + float64(p*(p-1))/2
			if got := rb.Slice(j, 1)[0]; got != want {
				t.Errorf("rank %d rb[%d] = %v, want %v", r.ID(), j, got, want)
				return
			}
		}
	})
}

// A corrupted cache must degrade to the hand-tuned switch — correct
// results, an error surfaced from AttachPlans, and no panic anywhere.
func TestAttachPlansCorruptedCacheDegrades(t *testing.T) {
	if testing.Short() {
		t.Skip("tuning run in -short mode")
	}
	p, n := 4, int64(1024)
	dir := tunedCacheDir(t, p)
	path := filepath.Join(dir, plan.FileName(NodeA().Name, p))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := strings.Replace(string(raw), "socket-ma", "socket-mb", 1)
	if corrupt == string(raw) {
		t.Fatal("corruption had no effect (no socket-ma entry?)")
	}
	if err := os.WriteFile(path, []byte(corrupt), 0o644); err != nil {
		t.Fatal(err)
	}
	m := NewMachine(NodeA(), p, true)
	if err := AttachPlans(m, dir); err == nil {
		t.Error("corrupted cache attached without error")
	}
	// Second attach of the same file: the warning is per-process-once, and
	// the machine still runs untuned.
	if err := AttachPlans(m, dir); err == nil {
		t.Error("second attach of corrupted cache reported no error")
	}
	m.MustRun(func(r *Rank) {
		sb := r.NewBuffer("sb", n)
		rb := r.NewBuffer("rb", n)
		r.FillPattern(sb, float64(r.ID()))
		if err := Exec(r, Req{Collective: "allreduce", Tuned: true, Send: sb, Recv: rb, Count: n}); err != nil {
			t.Error(err)
			return
		}
		for j := int64(0); j < n; j += 7 {
			want := float64(p)*float64(j) + float64(p*(p-1))/2
			if got := rb.Slice(j, 1)[0]; got != want {
				t.Errorf("rank %d rb[%d] = %v, want %v", r.ID(), j, got, want)
				return
			}
		}
	})
}

// A missing cache is silently untuned — not an error.
func TestAttachPlansMissingCache(t *testing.T) {
	m := NewMachine(NodeA(), 4, false)
	if err := AttachPlans(m, t.TempDir()); err != nil {
		t.Fatalf("missing cache should not error: %v", err)
	}
}

// NewMachine inside the repository auto-attaches the committed cache for
// its exact (topology, rank count): comm init loads the plans once, no
// AttachPlans call needed. Rank counts without a committed cache stay
// untuned.
func TestNewMachineAutoAttachesCommittedPlans(t *testing.T) {
	if PlanDir() == "" {
		t.Skip("not inside the repository")
	}
	if _, err := plan.Load(PlanDir(), NodeA(), 64); err != nil {
		t.Skipf("no committed NodeA p=64 cache: %v (regenerate with `make tune-full`)", err)
	}
	m := NewMachine(NodeA(), 64, false)
	if coll.PlannerOf(m) == nil {
		t.Error("NewMachine(NodeA, 64) did not attach the committed plan cache")
	}
	m2 := NewMachine(NodeA(), 5, false)
	if coll.PlannerOf(m2) != nil {
		t.Error("NewMachine(NodeA, 5) attached a planner with no committed cache for p=5")
	}
}
