package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// calibrate times a short kernel that uses no repository code, so runs on
// different hosts, or on one host at different times, can be normalised: a
// dependent xorshift chain that also walks a 1 MiB table. It returns
// nanoseconds per iteration, the median of seven repetitions.
func calibrate() float64 {
	const iters = 1 << 20
	table := make([]uint64, 1<<17)
	for i := range table {
		table[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	var reps []float64
	x := uint64(88172645463325252)
	for r := 0; r < 7; r++ {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			x += table[x&(uint64(len(table))-1)]
		}
		reps = append(reps, float64(time.Since(t0).Nanoseconds())/iters)
	}
	calibSink = x
	return median(reps)
}

// calibSink keeps the calibration chain from being optimised away.
var calibSink uint64

// provenance describes the host and the source being measured. It fails
// when the working directory is not the repository root.
func provenance() (string, error) {
	src, err := sourceDigest(".")
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("perfbench: nproc=%d GOMAXPROCS=%d go=%s git=%s src=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitRev("."), src), nil
}

// gitRev reads the checked-out commit without running git, or "none" when
// the tree is not a git checkout.
func gitRev(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if rev, name, ok := strings.Cut(line, " "); ok && name == ref {
				return rev
			}
		}
	}
	return "none"
}

// sourceDigest hashes the program's sources (Go files, go.mod and the plan
// cache outside the benchmark and build directories), so a run identifies
// the code it measured even where there is no git metadata.
func sourceDigest(root string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || strings.HasPrefix(path, "plans"+string(filepath.Separator)) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", f, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
