package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"strings"
)

// layers are the modules the ledger splits CPU time into. "harness" is the
// benchmark's own code outside any span; "other" collects the remaining
// repository packages (topo, shm, schedule, the yhccl facade, ...).
var layers = []string{"sim", "memmodel", "memcopy", "coll", "mpi", "plan", "cluster", "fault", "resilient", "serve", "runtime", "harness", "other"}

// ledger is a CPU profile folded by module: each sample counts for the
// module of its innermost repository frame. Samples with no repository
// frame (GC workers, the scheduler) count for runtime; samples whose
// innermost repository frame is the benchmark itself count for the module
// of the span they ran in, and coroutine switches count as sim. Samples
// taken while the benchmark prepared or checked an op (span "check") are
// left out.
type ledger struct {
	total    float64                       // profiled CPU nanoseconds, checks excluded
	checkNs  float64                       // CPU in the benchmark's own checks
	moduleNs map[string]float64            // by package name
	layerNs  map[string]float64            // by layer (see layers)
	funcNs   map[string]float64            // by innermost repository function
	bySpan   map[string]map[string]float64 // span label -> layer -> ns
}

// share is the layer's fraction of profiled CPU time.
func (l *ledger) share(layer string) float64 {
	if l.total == 0 {
		return 0
	}
	return l.layerNs[layer] / l.total
}

func (l *ledger) spanNs(span string) float64 {
	t := 0.0
	for _, v := range l.bySpan[span] {
		t += v
	}
	return t
}

func (l *ledger) spanLayerNs(span, layer string) float64 { return l.bySpan[span][layer] }

// calendarShare is the fraction of CPU in the event engine's calendar: the
// EventEngine loop and its heap.
func (l *ledger) calendarShare() float64 {
	t := 0.0
	for f, ns := range l.funcNs {
		if strings.Contains(f, "sim.(*EventEngine)") || strings.Contains(f, "sim.eventHeap") || strings.Contains(f, "sim.(*eventHeap)") {
			t += ns
		}
	}
	if l.total == 0 {
		return 0
	}
	return t / l.total
}

// top returns the n functions with the most CPU.
func (l *ledger) top(n int) []string {
	fs := sortedKeys(l.funcNs)
	sort.SliceStable(fs, func(i, j int) bool { return l.funcNs[fs[i]] > l.funcNs[fs[j]] })
	return fs[:min(n, len(fs))]
}

// moduleOf maps a function name to its repository package, or "" for code
// outside the repository.
func moduleOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "yhccl/perfbench"):
		return "harness"
	case strings.HasPrefix(fn, "yhccl/internal/"):
		rest := fn[len("yhccl/internal/"):]
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	case strings.HasPrefix(fn, "yhccl."):
		return "facade"
	case strings.HasPrefix(fn, "yhccl/"):
		return "other"
	}
	return ""
}

func layerOf(module string) string {
	for _, l := range layers {
		if l == module {
			return l
		}
	}
	return "other"
}

// foldProfile decodes a gzipped pprof CPU profile and folds it by module.
func foldProfile(raw []byte) (*ledger, error) {
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	l := &ledger{moduleNs: map[string]float64{}, layerNs: map[string]float64{},
		funcNs: map[string]float64{}, bySpan: map[string]map[string]float64{}}
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		ns := float64(s.values[len(s.values)-1])
		spanName := s.labels["span"]
		if spanName == "check" {
			l.checkNs += ns
			continue
		}
		module, fn := "runtime", ""
	walk:
		for _, id := range s.locs {
			for _, f := range p.locs[id] {
				name := p.funcs[f]
				if m := moduleOf(name); m != "" {
					module, fn = m, name
					break walk
				}
				// A coroutine switch runs on the system stack, so its
				// samples carry no caller frames. Only sim's engine uses
				// coroutines (iter.Pull), so they count as sim.
				if strings.HasPrefix(name, "runtime.coroswitch") {
					module, fn = "sim", name
				}
			}
		}
		layer := layerOf(module)
		if module == "harness" && spanName != "" {
			layer = layerOf(spanLayer(spanName))
		}
		if fn == "" {
			fn = "(no repository frame)"
		}
		l.total += ns
		l.moduleNs[module] += ns
		l.layerNs[layer] += ns
		l.funcNs[fn] += ns
		if spanName != "" {
			if l.bySpan[spanName] == nil {
				l.bySpan[spanName] = map[string]float64{}
			}
			l.bySpan[spanName][layer] += ns
		}
	}
	return l, nil
}

// profile is the subset of profile.proto the ledger needs.
type profile struct {
	samples []sample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]string   // function id -> name
}

type sample struct {
	locs   []uint64 // innermost first
	values []int64
	labels map[string]string
}

// decodeProfile parses the protobuf-encoded profile written by
// runtime/pprof, using only the fields the ledger reads.
func decodeProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]string{}}
	type rawLabel struct{ key, str int64 }
	var strs []string
	var rawLabels [][]rawLabel
	funcNames := map[uint64]int64{}
	err = eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s sample
			var ls []rawLabel
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				case 3:
					var l rawLabel
					if err := eachField(b, func(num int, v uint64, _ []byte) error {
						switch num {
						case 1:
							l.key = int64(v)
						case 2:
							l.str = int64(v)
						}
						return nil
					}); err != nil {
						return err
					}
					ls = append(ls, l)
				}
				return nil
			})
			p.samples = append(p.samples, s)
			rawLabels = append(rawLabels, ls)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	for id, name := range funcNames {
		p.funcs[id] = str(name)
	}
	for i, ls := range rawLabels {
		if len(ls) == 0 {
			continue
		}
		p.samples[i].labels = map[string]string{}
		for _, l := range ls {
			p.samples[i].labels[str(l.key)] = str(l.str)
		}
	}
	return p, nil
}

// appendPacked appends a repeated varint field that may be packed (b set)
// or a single value.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks a protobuf message, passing varint fields as v and
// length-delimited fields as b (non-nil, possibly empty).
func eachField(data []byte, f func(num int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		data = data[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(data)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint in field %d", num)
			}
			data = data[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(data) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("profile: bad length in field %d", num)
			}
			b := data[n : n+int(l)]
			data = data[n+int(l):]
			if b == nil {
				b = []byte{}
			}
			if err := f(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(data) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}
