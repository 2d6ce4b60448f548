package sim

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"
)

func TestToTicks(t *testing.T) {
	if got := ToTicks(1e-9); got != 1000 {
		t.Fatalf("1ns = %d ticks, want 1000", got)
	}
	if got := ToTicks(0); got != 0 {
		t.Fatalf("0s = %d ticks, want 0", got)
	}
	if got := ToTicks(2.5); got != Tick(2.5e12) {
		t.Fatalf("2.5s = %d ticks", got)
	}
	if s := Tick(3e12).Seconds(); s != 3.0 {
		t.Fatalf("3e12 ticks = %v s, want 3", s)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration did not panic")
		}
	}()
	ToTicks(-1e-9)
}

// TestEventOrderGolden pins the (tick, seq) dispatch order: ties break by
// post order.
func TestEventOrderGolden(t *testing.T) {
	e := NewEventEngine()
	ticks := []Tick{5, 3, 5, 1, 3}
	for i, tk := range ticks {
		e.Post(tk, int32(i), 0)
	}
	var order []int32
	end := e.Run(func(_ Tick, actor, _ int32) { order = append(order, actor) })
	want := []int32{3, 1, 4, 0, 2}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", order, want)
		}
	}
	if end != 5 {
		t.Fatalf("final time %d, want 5", end)
	}
	if e.Processed() != 5 {
		t.Fatalf("processed %d, want 5", e.Processed())
	}
}

// eventTrace runs a self-expanding cascade (each event spawns children from
// a deterministic LCG) and returns the full dispatch trace as bytes.
func eventTrace(seed uint64) []byte {
	var buf bytes.Buffer
	e := NewEventEngine()
	rng := seed
	next := func(n uint64) uint64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) % n
	}
	for i := int32(0); i < 16; i++ {
		e.Post(Tick(next(50)), i, 0)
	}
	budget := 2000
	e.Run(func(now Tick, actor, data int32) {
		fmt.Fprintf(&buf, "%d:%d:%d\n", now, actor, data)
		if budget > 0 && next(3) > 0 {
			budget--
			e.After(Tick(next(40)), actor+100, data+1)
		}
	})
	return buf.Bytes()
}

// TestEventDeterminism: same seed, byte-identical traces across runs.
func TestEventDeterminism(t *testing.T) {
	for _, seed := range []uint64{1, 42, 0xdeadbeef} {
		a, b := eventTrace(seed), eventTrace(seed)
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: traces differ (%d vs %d bytes)", seed, len(a), len(b))
		}
		if len(a) == 0 {
			t.Fatalf("seed %d: empty trace", seed)
		}
	}
	if bytes.Equal(eventTrace(1), eventTrace(2)) {
		t.Fatal("different seeds produced identical traces (trace not sensitive)")
	}
}

func TestPostIntoPastPanics(t *testing.T) {
	e := NewEventEngine()
	e.Post(10, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("posting into the past did not panic")
		}
	}()
	e.Run(func(now Tick, _, _ int32) {
		e.Post(now-1, 1, 0)
	})
}

func TestRunReentryPanics(t *testing.T) {
	e := NewEventEngine()
	e.Post(1, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("re-entering Run did not panic")
		}
	}()
	e.Run(func(Tick, int32, int32) {
		e.Run(func(Tick, int32, int32) {})
	})
}

// lcgGaps is a deterministic stream of calendar gaps below 2^20 ticks
// (about a microsecond), the spread of cluster step completions.
type lcgGaps uint64

func (g *lcgGaps) next() Tick {
	*g = *g*6364136223846793005 + 1442695040888963407
	return Tick(*g >> 44)
}

// rollingCalendar fills an engine to depth pending entries, then re-posts
// from every dispatch until events posts in total, and drains. The handler
// is bound once, so a roll itself allocates nothing.
type rollingCalendar struct {
	e             *EventEngine
	gaps          lcgGaps
	depth, events int
	posts         int
	handle        func(Tick, int32, int32)
}

func newRollingCalendar(depth, events int) *rollingCalendar {
	r := &rollingCalendar{e: NewEventEngine(), gaps: 1, depth: depth, events: events}
	r.handle = func(_ Tick, actor, _ int32) {
		if r.posts < r.events {
			r.posts++
			r.e.After(r.gaps.next(), actor, 0)
		}
	}
	return r
}

func (r *rollingCalendar) roll() {
	r.posts = 0
	for ; r.posts < r.depth && r.posts < r.events; r.posts++ {
		r.e.After(r.gaps.next(), int32(r.posts), 0)
	}
	r.e.Run(r.handle)
}

// TestEventCalendarFlatMemory: calendar storage tracks the peak pending
// count. A rolling calendar of 65,536 entries over 2^20 events allocates
// at most 64 B per pending entry in total, and nothing at all once warm.
func TestEventCalendarFlatMemory(t *testing.T) {
	const depth, events = 1 << 16, 1 << 20
	r := newRollingCalendar(depth, events)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.roll()
	runtime.ReadMemStats(&after)
	if r.e.Processed() != events {
		t.Fatalf("processed %d events, want %d", r.e.Processed(), events)
	}
	if b := float64(after.TotalAlloc-before.TotalAlloc) / depth; b > 64 {
		t.Fatalf("calendar allocated %.1f B per pending entry, budget 64", b)
	}
	if a := testing.AllocsPerRun(1, r.roll); a != 0 {
		t.Fatalf("warm calendar allocated %v times in %d events, want 0", a, events)
	}
}

// calendarScript decodes fuzz bytes into calendar operations; reading past
// the end yields zeros.
type calendarScript struct {
	b []byte
	i int
}

func (s *calendarScript) next() byte {
	if s.i >= len(s.b) {
		return 0
	}
	c := s.b[s.i]
	s.i++
	return c
}

// gap decodes one post's distance from now: zero, small, 24-bit wide, or a
// power of two up to 1<<62.
func (s *calendarScript) gap() Tick {
	c := s.next()
	switch c & 3 {
	case 0:
		return 0
	case 1:
		return Tick(c >> 2)
	case 2:
		return Tick(c>>2)<<16 | Tick(s.next())<<8 | Tick(s.next())
	default:
		return 1 << ((c >> 2) % 63)
	}
}

// FuzzEventCalendar: the dispatch order equals a stable sort of every
// posted event by (tick, post index). Rounds of Post calls alternate with
// Runs whose handler posts further events, including at now.
func FuzzEventCalendar(f *testing.F) {
	f.Fuzz(checkCalendarScript)
}

func checkCalendarScript(t *testing.T, data []byte) {
	const budget = 4096
	s := &calendarScript{b: data}
	e := NewEventEngine()
	var ticks []Tick // by post index
	post := func() {
		tk := Tick(math.MaxInt64)
		if g := s.gap(); g <= tk-e.Now() {
			tk = e.Now() + g
		}
		e.Post(tk, int32(len(ticks)), 0)
		ticks = append(ticks, tk)
	}
	for s.i < len(s.b) {
		first := len(ticks)
		for n := s.next() % 8; n > 0 && len(ticks) < budget; n-- {
			post()
		}
		var got []int32
		e.Run(func(now Tick, actor, _ int32) {
			if now != ticks[actor] {
				t.Fatalf("event %d dispatched at %d, posted for %d", actor, now, ticks[actor])
			}
			got = append(got, actor)
			for n := s.next() % 4; n > 0 && len(ticks) < budget; n-- {
				post()
			}
		})
		want := make([]int32, 0, len(ticks)-first)
		for i := first; i < len(ticks); i++ {
			want = append(want, int32(i))
		}
		sort.SliceStable(want, func(i, j int) bool { return ticks[want[i]] < ticks[want[j]] })
		if !slices.Equal(got, want) {
			t.Fatalf("dispatch order %v, want %v (ticks %v)", got, want, ticks[first:])
		}
		if e.Pending() != 0 || e.Processed() != uint64(len(ticks)) {
			t.Fatalf("after run: pending %d, processed %d of %d", e.Pending(), e.Processed(), len(ticks))
		}
	}
}

// BenchmarkEventPostPop measures one Post plus one dispatch at a steady
// calendar depth, through the public API. 65,536 is cluster_chaos's
// largest job: one entry per in-flight rank.
func BenchmarkEventPostPop(b *testing.B) {
	for _, depth := range []int{1024, 65536} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			r := newRollingCalendar(depth, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			r.roll()
		})
	}
}
