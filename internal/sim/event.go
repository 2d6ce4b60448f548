// Event-calendar simulation core.
//
// The coroutine engine (engine.go) spends one goroutine stack per simulated
// process — fast per switch, but memory-bound at a few thousand procs. The
// event engine in this file is the scale substrate: virtual time is an
// integer 64-bit tick clock, pending work lives in one central calendar,
// and the simulated entities are compact state machines that post events
// instead of blocking coroutines. Memory per actor is flat — a few words of
// state plus at most one calendar entry — and no goroutines are created, so
// cluster-scale worlds (16k–1M ranks) fit in one process.
//
// Determinism: events are totally ordered by (tick, seq), where seq is the
// post order. Ticks are integers, so there is no float accumulation and the
// calendar pop sequence is a pure function of the posted events, exactly as
// the coroutine engine's (clock, push order) run queue is.
//
// The calendar is a monotone radix queue. Post forbids ticks below now, so
// every pending tick is at least last, the tick of the most recent dispatch.
// An entry lives in bucket bits.Len64(tick ^ last): bucket 0 holds ticks
// equal to last, and bucket k>0 holds ticks that first differ from last at
// bit k-1, so every tick in a lower bucket is smaller than every tick in a
// higher one. Dispatch serves bucket 0 front to back. When it runs dry, the
// lowest non-empty bucket is redistributed: last becomes its minimum tick
// and its entries are re-appended, in order, to the lower buckets, which
// are all empty at that moment. Each bucket is a FIFO that only ever
// receives entries in post order, so equal ticks leave in post order and
// seq need not be stored. Buckets are chains of fixed-size blocks drawn
// from a per-engine free list, so calendar storage tracks the peak pending
// count rather than the sum of per-bucket peaks.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Tick is integer virtual time. One tick is one picosecond, so a 64-bit
// tick clock spans ~106 days of simulated time — far beyond any sweep —
// while still resolving sub-nanosecond cost-model terms exactly.
type Tick int64

// TicksPerSecond converts between seconds (the coroutine engine's float
// clock unit) and ticks.
const TicksPerSecond = 1e12

// ToTicks converts a duration in seconds to the nearest tick. Negative or
// NaN durations panic: the cost model must never produce one.
func ToTicks(sec float64) Tick {
	if sec < 0 || math.IsNaN(sec) {
		panic(fmt.Sprintf("sim: invalid duration %v s", sec))
	}
	return Tick(math.Round(sec * TicksPerSecond))
}

// Seconds converts a tick count back to seconds.
func (t Tick) Seconds() float64 { return float64(t) / TicksPerSecond }

// EventEngine is a discrete-event simulator core: a central calendar of
// (tick, seq)-ordered events dispatched to a handler. Actors are identified
// by dense int32 ids; the 32-bit data word rides along for the handler's
// use. The engine holds no per-actor state — callers own it — so the
// per-actor footprint is exactly what the caller's state machine needs.
type EventEngine struct {
	calendar  eventHeap
	now       Tick
	processed uint64
	running   bool
}

// NewEventEngine returns an empty engine at tick 0.
func NewEventEngine() *EventEngine { return &EventEngine{} }

// Now returns the current virtual time (the tick of the event being
// processed, 0 before Run).
func (e *EventEngine) Now() Tick { return e.now }

// Processed returns how many events have been dispatched.
func (e *EventEngine) Processed() uint64 { return e.processed }

// Pending returns how many events are waiting in the calendar.
func (e *EventEngine) Pending() int { return e.calendar.n }

// Post schedules an event for the given actor at absolute tick t. Posting
// into the past panics: virtual time only moves forward.
func (e *EventEngine) Post(t Tick, actor, data int32) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event posted into the past (t=%d, now=%d)", t, e.now))
	}
	e.calendar.push(eventEntry{tick: t, actor: actor, data: data})
}

// After schedules an event d ticks from now (d must be non-negative).
func (e *EventEngine) After(d Tick, actor, data int32) {
	if d < 0 {
		panic(fmt.Sprintf("sim: event posted with negative delay %d", d))
	}
	e.Post(e.now+d, actor, data)
}

// Run dispatches events in (tick, seq) order until the calendar is empty.
// The handler may post further events (at or after the current tick). Run
// returns the final virtual time.
func (e *EventEngine) Run(handle func(now Tick, actor, data int32)) Tick {
	if e.running {
		panic("sim: EventEngine.Run re-entered")
	}
	e.running = true
	defer func() { e.running = false }()
	for e.calendar.n > 0 {
		ev := e.calendar.pop()
		e.now = ev.tick
		e.processed++
		handle(ev.tick, ev.actor, ev.data)
	}
	return e.now
}

// eventEntry is one calendar entry. Its post order is implicit in its
// position within a bucket, so no sequence number is stored.
type eventEntry struct {
	tick  Tick
	actor int32
	data  int32
}

// eventBlockLen entries plus the link fill a 2 KB allocation exactly.
const eventBlockLen = 127

// eventBlock is one link of a bucket's chain. The link comes first so the
// collector scans one word per block, not the entries.
type eventBlock struct {
	next    *eventBlock
	entries [eventBlockLen]eventEntry
}

// eventBucket is a FIFO of entries over a chain of blocks: reads at
// head.entries[rd], writes at tail.entries[wr]. An emptied bucket keeps
// its last block, so a calendar that stays shallow stops allocating.
type eventBucket struct {
	head, tail *eventBlock
	rd, wr     int
	min        Tick // smallest tick held; kept for buckets 1..63 only
}

func (q *eventBucket) empty() bool { return q.head == q.tail && q.rd == q.wr }

// eventHeap is the event calendar: a monotone radix queue ordered by
// (tick, post order); see the package comment. Ticks are never negative,
// so tick^last < 2^63 and 64 buckets cover every key. The type keeps its
// heap-era name because perfbench's CPU ledger finds the calendar by it.
type eventHeap struct {
	n       int        // pending entries
	last    Tick       // tick of the latest dispatch; no pending tick is below it
	mask    uint64     // bit k set while bucket k (k >= 1) is non-empty
	lone    eventEntry // the only pending entry, posted to an empty calendar
	hasLone bool
	buckets [64]eventBucket
	free    *eventBlock // per-engine pool of spare blocks
}

func (h *eventHeap) push(ev eventEntry) {
	// One-entry fast path: an entry posted to an empty calendar waits in
	// lone, so a depth-1 calendar (a serial chain) never touches a bucket.
	if h.n == 0 {
		h.lone, h.hasLone = ev, true
		h.n = 1
		return
	}
	if h.hasLone {
		h.hasLone = false
		h.insert(h.lone)
	}
	h.insert(ev)
	h.n++
}

// insert appends ev to the bucket its tick selects relative to last.
func (h *eventHeap) insert(ev eventEntry) {
	k := bits.Len64(uint64(ev.tick ^ h.last))
	q := &h.buckets[k]
	if k > 0 {
		if h.mask&(1<<k) == 0 {
			h.mask |= 1 << k
			q.min = ev.tick
		} else if ev.tick < q.min {
			q.min = ev.tick
		}
	}
	h.append(q, ev)
}

func (h *eventHeap) append(q *eventBucket, ev eventEntry) {
	if q.wr == eventBlockLen || q.tail == nil {
		b := h.free
		if b != nil {
			h.free = b.next
			b.next = nil
		} else {
			b = new(eventBlock)
		}
		if q.tail == nil {
			q.head = b
		} else {
			q.tail.next = b
		}
		q.tail, q.wr = b, 0
	}
	q.tail.entries[q.wr] = ev
	q.wr++
}

// release returns a fully read block to the engine's pool.
func (h *eventHeap) release(b *eventBlock) {
	b.next = h.free
	h.free = b
}

// pop removes and returns the first entry in (tick, post order). The
// calendar must be non-empty.
func (h *eventHeap) pop() eventEntry {
	h.n--
	if h.hasLone {
		h.hasLone = false
		h.last = h.lone.tick
		return h.lone
	}
	q := &h.buckets[0]
	if q.empty() {
		h.redistribute()
	}
	ev := q.head.entries[q.rd]
	q.rd++
	if q.rd == q.wr && q.head == q.tail {
		q.rd, q.wr = 0, 0
	} else if q.rd == eventBlockLen {
		b := q.head
		q.head, q.rd = b.next, 0
		h.release(b)
	}
	return ev
}

// redistribute refills the empty bucket 0 from the lowest non-empty
// bucket: last advances to that bucket's minimum tick and its entries move,
// in order, to lower buckets (all empty now, since it was the lowest).
// Only bucket 0 is read from the front, so every other bucket's rd is 0.
func (h *eventHeap) redistribute() {
	k := bits.TrailingZeros64(h.mask)
	h.mask &^= 1 << k
	src := &h.buckets[k]
	h.last = src.min
	for b := src.head; ; {
		if b == src.tail {
			for _, ev := range b.entries[:src.wr] {
				h.insert(ev)
			}
			break
		}
		for _, ev := range b.entries {
			h.insert(ev)
		}
		next := b.next
		h.release(b)
		b = next
	}
	src.head, src.wr = src.tail, 0
}
