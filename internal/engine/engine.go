// Package engine provides the deterministic cycle-driven event core shared
// by every simulated component: a virtual clock and an event queue ordered
// by (cycle, insertion sequence).
//
// All components of the simulator schedule work through a single Engine, so
// a whole-system run is a pure function of its inputs: events due on the
// same cycle execute in the exact order they were scheduled.
//
// Clocked components (the mesh NoC, the G-line networks) are not polled:
// each tells the engine the next cycle it has work on, inputs wake it for
// the current cycle, and Run fast-forwards over every cycle on which no
// event is due and no component is (DESIGN.md §10, "Activity-driven
// stepping").
//
// The queue is built for zero steady-state allocation (DESIGN.md §10):
// events live in a slab recycled through an intrusive free list, and hot
// callers schedule typed Callbacks whose operands are pointer-shaped (so
// the any fields don't allocate either). The queue itself is a calendar
// (R. Brown, CACM 31(10), 1988): an event due within the next window
// cycles joins the FIFO bucket of its cycle, chained through the slab, and
// only later events wait in a 4-ary min-heap of small (cycle, seq, slot)
// keys until their cycle enters the window. The closure-based At/After
// remain for cold paths and tests.
package engine

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// spanEngineFF is the timeline instant marking a fast-forward jump; arg
// carries the number of cycles skipped.
const spanEngineFF = "engine.ff"

// Callback is the typed form of a scheduled event: a shared function
// applied to the receiver/operand words captured at schedule time. Hot
// paths pass pointer-shaped recv/obj values (pointers, funcs), which
// convert to `any` without allocating; integer operands ride in a and b.
type Callback func(recv, obj any, a, b uint64)

// event is one slot of the engine's event slab. A slot is queued between
// Call and its dispatch (or Cancel + dispatch of the dead entry); next
// chains a queued slot to the one behind it in its bucket, and a free slot
// to the next free one.
type event struct {
	cycle uint64
	seq   uint64
	cb    Callback
	recv  any
	obj   any
	a, b  uint64
	next  int32
}

// window is the calendar's span in cycles: an event due before
// now+window sits in bucket cycle&(window-1), a later one in the overflow
// heap. Nearly every event lands 1–15 cycles ahead.
const window = 64

// heapEntry mirrors one overflow event in the heap. Keeping the ordering
// key outside the slab means sift compares never touch event payloads,
// and the heap never holds pointers.
type heapEntry struct {
	cycle uint64
	seq   uint64
	idx   int32
}

// EventID identifies a scheduled event for Cancel. The zero EventID is
// never valid: sequence numbers start at 1.
type EventID struct {
	idx int32
	seq uint64
}

// Never is the wake cycle of a component with nothing scheduled: it is
// ticked again only when an input wakes it.
const Never = ^uint64(0)

// Component is a clocked part of the simulated system (the mesh NoC, a
// G-line network) that the engine ticks only on cycles it has work on.
type Component interface {
	// Tick steps the component through cycle and returns the next cycle
	// it has work on by itself, or Never. A tick on a cycle the component
	// did not ask for must behave like any other step, so callers may
	// also drive a component directly, one Tick per cycle.
	Tick(cycle uint64) (next uint64)
	// Busy reports whether the component holds work in flight (a packet
	// on the mesh, a barrier waiting for arrivals), including while it
	// sleeps until an input. Run's stop and stall rules read it, and
	// while no component is busy Run ignores their wakes.
	Busy() bool
}

// Waker is a registered component's handle on its engine. An input that
// gives a component work calls Wake, so the component is ticked on the
// current cycle. The zero Waker belongs to a component driven directly by
// its caller and ignores wakes.
type Waker struct {
	e  *Engine
	id int
}

// Wake schedules the component for a tick on the current cycle, or on the
// next one when its tick for this cycle has already run.
//
//glvet:cyclepath
func (w Waker) Wake() {
	e := w.e
	if e == nil {
		return
	}
	if e.due[w.id] > e.now {
		e.due[w.id] = e.now
	}
	if e.nextDue > e.now {
		e.nextDue = e.now
	}
}

// Now returns the engine's current cycle (0 for the zero Waker).
func (w Waker) Now() uint64 {
	if w.e == nil {
		return 0
	}
	return w.e.now
}

// Engine is the deterministic simulation core.
type Engine struct {
	now uint64
	// floor is the earliest cycle Call accepts: now, or now+1 once the
	// current cycle's events have run.
	floor uint64
	seq   uint64
	slab  []event
	free  int32 // head of the slot free list, -1 when empty

	// The calendar: head[i]/tail[i] chain, in seq order, the events of the
	// one cycle in [now, now+window) that maps to bucket i, and bit i of
	// full marks bucket i non-empty. heap holds the events due later.
	head, tail [window]int32
	full       uint64
	heap       []heapEntry
	live       int // scheduled events not yet dispatched or cancelled

	// comps are the registered components in tick order; due[i] is the
	// cycle comps[i] is next ticked on (Never while it sleeps), and
	// nextDue the minimum over due.
	comps   []Component
	due     []uint64
	nextDue uint64

	// StallLimit arms the hang watchdog: if components stay busy but no
	// event executes for this many consecutive cycles, Run aborts with a
	// stall error instead of burning the whole cycle budget. 0 disables.
	StallLimit uint64
	// Stop, when set, is polled every stopPoll iterations of Run's loop; a
	// non-nil result ends Run at the current cycle with an error wrapping
	// it. Callers set it to a context's Err so a cancelled run ends. The
	// poll only ends runs: a run it never stops is bit-identical to one
	// without it.
	Stop func() error

	reg       *metrics.Registry
	executed  *metrics.Counter
	peakQueue *metrics.Gauge
	ffJumps   *metrics.Counter
	ffCycles  *metrics.Counter
	ticks     *metrics.Counter

	// tl, when set, records fast-forward jumps as timeline instants.
	tl *trace.Timeline
}

// Metric names registered by the engine.
const (
	metricEventsExecuted   = "engine.events.executed"
	metricQueueDepth       = "engine.queue.depth"
	metricFastforwardJumps = "engine.fastforward.jumps"
	metricFastforwardCycs  = "engine.fastforward.cycles"
	metricTicks            = "engine.ticks"
)

// New returns an Engine at cycle 0 with an empty event queue.
func New() *Engine {
	e := &Engine{reg: metrics.NewRegistry(), free: -1, seq: 1, nextDue: Never}
	for i := range e.head {
		e.head[i] = -1
	}
	e.executed = e.reg.Counter(metricEventsExecuted)
	e.peakQueue = e.reg.Gauge(metricQueueDepth)
	e.ffJumps = e.reg.Counter(metricFastforwardJumps)
	e.ffCycles = e.reg.Counter(metricFastforwardCycs)
	e.ticks = e.reg.Counter(metricTicks)
	return e
}

// SetTimeline attaches a span timeline recording fast-forward jumps.
func (e *Engine) SetTimeline(tl *trace.Timeline) { e.tl = tl }

// Metrics returns the engine's metric registry (event counts, queue depth,
// fast-forward statistics, component ticks).
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// Now returns the current cycle.
func (e *Engine) Now() uint64 { return e.now }

// callFunc adapts the closure-based At/After API onto the typed slot: the
// closure itself is the receiver. The func-to-any conversion is free; only
// building the closure at the call site may allocate.
func callFunc(recv, _ any, _, _ uint64) { recv.(func())() }

// At schedules fn to run at the given absolute cycle. Scheduling in the past
// panics: it always indicates a component bug, never a recoverable state.
func (e *Engine) At(cycle uint64, fn func()) {
	e.Call(cycle, callFunc, fn, nil, 0, 0)
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay uint64, fn func()) { e.Call(e.now+delay, callFunc, fn, nil, 0, 0) }

// Call schedules cb(recv, obj, a, b) at the given absolute cycle and
// returns the event's id for Cancel. This is the allocation-free
// scheduling path: the event occupies a recycled slab slot and recv/obj
// only avoid boxing when they hold pointer-shaped values. Scheduling in
// the past panics, as with At, and so does scheduling on the current
// cycle once its events have run (from a component's Tick): nothing would
// ever dispatch it.
//
//glvet:cyclepath
func (e *Engine) Call(cycle uint64, cb Callback, recv, obj any, a, b uint64) EventID {
	if cycle < e.floor {
		if cycle == e.now {
			panic(fmt.Sprintf("engine: scheduling at cycle %d after its events ran", cycle))
		}
		panic(fmt.Sprintf("engine: scheduling at cycle %d, now %d", cycle, e.now))
	}
	if cb == nil {
		panic("engine: scheduling a nil callback")
	}
	idx := e.free
	if idx >= 0 {
		e.free = e.slab[idx].next
	} else {
		//lint:allow allocfree slab warm-up; steady state pops recycled slots from the free list
		e.slab = append(e.slab, event{})
		idx = int32(len(e.slab) - 1)
	}
	ev := &e.slab[idx]
	ev.cycle, ev.seq = cycle, e.seq
	ev.cb, ev.recv, ev.obj = cb, recv, obj
	ev.a, ev.b = a, b
	if cycle-e.now < window {
		e.enqueue(cycle, idx)
	} else {
		e.push(heapEntry{cycle: cycle, seq: e.seq, idx: idx})
	}
	id := EventID{idx: idx, seq: e.seq}
	e.seq++
	e.live++
	e.peakQueue.Set(uint64(e.live))
	return id
}

// CallAfter schedules cb(recv, obj, a, b) delay cycles from now.
//
//glvet:cyclepath
func (e *Engine) CallAfter(delay uint64, cb Callback, recv, obj any, a, b uint64) EventID {
	return e.Call(e.now+delay, cb, recv, obj, a, b)
}

// Cancel revokes a scheduled event. It reports whether the event was still
// pending (false for already-dispatched, already-cancelled, or foreign
// ids). Cancellation is lazy: the slot is cleared immediately so the
// callback and its operands drop their references, and the dead entry
// stays queued until its cycle drains. Cancelled events do not count as
// executed and do not disturb the (cycle, seq) order of live ones.
func (e *Engine) Cancel(id EventID) bool {
	if id.idx < 0 || int(id.idx) >= len(e.slab) {
		return false
	}
	ev := &e.slab[id.idx]
	if ev.seq != id.seq || ev.cb == nil {
		return false
	}
	ev.cb, ev.recv, ev.obj = nil, nil, nil
	e.live--
	return true
}

// AddComponent registers c and returns the Waker its inputs call. A
// component sleeps until its first wake; on any cycle, components due then
// are ticked after the cycle's events, in registration order.
func (e *Engine) AddComponent(c Component) Waker {
	e.comps = append(e.comps, c)
	e.due = append(e.due, Never)
	return Waker{e: e, id: len(e.comps) - 1}
}

// Pending reports the number of scheduled events (cancelled ones excluded).
func (e *Engine) Pending() int { return e.live }

// CyclePending summarizes queued events grouped by due cycle.
type CyclePending struct {
	Cycle uint64 `json:"cycle"`
	Count int    `json:"count"`
}

// PendingByCycle returns up to limit (cycle, count) groups of queued events
// in ascending cycle order — the raw material of a hang post-mortem. A
// limit <= 0 returns every group.
func (e *Engine) PendingByCycle(limit int) []CyclePending {
	if e.live == 0 {
		return nil
	}
	cycles := make([]uint64, 0, e.live)
	for full := e.full; full != 0; full &= full - 1 {
		for idx := e.head[bits.TrailingZeros64(full)]; idx >= 0; idx = e.slab[idx].next {
			if e.slab[idx].cb != nil {
				cycles = append(cycles, e.slab[idx].cycle)
			}
		}
	}
	for _, he := range e.heap {
		if e.slab[he.idx].cb == nil {
			continue // cancelled, still awaiting its cycle
		}
		cycles = append(cycles, he.cycle)
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
	var out []CyclePending
	for _, c := range cycles {
		if n := len(out); n > 0 && out[n-1].Cycle == c {
			out[n-1].Count++
			continue
		}
		if limit > 0 && len(out) == limit {
			break
		}
		out = append(out, CyclePending{Cycle: c, Count: 1})
	}
	return out
}

// enqueue appends slot idx to the bucket of cycle, which must lie in
// [now, now+window). Its seq is the largest queued for that cycle, so each
// bucket stays in seq order.
//
//glvet:cyclepath
func (e *Engine) enqueue(cycle uint64, idx int32) {
	b := cycle & (window - 1)
	e.slab[idx].next = -1
	if e.head[b] < 0 {
		e.head[b] = idx
		e.full |= 1 << b
	} else {
		e.slab[e.tail[b]].next = idx
	}
	e.tail[b] = idx
}

// advance moves the clock to cycle to and moves the overflow events whose
// cycle has entered the window into their buckets, in (cycle, seq) order,
// before any Call can reach those cycles directly.
//
//glvet:cyclepath
func (e *Engine) advance(to uint64) {
	e.now, e.floor = to, to
	for len(e.heap) > 0 && e.heap[0].cycle-to < window {
		cycle := e.heap[0].cycle
		e.enqueue(cycle, e.pop())
	}
}

// root returns the earliest cycle holding a queued event, live or
// cancelled, or Never when the queue is empty.
func (e *Engine) root() uint64 {
	if e.full != 0 {
		off := e.now & (window - 1)
		return e.now + uint64(bits.TrailingZeros64(bits.RotateLeft64(e.full, -int(off))))
	}
	if len(e.heap) > 0 {
		return e.heap[0].cycle
	}
	return Never
}

// entryLess orders heap entries by (cycle, seq): same-cycle events run in
// the exact order they were scheduled.
func entryLess(x, y heapEntry) bool {
	if x.cycle != y.cycle {
		return x.cycle < y.cycle
	}
	return x.seq < y.seq
}

// push inserts a key into the 4-ary min-heap. The wide node keeps the tree
// two levels shallower than a binary heap at typical queue depths, and the
// backing array only grows until the run's peak depth.
func (e *Engine) push(he heapEntry) {
	h := append(e.heap, he)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entryLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.heap = h
}

// pop removes the minimum key and returns its slab slot.
func (e *Engine) pop() int32 {
	h := e.heap
	idx := h[0].idx
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	e.heap = h
	i := 0
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		m := first
		end := first + 4
		if end > len(h) {
			end = len(h)
		}
		for c := first + 1; c < end; c++ {
			if entryLess(h[c], h[m]) {
				m = c
			}
		}
		if !entryLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return idx
}

// Step advances the simulation by exactly one cycle: it runs every event due
// at the current cycle (including events those events schedule for the same
// cycle), then ticks the components due this cycle, then advances the clock.
//
//glvet:cyclepath
func (e *Engine) Step() {
	e.dispatch()
	e.floor = e.now + 1
	if e.nextDue <= e.now {
		e.tick()
	}
	e.advance(e.now + 1)
}

// dispatch runs the events due at the current cycle: it drains the
// current cycle's bucket front to back, including events appended to it
// by the callbacks it runs.
//
// A slot is returned to the free list before its callback runs, so the
// callback's own scheduling reuses it immediately; ordering is untouched
// because dispatch order is fixed by the already-assigned (cycle, seq).
//
//glvet:cyclepath
func (e *Engine) dispatch() {
	bk := e.now & (window - 1)
	for e.head[bk] >= 0 {
		idx := e.head[bk]
		ev := &e.slab[idx]
		e.head[bk] = ev.next
		cb, recv, obj, a, b := ev.cb, ev.recv, ev.obj, ev.a, ev.b
		ev.cb, ev.recv, ev.obj = nil, nil, nil
		ev.next = e.free
		e.free = idx
		if cb == nil {
			continue // cancelled; the slot is reclaimed above
		}
		e.live--
		cb(recv, obj, a, b)
		e.executed.Inc()
	}
	e.full &^= 1 << bk
}

// tick runs the components due at the current cycle, in registration
// order, and recomputes nextDue. A component woken during another's tick
// (or its own) is due now; it is ticked on the next cycle.
//
//glvet:cyclepath
func (e *Engine) tick() {
	e.nextDue = Never
	for i, c := range e.comps {
		if e.due[i] <= e.now {
			e.due[i] = Never
			e.ticks.Inc()
			if next := c.Tick(e.now); next < e.due[i] {
				e.due[i] = next
			}
		}
		if e.due[i] < e.nextDue {
			e.nextDue = e.due[i]
		}
	}
}

// nextWork returns the earliest cycle anything is scheduled for: the
// queue's root (live or cancelled — Step only drains the root's own cycle,
// so no jump may pass it) or the next component wake (possibly stale: a
// component ticked on a cycle it no longer needs does a no-op step).
// Never when neither exists.
func (e *Engine) nextWork() uint64 {
	return min(e.nextDue, e.root())
}

// busy reports whether any component holds work in flight.
func (e *Engine) busy() bool {
	for _, c := range e.comps {
		if c.Busy() {
			return true
		}
	}
	return false
}

// jump fast-forwards the clock to cycle to, which must not pass the
// queue's root.
func (e *Engine) jump(to uint64) {
	e.ffJumps.Inc()
	e.ffCycles.Add(to - e.now)
	e.tl.Instant(trace.EngineTrack(), spanEngineFF, e.now, 0, to-e.now)
	e.advance(to)
}

// stopPoll is how many iterations of Run's loop pass between polls of
// Engine.Stop.
const stopPoll = 1024

// Run drives the simulation until done() reports true or no work remains or
// maxCycles elapses, stepping only cycles on which an event or a component
// is due and fast-forwarding over the rest. It returns the cycle at which it
// stopped and an error if the cycle budget was exhausted with work still
// pending, if Stop reported an error, or — when StallLimit is set — if
// components stayed busy without a single event executing for StallLimit
// consecutive cycles (a livelocked spin).
//
// Skipped cycles are accounted exactly as if each had been stepped: while
// a component is busy, Run stops on the cycle after the last program
// finishes and counts every skipped cycle toward the stall limit; while
// none is, it jumps straight to the next event, as an idle system would.
func (e *Engine) Run(maxCycles uint64, done func() bool) (uint64, error) {
	var idle uint64 // consecutive busy cycles with no event executed
	for iter := uint64(1); e.now < maxCycles; iter++ {
		if done() {
			return e.now, nil
		}
		if e.Stop != nil && iter%stopPoll == 0 {
			if err := e.Stop(); err != nil {
				return e.now, fmt.Errorf("engine: stopped at cycle %d: %w", e.now, err)
			}
		}
		before := e.executed.Value()
		e.Step()
		busy := e.busy()
		if e.executed.Value() != before {
			idle = 0
		} else if busy {
			idle++
			if e.StallLimit > 0 && idle >= e.StallLimit {
				return e.now, e.stallError(idle)
			}
		}
		if !busy {
			// No component has work in flight, so any wake left is stale
			// (a disarmed deadline): only events count.
			if e.live == 0 {
				if done() {
					return e.now, nil
				}
				return e.now, fmt.Errorf("engine: deadlock at cycle %d: no events, no busy component, simulation not done", e.now)
			}
			// Nothing happens until the next event: jump. (The root may be
			// a cancelled entry at an earlier cycle; the jump then lands on
			// it, Step discards it, and the next iteration jumps again.)
			if root := e.root(); root > e.now {
				e.jump(root)
			}
			continue
		}
		next := e.nextWork()
		if next <= e.now {
			continue
		}
		// A component is busy but nothing is due before next: every cycle
		// up to it would step without an event, so finish, stall or jump
		// exactly where stepping them one by one would have.
		target := min(next, maxCycles)
		if target <= e.now {
			continue
		}
		if done() {
			return e.now, nil
		}
		if e.StallLimit > 0 && e.now+(e.StallLimit-idle) <= target {
			e.jump(e.now + (e.StallLimit - idle))
			return e.now, e.stallError(e.StallLimit)
		}
		idle += target - e.now
		e.jump(target)
	}
	if done() {
		return e.now, nil
	}
	return e.now, fmt.Errorf("engine: cycle budget %d exhausted", maxCycles)
}

// stallError reports a watchdog stop at the current cycle.
func (e *Engine) stallError(idle uint64) error {
	return fmt.Errorf("engine: stall at cycle %d: no event executed for %d cycles with components busy", e.now, idle)
}
