package engine

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
)

// fuzzChild marks the label of an event a callback scheduled for its own
// cycle.
const fuzzChild = 1 << 20

// fuzzHarness runs one decoded operation list against an Engine and logs
// every dispatch as label@cycle.
type fuzzHarness struct {
	e   *Engine
	log []string
}

// fuzzCB logs the dispatch; with b set it also schedules a child on the
// current cycle, which must run after every event already queued for it.
func fuzzCB(recv, _ any, a, b uint64) {
	h := recv.(*fuzzHarness)
	h.log = append(h.log, fmt.Sprintf("%d@%d", a, h.e.Now()))
	if b != 0 {
		h.e.Call(h.e.Now(), fuzzCB, h, nil, a|fuzzChild, 0)
	}
}

// fuzzBusy stays busy for good and asks for a tick every 97 cycles, so Run
// fast-forwards between its wakes and the events, across the window.
type fuzzBusy struct{}

func (fuzzBusy) Tick(cycle uint64) uint64 { return cycle + 97 }
func (fuzzBusy) Busy() bool               { return true }

// refEvent is one event of the reference queue.
type refEvent struct {
	cycle, seq uint64
	label      uint64
	spawn      bool
	live       bool
}

// refQueue is the reference the engine's queue is checked against: it
// keeps every event in a list and dispatches the live ones in (cycle, seq)
// order.
type refQueue struct {
	now, seq uint64
	evs      []*refEvent
	log      []string
}

func (r *refQueue) call(cycle, label uint64, spawn bool) *refEvent {
	r.seq++
	ev := &refEvent{cycle: cycle, seq: r.seq, label: label, spawn: spawn, live: true}
	r.evs = append(r.evs, ev)
	return ev
}

// runUntil dispatches every live event due before end, then sets the
// clock to end and forgets the events no longer live.
func (r *refQueue) runUntil(end uint64) {
	for {
		var next *refEvent
		for _, ev := range r.evs {
			if ev.live && ev.cycle < end && (next == nil || ev.cycle < next.cycle ||
				ev.cycle == next.cycle && ev.seq < next.seq) {
				next = ev
			}
		}
		if next == nil {
			break
		}
		next.live = false
		r.now = next.cycle
		r.log = append(r.log, fmt.Sprintf("%d@%d", next.label, next.cycle))
		if next.spawn {
			r.call(next.cycle, next.label|fuzzChild, false)
		}
	}
	r.now = end
	live := r.evs[:0]
	for _, ev := range r.evs {
		if ev.live {
			live = append(live, ev)
		}
	}
	r.evs = live
}

// pending groups the live events by cycle, as PendingByCycle does.
func (r *refQueue) pending() []CyclePending {
	var cycles []uint64
	for _, ev := range r.evs {
		if ev.live {
			cycles = append(cycles, ev.cycle)
		}
	}
	sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
	var out []CyclePending
	for _, c := range cycles {
		if n := len(out); n > 0 && out[n-1].Cycle == c {
			out[n-1].Count++
			continue
		}
		out = append(out, CyclePending{Cycle: c, Count: 1})
	}
	return out
}

// checkSchedule decodes data as (op, arg) byte pairs and runs them against
// the engine and the reference:
//
//	0: Call arg%201 cycles ahead (in the window or in the overflow heap)
//	1: Cancel a live event, chosen by arg
//	2: Call arg%201 cycles ahead an event whose callback schedules a
//	   child on its own cycle
//	3: Step
//	4: Run for arg*2 cycles beside an always-busy component
//
// then drains both. Dispatch logs, Cancel results, Pending and
// PendingByCycle must agree throughout.
func checkSchedule(t *testing.T, data []byte) {
	e := New()
	e.AddComponent(fuzzBusy{}).Wake()
	h := &fuzzHarness{e: e}
	ref := &refQueue{}
	type handle struct {
		id EventID
		ev *refEvent
	}
	var live []handle
	var label uint64
	schedule := func(delay uint64, spawn bool) {
		label++
		var b uint64
		if spawn {
			b = 1
		}
		id := e.Call(e.Now()+delay, fuzzCB, h, nil, label, b)
		live = append(live, handle{id, ref.call(ref.now+delay, label, spawn)})
	}
	run := func(cycles uint64) {
		end := e.Now() + cycles
		if _, err := e.Run(end, func() bool { return false }); err == nil || e.Now() != end {
			t.Fatalf("Run(%d) stopped at %d with err %v; want the budget exhausted", end, e.Now(), err)
		}
		ref.runUntil(end)
	}
	for i := 0; i+1 < len(data); i += 2 {
		op, arg := data[i]%5, data[i+1]
		switch op {
		case 0, 2:
			schedule(uint64(arg)%201, op == 2)
		case 1:
			// Forget handles the engine has since dispatched or cancelled.
			n := 0
			for _, hd := range live {
				if hd.ev.live {
					live[n] = hd
					n++
				}
			}
			live = live[:n]
			if n == 0 {
				continue
			}
			k := int(arg) % n
			if !e.Cancel(live[k].id) {
				t.Fatalf("op %d: Cancel of live event %d returned false", i/2, live[k].ev.label)
			}
			live[k].ev.live = false
		case 3:
			e.Step()
			ref.runUntil(ref.now + 1)
		case 4:
			run(uint64(arg) * 2)
		}
		if e.Now() != ref.now {
			t.Fatalf("op %d: engine at cycle %d, reference at %d", i/2, e.Now(), ref.now)
		}
		want := ref.pending()
		if got := e.PendingByCycle(0); !slices.Equal(got, want) {
			t.Fatalf("op %d: PendingByCycle = %v, reference %v", i/2, got, want)
		}
		n := 0
		for _, p := range want {
			n += p.Count
		}
		if e.Pending() != n {
			t.Fatalf("op %d: Pending = %d, reference %d", i/2, e.Pending(), n)
		}
	}
	run(202)
	if e.Pending() != 0 {
		t.Fatalf("%d events left after draining", e.Pending())
	}
	if got, want := strings.Join(h.log, " "), strings.Join(ref.log, " "); got != want {
		t.Fatalf("dispatch order differs from (cycle, seq) order\n got: %s\nwant: %s", got, want)
	}
}

// fuzzSeed is a deterministic operation list for the seed corpus:
// xorshift bytes, so plain `go test` runs a few hundred operations of
// every kind.
func fuzzSeed(seed uint64, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		out[i] = byte(seed)
	}
	return out
}

// FuzzEngineSchedule checks the calendar queue against a reference that
// sorts live events by (cycle, seq), over random mixes of near and far
// Calls, Cancels, same-cycle Calls from callbacks, Steps and Runs whose
// jumps cross the window.
func FuzzEngineSchedule(f *testing.F) {
	f.Add([]byte{0, 63, 0, 64, 0, 65, 3, 0, 4, 40, 1, 0, 4, 100})
	f.Add([]byte{2, 0, 2, 200, 0, 200, 1, 1, 4, 1, 3, 0, 2, 64, 4, 255})
	// An overflow event on 100 must enter its bucket on cycle 37, ahead of
	// a later Call for the same cycle.
	f.Add([]byte{0, 100, 4, 18, 3, 0, 0, 63, 4, 100})
	for seed := uint64(1); seed <= 4; seed++ {
		f.Add(fuzzSeed(seed, 600))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		checkSchedule(t, data)
	})
}

// tickCaller schedules an event for the cycle it is being ticked on.
type tickCaller struct{ e *Engine }

func (c tickCaller) Tick(cycle uint64) uint64 {
	c.e.Call(cycle, nopCB, nil, nil, 0, 0)
	return Never
}

func (tickCaller) Busy() bool { return false }

// TestCallAfterDispatchPanics pins that a component tick may not schedule
// on its own cycle: that cycle's events have already run, so the event
// would never dispatch. A callback may still schedule on its own cycle.
func TestCallAfterDispatchPanics(t *testing.T) {
	e := New()
	e.AddComponent(tickCaller{e}).Wake()
	e.At(0, func() { e.At(0, func() {}) })
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "scheduling at cycle 0 after its events ran") {
			t.Fatalf("recovered %q, want the after-dispatch panic", msg)
		}
		if got := e.Metrics().Snapshot().Counters[metricEventsExecuted]; got != 2 {
			t.Errorf("%d events ran before the tick, want 2", got)
		}
	}()
	e.Step()
	t.Fatal("Call on the current cycle from a tick did not panic")
}

// benchLoad is BenchmarkEngineDispatch's closed population: every
// dispatched event reschedules itself 1–15 cycles ahead, or 16–300 ahead
// one time in 500, drawn from a fixed xorshift sequence.
type benchLoad struct {
	e   *Engine
	rng uint64
	n   int
}

func (l *benchLoad) delay() uint64 {
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	if l.rng%500 == 0 {
		return 16 + (l.rng>>9)%285
	}
	return 1 + (l.rng>>9)%15
}

func benchCB(recv, _ any, _, _ uint64) {
	l := recv.(*benchLoad)
	l.n++
	l.e.CallAfter(l.delay(), benchCB, l, nil, 0, 0)
}

// BenchmarkEngineDispatch measures the engine's host cost per event,
// schedule plus dispatch, with a fixed number of events pending: 32 is
// the peak of a 32-core run, 1024 what a much larger machine would keep.
func BenchmarkEngineDispatch(b *testing.B) {
	for _, depth := range []int{32, 1024} {
		b.Run(fmt.Sprint(depth), func(b *testing.B) {
			b.ReportAllocs()
			l := &benchLoad{e: New(), rng: 0x9e3779b97f4a7c15}
			for i := 0; i < depth; i++ {
				l.e.CallAfter(l.delay(), benchCB, l, nil, 0, 0)
			}
			for l.n < 50*depth {
				l.e.Step()
			}
			l.n = 0
			b.ResetTimer()
			for l.n < b.N {
				l.e.Step()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(l.n), "ns/event")
		})
	}
}
