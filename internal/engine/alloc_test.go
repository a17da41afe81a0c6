package engine

import (
	"testing"
)

// recordCB appends a to the int slice recv points at. Package-level so the
// alloc gates schedule an existing func value rather than building closures.
func recordCB(recv, _ any, a, _ uint64) {
	s := recv.(*[]int)
	*s = append(*s, int(a))
}

// nopCB is a do-nothing typed callback for pure scheduling churn.
func nopCB(_, _ any, _, _ uint64) {}

// TestZeroAllocScheduleDispatch is the engine's alloc regression gate: once
// the slab and heap are warm, a Call/CallAfter + Step round-trip must not
// allocate at all (ISSUE: zero steady-state allocation on the cycle path).
func TestZeroAllocScheduleDispatch(t *testing.T) {
	e := New()
	// Warm up: grow the slab, the heap array, and the free list to their
	// steady-state footprint.
	for i := 0; i < 64; i++ {
		e.Call(e.Now()+uint64(i%4)+1, nopCB, e, nil, 0, 0)
	}
	for e.Pending() > 0 {
		e.Step()
	}

	allocs := testing.AllocsPerRun(200, func() {
		e.Call(e.Now(), nopCB, e, nil, 1, 2)
		e.CallAfter(1, nopCB, e, nil, 3, 4)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("schedule+dispatch round-trip allocates %.1f objects/op, want 0", allocs)
	}
	if e.Pending() != 0 {
		t.Fatalf("queue not drained after gate: %d pending", e.Pending())
	}
}

// TestZeroAllocCancel pins the cancel path: scheduling and cancelling must
// reuse the slab slot without allocating once warm.
func TestZeroAllocCancel(t *testing.T) {
	e := New()
	for i := 0; i < 32; i++ {
		e.Call(e.Now()+1, nopCB, e, nil, 0, 0)
	}
	for e.Pending() > 0 {
		e.Step()
	}
	allocs := testing.AllocsPerRun(200, func() {
		id := e.Call(e.Now()+1, nopCB, e, nil, 0, 0)
		if !e.Cancel(id) {
			t.Fatal("cancel of live event failed")
		}
		e.Step() // pop the dead heap entry, free the slot
	})
	if allocs != 0 {
		t.Fatalf("schedule+cancel round-trip allocates %.1f objects/op, want 0", allocs)
	}
}

// TestPoolReuseKeepsSameCycleFIFO is the adversarial ordering test for slot
// reuse: a schedule/cancel/reschedule pattern that forces freed slab slots
// to be reused within the same cycle must still dispatch surviving events
// in exact schedule (seq) order. This is the determinism invariant that
// makes pooling safe (DESIGN.md §10).
func TestPoolReuseKeepsSameCycleFIFO(t *testing.T) {
	e := New()
	var got []int

	// Events A(0), B(1), C(2), D(3) at cycle 5; cancel B before it runs.
	// A's callback schedules E(4) for the same cycle mid-dispatch — its
	// slot comes off the free list populated by A's own just-freed slot.
	idB := e.Call(5, recordCB, &got, nil, 1, 0)
	e.At(5, func() {
		got = append(got, 0)
		e.Call(5, recordCB, &got, nil, 4, 0)
	})
	e.Call(5, recordCB, &got, nil, 2, 0)
	e.Call(5, recordCB, &got, nil, 3, 0)
	if !e.Cancel(idB) {
		t.Fatal("cancel of pending event returned false")
	}
	if e.Cancel(idB) {
		t.Fatal("double cancel returned true")
	}
	for e.Pending() > 0 {
		e.Step()
	}
	// Scheduling order (by seq): B=1(cancelled), A=0, C=2, D=3, then E=4
	// scheduled during A's dispatch.
	want := []int{0, 2, 3, 4}
	if !equalInts(got, want) {
		t.Fatalf("same-cycle order with cancel+reuse = %v, want %v", got, want)
	}

	// A stale EventID whose slot has been recycled must not cancel the new
	// occupant: seq disambiguates generations of the same slot.
	got = got[:0]
	stale := e.Call(e.Now()+1, recordCB, &got, nil, 9, 0)
	if !e.Cancel(stale) {
		t.Fatal("cancel failed")
	}
	e.Step() // advance to the dead entry's cycle
	e.Step() // pop it: the slot returns to the free list
	e.Call(e.Now()+1, recordCB, &got, nil, 7, 0)
	if e.Cancel(stale) {
		t.Fatal("stale EventID cancelled the slot's new occupant")
	}
	for e.Pending() > 0 {
		e.Step()
	}
	if !equalInts(got, []int{7}) {
		t.Fatalf("after stale-cancel attempt got %v, want [7]", got)
	}
}

// TestPoolChurnPreservesOrderAcrossRounds hammers the free list: every
// round schedules a batch at the next cycle, cancels alternating entries,
// and checks the survivors run in schedule order. Round N's slots are all
// recycled from round N-1, so any free-list ordering leak shows up fast.
func TestPoolChurnPreservesOrderAcrossRounds(t *testing.T) {
	e := New()
	var got []int
	ids := make([]EventID, 8)
	for round := 0; round < 100; round++ {
		got = got[:0]
		for i := 0; i < 8; i++ {
			ids[i] = e.Call(e.Now()+1, recordCB, &got, nil, uint64(i), 0)
		}
		for i := 1; i < 8; i += 2 {
			if !e.Cancel(ids[i]) {
				t.Fatalf("round %d: cancel %d failed", round, i)
			}
		}
		e.Step() // advance to the batch's cycle
		e.Step() // dispatch survivors, reclaim every slot
		if !equalInts(got, []int{0, 2, 4, 6}) {
			t.Fatalf("round %d: survivors ran as %v, want [0 2 4 6]", round, got)
		}
		if e.Pending() != 0 {
			t.Fatalf("round %d: %d events leaked", round, e.Pending())
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestZeroAllocOverflowMigration gates the calendar's overflow tier: events
// scheduled a window or more ahead wait in the heap, move into their
// buckets as the clock reaches them (by Step and by Run's fast-forward),
// and dispatch without allocating once warm.
func TestZeroAllocOverflowMigration(t *testing.T) {
	e := New()
	drained := func() bool { return e.Pending() == 0 }
	round := func() {
		e.CallAfter(window, nopCB, e, nil, 0, 0)
		e.CallAfter(window+1, nopCB, e, nil, 0, 0)
		for i := 0; i < window+2; i++ {
			e.Step()
		}
		e.CallAfter(window+37, nopCB, e, nil, 0, 0)
		e.CallAfter(300, nopCB, e, nil, 0, 0)
		if _, err := e.Run(e.Now()+1000, drained); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		round()
	}
	before := e.Metrics().Snapshot().Counters[metricEventsExecuted]
	allocs := testing.AllocsPerRun(200, round)
	if allocs != 0 {
		t.Fatalf("overflow schedule+migrate+dispatch allocates %.1f objects/op, want 0", allocs)
	}
	if got := e.Metrics().Snapshot().Counters[metricEventsExecuted] - before; got != 4*201 {
		t.Fatalf("%d events ran, want %d", got, 4*201)
	}
	if e.Pending() != 0 {
		t.Fatalf("queue not drained after gate: %d pending", e.Pending())
	}
}
