package engine

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsRunInCycleOrder(t *testing.T) {
	e := New()
	var got []uint64
	for _, cyc := range []uint64{5, 1, 3, 1, 0, 5} {
		cyc := cyc
		e.At(cyc, func() { got = append(got, cyc) })
	}
	for i := 0; i < 10; i++ {
		e.Step()
	}
	want := []uint64{0, 1, 1, 3, 5, 5}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 20; i++ {
		i := i
		e.At(7, func() { got = append(got, i) })
	}
	for e.Now() <= 7 {
		e.Step()
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-cycle events reordered: %v", got)
		}
	}
}

func TestEventScheduledDuringOwnCycleRuns(t *testing.T) {
	e := New()
	ran := false
	e.At(3, func() {
		e.At(3, func() { ran = true })
	})
	for i := 0; i < 5; i++ {
		e.Step()
	}
	if !ran {
		t.Error("event chained at the same cycle did not run")
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := New()
	e.At(0, func() {})
	e.Step()
	e.Step()
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past did not panic")
		}
	}()
	e.At(0, func() {})
}

// countComp stays busy for `active` ticks, asking for every next cycle,
// then goes idle.
type countComp struct {
	ticks  int
	active int
}

func (c *countComp) Tick(cycle uint64) uint64 {
	c.ticks++
	c.active--
	if c.active > 0 {
		return cycle + 1
	}
	return Never
}

func (c *countComp) Busy() bool { return c.active > 0 }

// addAwake registers c and wakes it for the current cycle.
func addAwake(e *Engine, c Component) {
	e.AddComponent(c).Wake()
}

func TestRunFastForwardsIdleGaps(t *testing.T) {
	e := New()
	tk := &countComp{active: 3}
	addAwake(e, tk)
	done := false
	e.At(1000, func() { done = true })
	end, err := e.Run(10_000, func() bool { return done })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// The event fires during cycle 1000; Run returns after that cycle.
	if end != 1001 {
		t.Errorf("ended at %d, want 1001", end)
	}
	// The component goes idle after 3 ticks; the engine must not tick it
	// 1000 times.
	if tk.ticks != 3 {
		t.Errorf("component ticked %d times, want 3", tk.ticks)
	}
}

func TestRunDeadlockDetection(t *testing.T) {
	e := New()
	_, err := e.Run(1000, func() bool { return false })
	if err == nil {
		t.Error("expected deadlock error with no events and no done")
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	e := New()
	var reschedule func()
	reschedule = func() { e.After(1, reschedule) }
	e.After(1, reschedule)
	_, err := e.Run(100, func() bool { return false })
	if err == nil {
		t.Error("expected budget-exhausted error")
	}
}

// Property: events fire exactly at their scheduled cycles regardless of
// insertion order.
func TestPropEventTiming(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%50) + 1
		r := rand.New(rand.NewSource(seed))
		e := New()
		cycles := make([]uint64, n)
		fired := make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			cycles[i] = uint64(r.Intn(200))
			cyc := cycles[i]
			e.At(cyc, func() {
				if e.Now() != cyc {
					t.Errorf("event for %d fired at %d", cyc, e.Now())
				}
				fired = append(fired, cyc)
			})
		}
		for i := 0; i < 220; i++ {
			e.Step()
		}
		sort.Slice(cycles, func(i, j int) bool { return cycles[i] < cycles[j] })
		if len(fired) != n {
			return false
		}
		for i := range cycles {
			if fired[i] != cycles[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestRunFastForwardEdges pins the edge cases of Run's fast-forward path:
// an event scheduled exactly at maxCycles, a component going idle on the
// same cycle an event fires, and same-cycle re-entrant At ordering.
func TestRunFastForwardEdges(t *testing.T) {
	cases := []struct {
		name    string
		budget  uint64
		setup   func(e *Engine, log *[]string) func() bool // returns done()
		wantEnd uint64
		wantErr bool
		wantLog []string
	}{
		{
			// The fast-forward jumps now straight to maxCycles, the
			// `now < maxCycles` guard exits, and the event never runs:
			// the budget is exhausted with work still pending.
			name:   "event exactly at maxCycles never runs",
			budget: 500,
			setup: func(e *Engine, log *[]string) func() bool {
				e.At(500, func() { *log = append(*log, "edge") })
				return func() bool { return false }
			},
			wantEnd: 500,
			wantErr: true,
			wantLog: nil,
		},
		{
			// One more cycle of budget and the same event fires.
			name:   "event at maxCycles-1 runs",
			budget: 501,
			setup: func(e *Engine, log *[]string) func() bool {
				done := false
				e.At(500, func() { *log = append(*log, "edge"); done = true })
				return func() bool { return done }
			},
			wantEnd: 501,
			wantLog: []string{"edge"},
		},
		{
			// The component's last busy tick is cycle 2 — the same cycle
			// the event fires and completes the run.
			name:   "component idles on the event's cycle",
			budget: 1000,
			setup: func(e *Engine, log *[]string) func() bool {
				addAwake(e, &countComp{active: 3})
				done := false
				e.At(2, func() { *log = append(*log, "fire"); done = true })
				return func() bool { return done }
			},
			wantEnd: 3,
			wantLog: []string{"fire"},
		},
		{
			// Same setup but the run never completes: with the component
			// idle and the event queue drained the engine must report
			// deadlock rather than spin to the budget.
			name:   "component idles on the event's cycle, not done",
			budget: 1000,
			setup: func(e *Engine, log *[]string) func() bool {
				addAwake(e, &countComp{active: 3})
				e.At(2, func() { *log = append(*log, "fire") })
				return func() bool { return false }
			},
			wantEnd: 3,
			wantErr: true,
			wantLog: []string{"fire"},
		},
		{
			// A runs first (seq 0) and schedules B for the same cycle
			// (seq 2), so the already-queued C (seq 1) runs before B.
			name:   "same-cycle re-entrant At runs after queued peers",
			budget: 10,
			setup: func(e *Engine, log *[]string) func() bool {
				done := false
				e.At(5, func() {
					*log = append(*log, "A")
					e.At(5, func() { *log = append(*log, "B"); done = true })
				})
				e.At(5, func() { *log = append(*log, "C") })
				return func() bool { return done }
			},
			wantEnd: 6,
			wantLog: []string{"A", "C", "B"},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			e := New()
			var log []string
			done := tc.setup(e, &log)
			end, err := e.Run(tc.budget, done)
			if (err != nil) != tc.wantErr {
				t.Errorf("err = %v, wantErr = %v", err, tc.wantErr)
			}
			if end != tc.wantEnd {
				t.Errorf("ended at %d, want %d", end, tc.wantEnd)
			}
			if len(log) != len(tc.wantLog) {
				t.Fatalf("log %v, want %v", log, tc.wantLog)
			}
			for i := range log {
				if log[i] != tc.wantLog[i] {
					t.Fatalf("log %v, want %v", log, tc.wantLog)
				}
			}
		})
	}
}

// sleeper is busy until ticked on cycle wakeAt (its only self-scheduled
// work), then idle. With wakeAt Never it stays busy forever.
type sleeper struct {
	wakeAt uint64
	ticks  []uint64
	busy   bool
}

func (s *sleeper) Tick(cycle uint64) uint64 {
	s.ticks = append(s.ticks, cycle)
	if cycle >= s.wakeAt {
		s.busy = false
		return Never
	}
	return s.wakeAt
}

func (s *sleeper) Busy() bool { return s.busy }

// TestJumpNeverPassesHeapRoot pins the fast-forward target: the earlier of
// the next component wake and the heap root, live or cancelled. Step only
// drains events whose cycle equals the clock, so a jump past the root
// strands it and every event behind it. A wake engine that jumps to the
// next wake, or to the next live event, fails one of these cases.
func TestJumpNeverPassesHeapRoot(t *testing.T) {
	t.Run("live root", func(t *testing.T) {
		// A busy component asleep until 50: the events on 10 and 30 come
		// first.
		e := New()
		addAwake(e, &sleeper{wakeAt: 50, busy: true})
		var log []string
		done := false
		e.At(10, func() { log = append(log, fmt.Sprint("a@", e.Now())) })
		e.At(30, func() { log = append(log, fmt.Sprint("b@", e.Now())); done = true })
		end, err := e.Run(1000, func() bool { return done })
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(log) != "[a@10 b@30]" {
			t.Errorf("events ran as %v, want [a@10 b@30]", log)
		}
		if end != 31 {
			t.Errorf("ended at %d, want 31", end)
		}
	})
	// The root is a cancelled entry on 10 ahead of a live event on 20. Idle,
	// the engine jumps to the dead root, discards it, then jumps on; busy,
	// it also stops for the component's wake on 15.
	for _, tc := range []struct {
		busy      bool
		wakeAt    uint64
		wantTicks string
	}{{false, Never, "[0]"}, {true, 15, "[0 15]"}} {
		t.Run(fmt.Sprintf("cancelled root/busy=%v", tc.busy), func(t *testing.T) {
			e := New()
			s := &sleeper{wakeAt: tc.wakeAt, busy: tc.busy}
			addAwake(e, s)
			ran := uint64(0)
			dead := e.Call(10, func(any, any, uint64, uint64) { t.Error("cancelled event ran") }, nil, nil, 0, 0)
			e.At(20, func() { ran = e.Now() })
			e.Cancel(dead)
			end, err := e.Run(1000, func() bool { return ran != 0 })
			if err != nil {
				t.Fatal(err)
			}
			if ran != 20 || end != 21 {
				t.Errorf("live event ran at %d, run ended at %d; want 20 and 21", ran, end)
			}
			if fmt.Sprint(s.ticks) != tc.wantTicks {
				t.Errorf("component ticked on %v, want %s", s.ticks, tc.wantTicks)
			}
		})
	}
}

// TestRunStopCycle pins where Run stops once the last program finishes:
// on the next cycle while a component is busy (a packet in flight, a
// barrier pending), as if that cycle were stepped; otherwise on the next
// live event's cycle, reached by the idle fast-forward. An engine that
// jumps whenever nothing is due stops the busy case at the next event.
func TestRunStopCycle(t *testing.T) {
	for _, tc := range []struct {
		busy    bool
		wantEnd uint64
	}{{true, 6}, {false, 100}} {
		t.Run(fmt.Sprintf("busy=%v", tc.busy), func(t *testing.T) {
			e := New()
			addAwake(e, &sleeper{wakeAt: Never, busy: tc.busy})
			done := false
			e.At(5, func() { done = true })
			e.At(100, func() {})
			end, err := e.Run(1000, func() bool { return done })
			if err != nil {
				t.Fatal(err)
			}
			if end != tc.wantEnd {
				t.Errorf("ended at %d, want %d", end, tc.wantEnd)
			}
		})
	}
}

// orderComp logs its ticks and, when poke is set, wakes another component
// from inside its own tick.
type orderComp struct {
	name string
	log  *[]string
	poke Waker
}

func (c *orderComp) Tick(cycle uint64) uint64 {
	*c.log = append(*c.log, fmt.Sprint(c.name, "@", cycle))
	c.poke.Wake()
	return Never
}

func (*orderComp) Busy() bool { return false }

// TestComponentTickOrder pins same-cycle order: events first, then the due
// components in registration order. A component woken by a later one's
// tick has already had its turn this cycle; it runs on the next.
func TestComponentTickOrder(t *testing.T) {
	e := New()
	var log []string
	first := &orderComp{name: "first", log: &log}
	second := &orderComp{name: "second", log: &log}
	wFirst := e.AddComponent(first)
	wSecond := e.AddComponent(second)
	second.poke = wFirst
	e.At(3, func() {
		log = append(log, "event@3")
		wSecond.Wake()
		wFirst.Wake()
	})
	for i := 0; i < 6; i++ {
		e.Step()
	}
	if got, want := fmt.Sprint(log), "[event@3 first@3 second@3 first@4]"; got != want {
		t.Errorf("order %s, want %s", got, want)
	}
	if got := e.Metrics().Snapshot().Counters["engine.ticks"]; got != 3 {
		t.Errorf("engine.ticks = %d, want 3", got)
	}
}
