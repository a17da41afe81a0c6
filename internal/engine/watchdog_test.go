package engine

import (
	"errors"
	"strings"
	"testing"
)

// spinComp stays busy forever without ever scheduling an event — the shape
// of a livelocked spin. It asks to be ticked every cycle; sleepComp is the
// same spin asleep between inputs, which never come.
type spinComp struct{}

func (spinComp) Tick(cycle uint64) uint64 { return cycle + 1 }
func (spinComp) Busy() bool               { return true }

type sleepComp struct{}

func (sleepComp) Tick(uint64) uint64 { return Never }
func (sleepComp) Busy() bool         { return true }

// periodicComp is the spin waking itself every 30 cycles: the run skips
// 29 cycles at a time, and the stall count must add up across the skips.
type periodicComp struct{}

func (periodicComp) Tick(cycle uint64) uint64 { return cycle + 30 }
func (periodicComp) Busy() bool               { return true }

func TestStallWatchdogFires(t *testing.T) {
	e := New()
	e.StallLimit = 100
	addAwake(e, spinComp{})
	end, err := e.Run(1_000_000, func() bool { return false })
	if err == nil {
		t.Fatal("expected stall error")
	}
	if !strings.Contains(err.Error(), "stall") {
		t.Fatalf("error %q does not mention stall", err)
	}
	if end >= 1_000_000 {
		t.Fatalf("watchdog should abort well before the budget, stopped at %d", end)
	}
}

// TestStopHookEndsRun: a hook that errors on its k-th poll ends Run within
// (k+1)·stopPoll loop iterations, with an error wrapping the hook's.
func TestStopHookEndsRun(t *testing.T) {
	const k = 3
	errStop := errors.New("stop requested")
	e := New()
	addAwake(e, spinComp{})
	polls := 0
	e.Stop = func() error {
		if polls++; polls == k {
			return errStop
		}
		return nil
	}
	iters := 0
	end, err := e.Run(1_000_000, func() bool { iters++; return false })
	if !errors.Is(err, errStop) {
		t.Fatalf("err = %v, want one wrapping the hook's error", err)
	}
	if polls != k || iters > (k+1)*stopPoll {
		t.Fatalf("stopped after %d polls and %d iterations, want %d polls within %d iterations", polls, iters, k, (k+1)*stopPoll)
	}
	if end != e.Now() || end >= 1_000_000 {
		t.Fatalf("stopped at %d (Now %d), want the current cycle, before the budget", end, e.Now())
	}
}

// TestStopHookNeverAltersRun: a hook that always returns nil leaves a run
// that steps, fast-forwards and outlives many polls exactly as it was.
func TestStopHookNeverAltersRun(t *testing.T) {
	run := func(stop func() error) (end, executed uint64) {
		e := New()
		e.Stop = stop
		addAwake(e, &countComp{active: 3000})
		left := 5000
		var next func()
		next = func() {
			if left--; left > 0 {
				e.After(uint64(1+left%7), next)
			}
		}
		e.At(0, next)
		end, err := e.Run(10_000_000, func() bool { return left == 0 })
		if err != nil {
			t.Fatal(err)
		}
		return end, e.Metrics().Snapshot().Counters["engine.events.executed"]
	}
	polls := 0
	wantEnd, wantExec := run(nil)
	end, exec := run(func() error { polls++; return nil })
	if polls == 0 {
		t.Fatal("the hook was never polled")
	}
	if end != wantEnd || exec != wantExec {
		t.Fatalf("with a nil-returning hook: end %d, executed %d; without: end %d, executed %d", end, exec, wantEnd, wantExec)
	}
}

func TestStallWatchdogResetsOnProgress(t *testing.T) {
	e := New()
	e.StallLimit = 50
	addAwake(e, spinComp{})
	// An event every 40 cycles keeps resetting the idle counter; the run
	// must reach its natural end (done at cycle 200) without a stall error.
	var schedule func()
	schedule = func() {
		if e.Now() < 200 {
			e.After(40, schedule)
		}
	}
	e.After(40, schedule)
	done := func() bool { return e.Now() > 220 }
	if _, err := e.Run(10_000, done); err != nil {
		t.Fatalf("watchdog fired despite periodic progress: %v", err)
	}
}

func TestStallWatchdogDisabledByDefault(t *testing.T) {
	e := New()
	addAwake(e, spinComp{})
	_, err := e.Run(5_000, func() bool { return false })
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("with StallLimit 0 the run must only stop on budget exhaustion, got %v", err)
	}
}

func TestPendingByCycle(t *testing.T) {
	e := New()
	if got := e.PendingByCycle(0); got != nil {
		t.Fatalf("empty queue: %v", got)
	}
	for _, c := range []uint64{7, 3, 7, 7, 12, 3} {
		e.At(c, func() {})
	}
	got := e.PendingByCycle(0)
	want := []CyclePending{{3, 2}, {7, 3}, {12, 1}}
	if len(got) != len(want) {
		t.Fatalf("groups %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("groups %v, want %v", got, want)
		}
	}
	if lim := e.PendingByCycle(2); len(lim) != 2 || lim[1].Cycle != 7 {
		t.Fatalf("limited groups %v", lim)
	}
}

func TestEngineMetrics(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.At(uint64(i*10), func() {})
	}
	done := false
	e.At(100, func() { done = true })
	if _, err := e.Run(1_000, func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	s := e.Metrics().Snapshot()
	if s.Counters["engine.events.executed"] != 6 {
		t.Errorf("events executed = %d, want 6", s.Counters["engine.events.executed"])
	}
	if g := s.Gauges["engine.queue.depth"]; g.Peak < 6 {
		t.Errorf("peak queue depth = %d, want >= 6", g.Peak)
	}
	if s.Counters["engine.fastforward.jumps"] == 0 {
		t.Error("expected fast-forward jumps over the idle gaps")
	}
	if s.Counters["engine.fastforward.cycles"] < 90 {
		t.Errorf("fast-forwarded cycles = %d, want >= 90", s.Counters["engine.fastforward.cycles"])
	}
}

// TestStallLimitIndependentOfSleeping pins the stall rule under fast-
// forwarding: a component that stays busy with no events trips the
// watchdog on the same cycle whether it is ticked every cycle, sleeps, or
// wakes itself now and then — every skipped cycle counts as a stepped one.
// An engine that only counts stepped cycles never stalls the sleeping one
// (or stalls it late).
func TestStallLimitIndependentOfSleeping(t *testing.T) {
	cases := []struct {
		name    string
		events  []uint64 // cycles of no-op events
		wantEnd uint64
	}{
		// The last event runs on cycle 7; cycles 8..107 are the 100
		// event-free busy cycles, so the stall fires stepping cycle 107.
		{"after the last event", []uint64{7}, 108},
		// An event past the stall point must not move it.
		{"event beyond the stall point", []uint64{7, 500}, 108},
		// An event on cycle 50 resets the count.
		{"reset by a later event", []uint64{7, 50, 500}, 151},
	}
	for _, tc := range cases {
		for _, comp := range []struct {
			name string
			c    Component
		}{{"stepped", spinComp{}}, {"asleep", sleepComp{}}, {"periodic", periodicComp{}}} {
			t.Run(tc.name+"/"+comp.name, func(t *testing.T) {
				e := New()
				e.StallLimit = 100
				addAwake(e, comp.c)
				for _, c := range tc.events {
					e.At(c, func() {})
				}
				end, err := e.Run(1_000_000, func() bool { return false })
				if err == nil || !strings.Contains(err.Error(), "stall") {
					t.Fatalf("err = %v, want a stall", err)
				}
				if end != tc.wantEnd || e.Now() != end {
					t.Errorf("stalled at %d (Now %d), want %d", end, e.Now(), tc.wantEnd)
				}
				if !strings.Contains(err.Error(), "for 100 cycles") {
					t.Errorf("stall error %q does not report the 100-cycle limit", err)
				}
			})
		}
	}
}
