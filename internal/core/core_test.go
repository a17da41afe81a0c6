package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// netHarness drives a Network cycle by cycle, recording releases.
type netHarness struct {
	net      *Network
	cycle    uint64
	released map[int]uint64 // core -> cycle the release callback ran
}

func newNetHarness(t *testing.T, cols, rows, contexts int, mux MuxMode) *netHarness {
	t.Helper()
	return newHarness(t, NetworkConfig{
		Cols: cols, Rows: rows,
		MaxTransmitters: 6,
		Contexts:        contexts,
		Mux:             mux,
	})
}

func newHarness(t *testing.T, cfg NetworkConfig) *netHarness {
	t.Helper()
	net, err := NewNetwork(cfg)
	if err != nil {
		t.Fatalf("NewNetwork: %v", err)
	}
	h := &netHarness{net: net, released: map[int]uint64{}}
	// Releases are visible one cycle after the hardware clears bar_reg,
	// as in the simulator; here we record the clearing cycle directly.
	net.OnRelease(nil, func(core int) { h.released[core] = h.cycle })
	return h
}

// step advances one cycle.
func (h *netHarness) step() {
	h.net.Tick(h.cycle)
	h.cycle++
}

func (h *netHarness) run(n int) {
	for i := 0; i < n; i++ {
		h.step()
	}
}

// TestIdealLatencyFourCycles reproduces the paper's headline number: with
// simultaneous arrivals, the release reaches every core at the end of the
// 4th cycle (paper Figure 2).
func TestIdealLatencyFourCycles(t *testing.T) {
	for _, geom := range []struct{ cols, rows int }{{2, 2}, {4, 4}, {7, 7}, {1, 1}, {4, 1}, {1, 4}} {
		h := newNetHarness(t, geom.cols, geom.rows, 1, MuxSpace)
		n := geom.cols * geom.rows
		for c := 0; c < n; c++ {
			h.net.Arrive(c, 0)
		}
		h.run(4)
		if len(h.released) != n {
			t.Errorf("%dx%d: %d/%d cores released after 4 cycles", geom.cols, geom.rows, len(h.released), n)
			continue
		}
		for c, cyc := range h.released {
			if cyc != 3 {
				t.Errorf("%dx%d: core %d released at cycle %d, want 3 (end of 4th cycle)", geom.cols, geom.rows, c, cyc)
			}
		}
		if h.net.Episodes() != 1 {
			t.Errorf("%dx%d: episodes=%d", geom.cols, geom.rows, h.net.Episodes())
		}
	}
}

// TestFigure2Trace walks the 2x2 example cycle by cycle and checks the
// observable register state against the paper's Figure 2.
func TestFigure2Trace(t *testing.T) {
	h := newNetHarness(t, 2, 2, 1, MuxSpace)
	ctx := h.net.contexts[0]
	for c := 0; c < 4; c++ {
		h.net.Arrive(c, 0)
	}
	// Cycle 0: horizontal slaves signal; masters count ScntH=1, Mcnt=1.
	h.step()
	for r := 0; r < 2; r++ {
		if ctx.mastersH[r].scnt != 1 {
			t.Errorf("cycle 0: row %d ScntH=%d, want 1", r, ctx.mastersH[r].scnt)
		}
		if !ctx.mastersH[r].mcnt {
			t.Errorf("cycle 0: row %d Mcnt not set", r)
		}
		if !ctx.mastersH[r].flag {
			t.Errorf("cycle 0: row %d flag not raised", r)
		}
	}
	// Cycle 1: vertical slave signals; MasterV counts ScntV=1 and sees
	// core 0's MasterH flag -> barrier complete.
	h.step()
	if ctx.mv.scnt != 1 {
		t.Errorf("cycle 1: ScntV=%d, want 1", ctx.mv.scnt)
	}
	if ctx.mv.state != masterWaiting {
		t.Error("cycle 1: MasterV did not complete")
	}
	if len(h.released) != 0 {
		t.Error("cycle 1: premature release")
	}
	// Cycle 2: vertical release pulse; counters reset.
	h.step()
	if ctx.mv.scnt != 0 {
		t.Errorf("cycle 2: ScntV=%d, want 0 after release", ctx.mv.scnt)
	}
	if len(h.released) != 0 {
		t.Error("cycle 2: premature release")
	}
	// Cycle 3: horizontal release; all bar_regs cleared.
	h.step()
	if len(h.released) != 4 {
		t.Fatalf("cycle 3: released %d cores, want 4", len(h.released))
	}
	for c := 0; c < 4; c++ {
		if h.net.BarRegSet(c, 0) {
			t.Errorf("cycle 3: core %d bar_reg still set", c)
		}
	}
	if ctx.mastersH[0].scnt != 0 || ctx.mastersH[1].scnt != 0 {
		t.Error("cycle 3: ScntH not reset")
	}
}

// TestLastArriverLatency checks the 4-cycle latency from the last arrival,
// wherever that arrival happens.
func TestLastArriverLatency(t *testing.T) {
	for last := 0; last < 16; last++ {
		h := newNetHarness(t, 4, 4, 1, MuxSpace)
		for c := 0; c < 16; c++ {
			if c != last {
				h.net.Arrive(c, 0)
			}
		}
		h.run(10) // others wait; nothing may happen
		if len(h.released) != 0 {
			t.Fatalf("released %d cores before last arrival", len(h.released))
		}
		h.net.Arrive(last, 0)
		arrival := h.cycle
		h.run(6)
		if len(h.released) != 16 {
			t.Fatalf("last=%d: %d cores released", last, len(h.released))
		}
		for c, cyc := range h.released {
			if cyc != arrival+3 {
				t.Errorf("last=%d: core %d released at %d, want %d", last, c, cyc, arrival+3)
			}
		}
	}
}

// TestBackToBackBarriers checks repeated episodes with immediate
// re-arrival (the synthetic benchmark's pattern).
func TestBackToBackBarriers(t *testing.T) {
	h := newNetHarness(t, 4, 2, 1, MuxSpace)
	const episodes = 10
	for e := 0; e < episodes; e++ {
		start := h.cycle
		for c := 0; c < 8; c++ {
			h.net.Arrive(c, 0)
		}
		h.run(4)
		if int(h.net.Episodes()) != e+1 {
			t.Fatalf("episode %d not completed", e+1)
		}
		for c, cyc := range h.released {
			if cyc != start+3 {
				t.Errorf("episode %d: core %d at %d, want %d", e, c, cyc, start+3)
			}
		}
		h.released = map[int]uint64{}
	}
}

// TestPropBarrierSafetyAndLiveness: under random staggered arrivals, no
// core is released before every participant has arrived, and all are
// released exactly 4 cycles after the last arrival.
func TestPropBarrierSafetyAndLiveness(t *testing.T) {
	f := func(seed int64, colsRaw, rowsRaw uint8) bool {
		cols := int(colsRaw%7) + 1
		rows := int(rowsRaw%7) + 1
		n := cols * rows
		net, err := NewNetwork(NetworkConfig{Cols: cols, Rows: rows, MaxTransmitters: 6, Contexts: 1})
		if err != nil {
			return false
		}
		released := map[int]uint64{}
		var cycle uint64
		net.OnRelease(nil, func(c int) { released[c] = cycle })
		r := rand.New(rand.NewSource(seed))
		arrivals := make([]uint64, n)
		var lastArrival uint64
		for c := range arrivals {
			arrivals[c] = uint64(r.Intn(40))
			if arrivals[c] > lastArrival {
				lastArrival = arrivals[c]
			}
		}
		for cycle < lastArrival+10 {
			for c, at := range arrivals {
				if at == cycle {
					net.Arrive(c, 0)
				}
			}
			if len(released) != 0 && cycle < lastArrival {
				return false // released before all arrived
			}
			net.Tick(cycle)
			cycle++
		}
		if len(released) != n {
			return false
		}
		for _, cyc := range released {
			if cyc != lastArrival+3 {
				return false
			}
		}
		return net.Episodes() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSCSMACountsSimultaneousTransmitters(t *testing.T) {
	// Property: a line's sampled count equals the number of Asserts that
	// cycle, for any k within the electrical limit.
	l := NewLine("x", 6)
	for k := 0; k <= 6; k++ {
		for i := 0; i < k; i++ {
			l.Assert()
		}
		l.sample(0)
		if l.Count() != k {
			t.Errorf("S-CSMA count %d, want %d", l.Count(), k)
		}
	}
	if l.Toggles() != 0+1+2+3+4+5+6 {
		t.Errorf("toggles %d", l.Toggles())
	}
}

func TestLineTransmitterLimitPanics(t *testing.T) {
	l := NewLine("x", 2)
	l.Assert()
	l.Assert()
	defer func() {
		if recover() == nil {
			t.Error("exceeding the transmitter limit did not panic")
		}
	}()
	l.Assert()
}

func TestNetworkConfigValidation(t *testing.T) {
	bad := []NetworkConfig{
		{Cols: 0, Rows: 2, MaxTransmitters: 6, Contexts: 1},
		{Cols: 100, Rows: 100, MaxTransmitters: 2, Contexts: 1}, // no span gives <=3 clusters
		{Cols: 3, Rows: 3, MaxTransmitters: 1, Contexts: 1},
		{Cols: 2, Rows: 2, MaxTransmitters: 0, Contexts: 1},
		{Cols: 2, Rows: 2, MaxTransmitters: 6, Contexts: 0},
	}
	for i, cfg := range bad {
		if _, err := NewNetwork(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestLineCountMatchesPaperFormula(t *testing.T) {
	// Paper Section 3.1: 2*(rows+1) lines per barrier; the 16-core 4x4
	// example needs 10.
	net, err := NewNetwork(NetworkConfig{Cols: 4, Rows: 4, MaxTransmitters: 6, Contexts: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := net.LineCount(); got != 10 {
		t.Errorf("4x4 line count %d, want 10", got)
	}
	// Space multiplexing: k contexts -> k line sets.
	net3, err := NewNetwork(NetworkConfig{Cols: 4, Rows: 4, MaxTransmitters: 6, Contexts: 3, Mux: MuxSpace})
	if err != nil {
		t.Fatal(err)
	}
	if got := net3.LineCount(); got != 30 {
		t.Errorf("3-context space-mux line count %d, want 30", got)
	}
	// Time multiplexing: one shared set.
	netT, err := NewNetwork(NetworkConfig{Cols: 4, Rows: 4, MaxTransmitters: 6, Contexts: 3, Mux: MuxTime})
	if err != nil {
		t.Fatal(err)
	}
	if got := netT.LineCount(); got != 10 {
		t.Errorf("3-context time-mux line count %d, want 10", got)
	}
}

func TestArriveValidation(t *testing.T) {
	h := newNetHarness(t, 2, 2, 1, MuxSpace)
	h.net.Arrive(1, 0)
	for _, fn := range []func(){
		func() { h.net.Arrive(1, 0) },  // double arrival
		func() { h.net.Arrive(9, 0) },  // core out of range
		func() { h.net.Arrive(0, 5) },  // context out of range
		func() { h.net.Arrive(-1, 0) }, // negative core
	} {
		fn := fn
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Arrive did not panic")
				}
			}()
			fn()
		}()
	}
}
