package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParticipantMaskSubsetBarrier(t *testing.T) {
	h := newNetHarness(t, 4, 4, 1, MuxSpace)
	parts := []int{0, 3, 5, 10, 15} // spread over rows, includes masters and slaves
	if err := h.net.SetParticipants(0, parts); err != nil {
		t.Fatal(err)
	}
	for _, c := range parts[:len(parts)-1] {
		h.net.Arrive(c, 0)
	}
	h.run(8)
	if len(h.released) != 0 {
		t.Fatal("released before the last participant arrived")
	}
	h.net.Arrive(parts[len(parts)-1], 0)
	arrival := h.cycle
	h.run(6)
	if len(h.released) != len(parts) {
		t.Fatalf("released %d, want %d", len(h.released), len(parts))
	}
	for _, c := range parts {
		if h.released[c] != arrival+3 {
			t.Errorf("core %d released at %d, want %d", c, h.released[c], arrival+3)
		}
	}
}

func TestParticipantMaskRejectsNonParticipant(t *testing.T) {
	h := newNetHarness(t, 4, 4, 1, MuxSpace)
	if err := h.net.SetParticipants(0, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("non-participant Arrive did not panic")
		}
	}()
	h.net.Arrive(5, 0)
}

func TestParticipantMaskValidation(t *testing.T) {
	h := newNetHarness(t, 2, 2, 1, MuxSpace)
	if err := h.net.SetParticipants(0, nil); err == nil {
		t.Error("empty participant set accepted")
	}
	if err := h.net.SetParticipants(0, []int{7}); err == nil {
		t.Error("out-of-range participant accepted")
	}
	if err := h.net.SetParticipants(3, []int{0}); err == nil {
		t.Error("unknown context accepted")
	}
	h.net.Arrive(0, 0)
	if err := h.net.SetParticipants(0, []int{0, 1}); err == nil {
		t.Error("participant change with arrivals in flight accepted")
	}
}

// TestPropMaskedBarrier: random participant subsets behave like full
// barriers over the subset.
func TestPropMaskedBarrier(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cols := r.Intn(6) + 2
		rows := r.Intn(6) + 2
		n := cols * rows
		net, err := NewNetwork(NetworkConfig{Cols: cols, Rows: rows, MaxTransmitters: 6, Contexts: 1})
		if err != nil {
			return false
		}
		var parts []int
		for c := 0; c < n; c++ {
			if r.Intn(2) == 0 {
				parts = append(parts, c)
			}
		}
		if len(parts) == 0 {
			parts = []int{r.Intn(n)}
		}
		if err := net.SetParticipants(0, parts); err != nil {
			return false
		}
		released := map[int]bool{}
		net.OnRelease(nil, func(c int) { released[c] = true })
		var cycle uint64
		arrive := make(map[uint64][]int)
		var last uint64
		for _, c := range parts {
			at := uint64(r.Intn(20))
			arrive[at] = append(arrive[at], c)
			if at > last {
				last = at
			}
		}
		for cycle <= last+8 {
			for _, c := range arrive[cycle] {
				net.Arrive(c, 0)
			}
			net.Tick(cycle)
			cycle++
		}
		if len(released) != len(parts) {
			return false
		}
		for _, c := range parts {
			if !released[c] {
				return false
			}
		}
		return net.Episodes() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSpaceMultiplexedContextsAreIndependent(t *testing.T) {
	h := newNetHarness(t, 4, 2, 2, MuxSpace)
	// Context 0: cores 0-3. Context 1: cores 4-7.
	if err := h.net.SetParticipants(0, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := h.net.SetParticipants(1, []int{4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 4; c++ {
		h.net.Arrive(c, 0)
	}
	// Context 1 arrives 2 cycles later.
	h.run(2)
	for c := 4; c < 8; c++ {
		h.net.Arrive(c, 1)
	}
	h.run(8)
	for c := 0; c < 4; c++ {
		if h.released[c] != 3 {
			t.Errorf("ctx0 core %d released at %d, want 3", c, h.released[c])
		}
	}
	for c := 4; c < 8; c++ {
		if h.released[c] != 5 {
			t.Errorf("ctx1 core %d released at %d, want 5", c, h.released[c])
		}
	}
	if h.net.ContextEpisodes(0) != 1 || h.net.ContextEpisodes(1) != 1 {
		t.Error("per-context episode counts wrong")
	}
}

func TestTimeMultiplexedContexts(t *testing.T) {
	// Two contexts share one physical line set; context i steps on cycles
	// with cycle%2==i, so the ideal latency stretches to ~8 cycles.
	h := newNetHarness(t, 2, 2, 2, MuxTime)
	for c := 0; c < 4; c++ {
		h.net.Arrive(c, 0)
	}
	h.run(20)
	if len(h.released) != 4 {
		t.Fatalf("TDM ctx0: released %d", len(h.released))
	}
	var relCycle uint64
	for _, cyc := range h.released {
		relCycle = cyc
	}
	if relCycle < 5 || relCycle > 9 {
		t.Errorf("TDM release at %d, want ~6-8 (4 active cycles at period 2)", relCycle)
	}
	// Same barrier on context 1 while context 0 also runs.
	h.released = map[int]uint64{}
	for c := 0; c < 4; c++ {
		h.net.Arrive(c, 0)
		h.net.Arrive(c, 1)
	}
	h.run(24)
	if len(h.released) != 4 {
		t.Fatalf("TDM both: released %d cores (map keys collide only per core)", len(h.released))
	}
	if h.net.ContextEpisodes(0) != 2 || h.net.ContextEpisodes(1) != 1 {
		t.Errorf("episodes ctx0=%d ctx1=%d, want 2/1", h.net.ContextEpisodes(0), h.net.ContextEpisodes(1))
	}
}

func TestEnergyAccounting(t *testing.T) {
	h := newNetHarness(t, 2, 2, 1, MuxSpace)
	for c := 0; c < 4; c++ {
		h.net.Arrive(c, 0)
	}
	h.run(4)
	// 2x2 full barrier: 2 slave arrivals + 1 vertical arrival + 1
	// vertical release + 2 horizontal releases = 6 toggles.
	if got := h.net.Toggles(); got != 6 {
		t.Errorf("toggles = %d, want 6", got)
	}
	if h.net.ActiveCycles() == 0 {
		t.Error("network reported zero active cycles")
	}
	// Power gating: idle ticks do not count.
	before := h.net.ActiveCycles()
	h.run(10)
	if h.net.ActiveCycles() != before {
		t.Error("idle network accumulated active cycles")
	}
}
