package noc

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/stats"
)

type harness struct {
	eng       *engine.Engine
	mesh      *Mesh
	delivered map[uint64]uint64 // packet ID -> delivery cycle
	dests     map[uint64]int
	sent      uint64 // packets sent so far: the next ID the mesh assigns
}

func newHarness(t *testing.T, cols, rows int, routerLat, linkLat uint64) *harness {
	t.Helper()
	h := &harness{
		eng:       engine.New(),
		delivered: map[uint64]uint64{},
		dests:     map[uint64]int{},
	}
	h.mesh = New(h.eng, cols, rows, routerLat, linkLat, func(dst int, p *Packet) {
		if _, dup := h.delivered[p.ID]; dup {
			t.Errorf("packet %d delivered twice", p.ID)
		}
		h.delivered[p.ID] = h.eng.Now()
		h.dests[p.ID] = dst
	})
	return h
}

// send queues one packet and returns the ID the mesh assigns it (IDs count
// up from 0 in send order).
func (h *harness) send(src, dst int, class stats.MsgClass, flits int) uint64 {
	id := h.sent
	h.mesh.Send(src, dst, class, flits, nil)
	h.sent++
	return id
}

func (h *harness) drain(max int) {
	for i := 0; i < max && h.mesh.InFlight() > 0; i++ {
		h.eng.Step()
	}
	// A couple of extra steps for the final delivery events.
	for i := 0; i < 4; i++ {
		h.eng.Step()
	}
}

func TestSinglePacketLatency(t *testing.T) {
	// 4x4 mesh, router 1, link 1. Corner to corner: 6 hops.
	h := newHarness(t, 4, 4, 1, 1)
	id := h.send(0, 15, stats.ClassRequest, 1)
	h.drain(200)
	got, ok := h.delivered[id]
	if !ok {
		t.Fatal("packet not delivered")
	}
	// Expected: per intermediate hop (router + 1 flit + link) plus final
	// ejection. 6 hops of (1+1+1) then route+eject (1+1) => 20 cycles.
	if got < 15 || got > 25 {
		t.Errorf("corner-to-corner 1-flit latency %d, want ~20", got)
	}
	if h.dests[id] != 15 {
		t.Errorf("delivered to %d, want 15", h.dests[id])
	}
}

func TestCutThroughBeatsStoreAndForward(t *testing.T) {
	// A 9-flit packet across 6 hops: cut-through pays the payload once
	// (~hops*3 + 9), store-and-forward would pay ~hops*(3+9).
	h := newHarness(t, 4, 4, 1, 1)
	id := h.send(0, 15, stats.ClassReply, 9)
	h.drain(300)
	got := h.delivered[id]
	if got == 0 || got > 45 {
		t.Errorf("9-flit latency %d; store-and-forward (~70+) suggests cut-through is broken", got)
	}
}

func TestLocalDelivery(t *testing.T) {
	h := newHarness(t, 2, 2, 1, 1)
	id := h.send(1, 1, stats.ClassRequest, 1)
	h.drain(50)
	if _, ok := h.delivered[id]; !ok {
		t.Fatal("self-addressed packet not delivered")
	}
}

func TestSerializationContention(t *testing.T) {
	// Two 9-flit packets over the same link one after another: the second
	// must wait for the first's tail (one link moves 1 flit/cycle).
	h := newHarness(t, 2, 1, 1, 1)
	id1 := h.send(0, 1, stats.ClassReply, 9)
	id2 := h.send(0, 1, stats.ClassReply, 9)
	h.drain(200)
	d1, d2 := h.delivered[id1], h.delivered[id2]
	if d2 < d1+9 {
		t.Errorf("second packet at %d, first at %d: link serialization lost", d2, d1)
	}
}

func TestTrafficCounters(t *testing.T) {
	h := newHarness(t, 2, 2, 1, 1)
	h.send(0, 3, stats.ClassRequest, 1)
	h.send(3, 0, stats.ClassReply, 9)
	h.send(1, 2, stats.ClassCoherence, 1)
	h.drain(100)
	tr := h.mesh.Traffic()
	if tr.Messages[stats.ClassRequest] != 1 || tr.Messages[stats.ClassReply] != 1 || tr.Messages[stats.ClassCoherence] != 1 {
		t.Errorf("message counts %v", tr.Messages)
	}
	if tr.Flits[stats.ClassReply] != 9 {
		t.Errorf("reply flits %d, want 9", tr.Flits[stats.ClassReply])
	}
	if h.mesh.Delivered() != 3 {
		t.Errorf("delivered %d, want 3", h.mesh.Delivered())
	}
	if h.mesh.AvgLatency(stats.ClassRequest) <= 0 {
		t.Error("request latency not recorded")
	}
}

func TestXYRoutingNoDeadlockUnderLoad(t *testing.T) {
	h := newHarness(t, 4, 4, 1, 1)
	r := rand.New(rand.NewSource(42))
	const n = 500
	for i := 0; i < n; i++ {
		src := r.Intn(16)
		dst := r.Intn(16)
		flits := 1
		if i%3 == 0 {
			flits = 9
		}
		h.send(src, dst, stats.ClassRequest, flits)
	}
	h.drain(100_000)
	if len(h.delivered) != n {
		t.Fatalf("delivered %d/%d packets", len(h.delivered), n)
	}
}

// Property: every injected packet is delivered exactly once at its
// destination, and per src-dst pair delivery order matches injection order.
func TestPropDeliveryExactlyOnceAndOrdered(t *testing.T) {
	f := func(seed int64) bool {
		eng := engine.New()
		type rec struct {
			cycle uint64
			seq   int
		}
		delivered := map[uint64]int{} // id -> seq delivered
		var order []uint64
		mesh := New(eng, 4, 2, 1, 1, func(dst int, p *Packet) {
			delivered[p.ID]++
			order = append(order, p.ID)
		})
		r := rand.New(rand.NewSource(seed))
		const n = 60
		type flow struct{ src, dst int }
		sent := map[flow][]uint64{}
		for i := 0; i < n; i++ {
			fl := flow{r.Intn(8), r.Intn(8)}
			mesh.Send(fl.src, fl.dst, stats.ClassRequest, 1+r.Intn(9), nil)
			sent[fl] = append(sent[fl], uint64(i)) // IDs count up from 0
		}
		for i := 0; i < 50_000 && mesh.InFlight() > 0; i++ {
			eng.Step()
		}
		for i := 0; i < 4; i++ {
			eng.Step()
		}
		if len(delivered) != n {
			return false
		}
		for _, cnt := range delivered {
			if cnt != 1 {
				return false
			}
		}
		// Per-flow FIFO: ids of one flow appear in injection order.
		pos := map[uint64]int{}
		for i, id := range order {
			pos[id] = i
		}
		for _, ids := range sent {
			for i := 1; i < len(ids); i++ {
				if pos[ids[i-1]] > pos[ids[i]] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSendValidation(t *testing.T) {
	h := newHarness(t, 2, 2, 1, 1)
	for _, c := range []struct{ src, dst, flits int }{
		{-1, 0, 1},
		{0, 4, 1},
		{0, 1, 0},
	} {
		c := c
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Send(src=%d, dst=%d, flits=%d) did not panic", c.src, c.dst, c.flits)
				}
			}()
			h.mesh.Send(c.src, c.dst, stats.ClassRequest, c.flits, nil)
		}()
	}
}

func TestLinkUtilizationAccounting(t *testing.T) {
	h := newHarness(t, 2, 1, 1, 1)
	h.send(0, 1, stats.ClassReply, 9)
	h.drain(100)
	util := h.mesh.LinkUtilization()
	var total uint64
	for _, ports := range util {
		for _, f := range ports {
			total += f
		}
	}
	// 9 flits cross one link plus 9 at ejection: 18 flit-cycles minimum.
	if total < 18 {
		t.Errorf("link utilization %d flit-cycles, want >= 18", total)
	}
}

func TestHeatmapRendersHotSpot(t *testing.T) {
	h := newHarness(t, 4, 4, 1, 1)
	// Everyone sends to tile 0: its links must be the hottest.
	for src := 1; src < 16; src++ {
		h.send(src, 0, stats.ClassRequest, 9)
	}
	h.drain(10_000)
	out := h.mesh.Heatmap()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // 4 rows + scale line
		t.Fatalf("heatmap:\n%s", out)
	}
	if !strings.HasPrefix(lines[0], "[@]") {
		t.Errorf("hot spot not at tile 0:\n%s", out)
	}
	if !strings.Contains(lines[4], "scale") {
		t.Errorf("missing scale line:\n%s", out)
	}
}
