package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/fault"
)

// newClusteredHarness builds a one-context network over a cols x rows mesh
// split into span x span clusters (span 0 picks the smallest that fits).
func newClusteredHarness(t *testing.T, cols, rows, span int) *netHarness {
	t.Helper()
	return newHarness(t, NetworkConfig{Cols: cols, Rows: rows, MaxTransmitters: 6, Contexts: 1, Span: span})
}

// arriveAll announces every core of the harness's mesh on context 0.
func (h *netHarness) arriveAll() {
	for c := range h.net.contexts[0].barReg {
		h.net.Arrive(c, 0)
	}
}

// TestHierarchicalSixCycleLatency: clustered gather/release costs 6 cycles
// with simultaneous arrivals (2 local + 1 global up + 1 global down + 2
// local).
func TestHierarchicalSixCycleLatency(t *testing.T) {
	for _, geom := range []struct{ cols, rows, span int }{
		{4, 4, 2}, {6, 6, 3}, {8, 8, 4}, {8, 4, 4},
	} {
		h := newClusteredHarness(t, geom.cols, geom.rows, geom.span)
		n := geom.cols * geom.rows
		h.arriveAll()
		h.run(8)
		if len(h.released) != n {
			t.Errorf("%dx%d span %d: released %d/%d", geom.cols, geom.rows, geom.span, len(h.released), n)
			continue
		}
		for c, cyc := range h.released {
			if cyc != 5 {
				t.Errorf("%dx%d span %d: core %d released at %d, want 5 (6-cycle latency)", geom.cols, geom.rows, geom.span, c, cyc)
			}
		}
		if h.net.Episodes() != 1 {
			t.Errorf("episodes=%d", h.net.Episodes())
		}
	}
}

// TestHierarchicalScalesBeyondFlatLimit: a mesh past the flat network's
// 7x7 limit is split into cluster levels automatically, each adding 2
// cycles, and no group has more members than the transmitter limit
// allows. A 32x32 mesh takes three levels (16x16, 8x8 and 4x4 clusters).
func TestHierarchicalScalesBeyondFlatLimit(t *testing.T) {
	for _, geom := range []struct {
		cols, rows int
		clusters   []int // tiles per cluster, level by level
		lines      int
	}{
		{8, 8, []int{16}, 4*2*(4+1) + 2},
		{32, 32, []int{256, 64, 16}, 64*2*(4+1) + 2*(16+4+1)},
	} {
		h := newClusteredHarness(t, geom.cols, geom.rows, 0)
		g := h.net.contexts[0].mv
		for level, want := range geom.clusters {
			if len(g.kids) != 4 {
				t.Fatalf("%dx%d level %d: %d clusters, want 4", geom.cols, geom.rows, level, len(g.kids))
			}
			g = g.kids[0]
			if got := tilesUnder(g); got != want {
				t.Errorf("%dx%d level %d: cluster of %d tiles, want %d", geom.cols, geom.rows, level, got, want)
			}
		}
		if len(g.kids) == 0 || g.kids[0].kids != nil {
			t.Errorf("%dx%d: the last cluster level is not a flat network", geom.cols, geom.rows)
		}
		for _, set := range h.net.contexts[0].sets {
			for _, g := range set {
				if len(g.slaves) > 6 {
					t.Errorf("%dx%d: a group has %d slaves, over the 6-transmitter limit", geom.cols, geom.rows, len(g.slaves))
				}
			}
		}
		if got := h.net.LineCount(); got != geom.lines {
			t.Errorf("%dx%d: %d lines, want %d", geom.cols, geom.rows, got, geom.lines)
		}
		n := geom.cols * geom.rows
		h.arriveAll()
		h.run(12)
		want := uint64(3 + 2*len(geom.clusters))
		if len(h.released) != n {
			t.Fatalf("%dx%d: released %d/%d", geom.cols, geom.rows, len(h.released), n)
		}
		for c, cyc := range h.released {
			if cyc != want {
				t.Fatalf("%dx%d: core %d released at %d, want %d (%d-cycle barrier)", geom.cols, geom.rows, c, cyc, want, want+1)
			}
		}
	}
}

// tilesUnder counts the tiles a group's tree spans.
func tilesUnder(g *group) int {
	if g.kids == nil {
		return len(g.tiles)
	}
	n := 0
	for _, k := range g.kids {
		n += tilesUnder(k)
	}
	return n
}

func TestHierarchicalStaggeredArrivals(t *testing.T) {
	h := newClusteredHarness(t, 4, 4, 2)
	for c := 0; c < 15; c++ {
		h.net.Arrive(c, 0)
	}
	h.run(10)
	if len(h.released) != 0 {
		t.Fatal("released before last arrival")
	}
	h.net.Arrive(15, 0)
	arrival := h.cycle
	h.run(8)
	if len(h.released) != 16 {
		t.Fatalf("released %d/16", len(h.released))
	}
	for c, cyc := range h.released {
		// The last arriver's row and cluster gather (2 cycles), the global
		// lines (2) and the in-cluster release (2).
		if cyc != arrival+5 {
			t.Errorf("core %d released at %d, want %d (arrival %d)", c, cyc, arrival+5, arrival)
		}
	}
}

func TestHierarchicalRepeatedEpisodes(t *testing.T) {
	h := newClusteredHarness(t, 4, 4, 2)
	for e := 0; e < 5; e++ {
		h.arriveAll()
		h.run(6)
		if int(h.net.Episodes()) != e+1 {
			t.Fatalf("episode %d: count=%d", e+1, h.net.Episodes())
		}
		if len(h.released) != 16 {
			t.Fatalf("episode %d: released %d", e+1, len(h.released))
		}
		h.released = map[int]uint64{}
	}
}

func TestHierarchicalParticipants(t *testing.T) {
	h := newClusteredHarness(t, 4, 4, 2)
	// Only cores in two of the four clusters participate.
	parts := []int{0, 1, 14, 15}
	if err := h.net.SetParticipants(0, parts); err != nil {
		t.Fatal(err)
	}
	for _, c := range parts {
		h.net.Arrive(c, 0)
	}
	h.run(8)
	if len(h.released) != len(parts) {
		t.Fatalf("released %d/%d", len(h.released), len(parts))
	}
}

func TestHierarchicalValidation(t *testing.T) {
	cases := []NetworkConfig{
		{Cols: 0, Rows: 4, Span: 2, MaxTransmitters: 6, Contexts: 1},
		{Cols: 4, Rows: 4, Span: 1, MaxTransmitters: 6, Contexts: 1},   // span must be >1
		{Cols: 4, Rows: 4, Span: 9, MaxTransmitters: 6, Contexts: 1},   // one cluster: no split
		{Cols: 16, Rows: 16, Span: 2, MaxTransmitters: 6, Contexts: 1}, // 64 clusters > limit
		{Cols: 4, Rows: 4, Span: 2, MaxTransmitters: 6, Contexts: 0},
	}
	for i, cfg := range cases {
		if _, err := NewNetwork(cfg); err == nil {
			t.Errorf("bad clustering %d accepted", i)
		}
	}
}

// TestClusterSpan: a mesh past the flat limit gets the smallest span whose
// cluster grid fits the transmitter limit on the joining lines; a mesh no
// span can split is an error.
func TestClusterSpan(t *testing.T) {
	cases := []struct {
		cols, rows, maxTx int
		want              int
	}{
		{8, 8, 6, 4}, // 2x2 clusters of 4x4
		{8, 4, 6, 3}, // 3x2 cluster grid (smallest span with <=7 clusters)
		{14, 14, 6, 7},
		{32, 32, 6, 16},
	}
	for _, tc := range cases {
		if got := clusterSpan(tc.cols, tc.rows, tc.maxTx); got != tc.want {
			t.Errorf("clusterSpan(%d,%d,%d)=%d, want %d", tc.cols, tc.rows, tc.maxTx, got, tc.want)
		}
	}
	if got := clusterSpan(100, 100, 2); got != 0 {
		t.Errorf("clusterSpan(100,100,2)=%d, want 0 (no span fits)", got)
	}
	if _, err := NewNetwork(NetworkConfig{Cols: 100, Rows: 100, MaxTransmitters: 2, Contexts: 1}); err == nil {
		t.Error("impossible mesh accepted")
	}
}

// TestPropHierarchicalSafetyLiveness mirrors the flat property on clustered
// 8x8 (one cluster level) and 32x32 (three levels) networks: nobody is
// released before the last arrival, and everyone exactly 2 cycles per
// level later than on a flat network.
func TestPropHierarchicalSafetyLiveness(t *testing.T) {
	for _, geom := range []struct{ side, latency int }{{8, 5}, {32, 9}} {
		n := geom.side * geom.side
		f := func(seed int64) bool {
			net, err := NewNetwork(NetworkConfig{Cols: geom.side, Rows: geom.side, MaxTransmitters: 6, Contexts: 1})
			if err != nil {
				return false
			}
			released := map[int]uint64{}
			var cycle uint64
			net.OnRelease(nil, func(c int) { released[c] = cycle })
			r := rand.New(rand.NewSource(seed))
			arrivals := make([]uint64, n)
			var last uint64
			for c := range arrivals {
				arrivals[c] = uint64(r.Intn(30))
				if arrivals[c] > last {
					last = arrivals[c]
				}
			}
			for cycle <= last+12 {
				for c, at := range arrivals {
					if at == cycle {
						net.Arrive(c, 0)
					}
				}
				if len(released) != 0 && cycle < last {
					return false
				}
				net.Tick(cycle)
				cycle++
			}
			if len(released) != n || net.Episodes() != 1 {
				return false
			}
			for _, cyc := range released {
				if cyc != last+uint64(geom.latency) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("%dx%d: %v", geom.side, geom.side, err)
		}
	}
}

func TestHierarchicalEnergyAndLines(t *testing.T) {
	h := newClusteredHarness(t, 4, 4, 2)
	// 4 clusters of 2x2: each 2*(2+1)=6 lines, plus 2 global = 26.
	if got := h.net.LineCount(); got != 26 {
		t.Errorf("line count %d, want 26", got)
	}
	h.arriveAll()
	h.run(8)
	if h.net.Toggles() == 0 {
		t.Error("no toggles recorded")
	}
	if h.net.ActiveCycles() == 0 {
		t.Error("no active cycles recorded")
	}
}

// TestStuckAtParityFlatAndClustered: the lines joining clusters obey their
// S-CSMA samples and tolerant counting like the flat network's column
// lines. On a 4x4 mesh the flat column pair has ids 8 and 9; in 2x2
// clusters the top pair has ids 24 and 25. A release line stuck low
// reaches only the master's own member (row 0, or cluster 0: 4 cores); an
// arrival line stuck high for two cycles over-counts, and the clamp lets
// the barrier release all 16 cores.
func TestStuckAtParityFlatAndClustered(t *testing.T) {
	for _, tc := range []struct {
		name     string
		span     int
		arr, rel int64
	}{
		{"flat", 0, 8, 9},
		{"2x2 clusters", 2, 24, 25},
	} {
		for _, fc := range []struct {
			ev   fault.Event
			want int
		}{
			{fault.Event{Site: fault.GLStuckLow, From: 0, Until: 1000, Loc: tc.rel}, 4},
			{fault.Event{Site: fault.GLStuckHigh, From: 0, Until: 1, Loc: tc.arr}, 16},
		} {
			h := newClusteredHarness(t, 4, 4, tc.span)
			h.net.SetInjector(fault.NewInjector(&fault.Plan{Events: []fault.Event{fc.ev}}))
			h.arriveAll()
			h.run(30)
			if len(h.released) != fc.want {
				t.Errorf("%s, %s on line %d: released %d cores, want %d", tc.name, fc.ev.Site, fc.ev.Loc, len(h.released), fc.want)
			}
		}
	}
}
