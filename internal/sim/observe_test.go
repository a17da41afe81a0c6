package sim

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/barrier"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/fault"
)

// runBarriers runs `episodes` barrier episodes of the given kind on an
// n-core system and returns the report.
func runBarriers(t *testing.T, n, episodes int, kind barrier.Kind) *Report {
	t.Helper()
	s := newTestSystem(t, n)
	b, err := s.NewBarrier(kind, n)
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]cpu.Program, n)
	for i := range progs {
		tid := i
		progs[i] = func(c *cpu.Ctx) {
			for e := 0; e < episodes; e++ {
				c.Compute(uint64(tid * 3)) // skewed arrivals
				b.Wait(c, tid)
			}
		}
	}
	if err := s.Launch(progs); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestGLEpisodeHistograms(t *testing.T) {
	rep := runBarriers(t, 16, 5, barrier.KindGL)
	h, ok := rep.Metrics.Histograms["barrier.gl.latency"]
	if !ok {
		t.Fatal("no barrier.gl.latency histogram in report")
	}
	if h.Count != 5 {
		t.Errorf("latency samples = %d, want 5 (one per episode)", h.Count)
	}
	if h.Max == 0 {
		t.Error("episode latency must be nonzero (release takes cycles)")
	}
	skew, ok := rep.Metrics.Histograms["barrier.gl.skew"]
	if !ok {
		t.Fatal("no barrier.gl.skew histogram")
	}
	if skew.Count != 5 {
		t.Errorf("skew samples = %d, want 5", skew.Count)
	}
	// Arrivals are staggered by tid*3 compute, so skew must be visible.
	if skew.Max == 0 {
		t.Error("arrival skew should be nonzero for staggered arrivals")
	}
}

func TestGLEpisodeHistogramsHierarchical(t *testing.T) {
	// 32 cores runs the clustered network: one latency sample per
	// episode, taken at its first release.
	rep := runBarriers(t, 32, 4, barrier.KindGL)
	h := rep.Metrics.Histograms["barrier.gl.latency"]
	if h.Count != 4 {
		t.Errorf("clustered latency samples = %d, want 4", h.Count)
	}
}

func TestSWEpisodeHistograms(t *testing.T) {
	for _, kind := range []barrier.Kind{barrier.KindCSW, barrier.KindDSW} {
		rep := runBarriers(t, 8, 3, kind)
		h, ok := rep.Metrics.Histograms["barrier.sw.latency"]
		if !ok {
			t.Fatalf("%s: no barrier.sw.latency histogram", kind)
		}
		if h.Count != 3 {
			t.Errorf("%s: latency samples = %d, want 3", kind, h.Count)
		}
		if h.Max == 0 {
			t.Errorf("%s: software release must cost cycles", kind)
		}
		if s := rep.Metrics.Histograms["barrier.sw.skew"]; s.Count != 3 {
			t.Errorf("%s: skew samples = %d, want 3", kind, s.Count)
		}
	}
}

func TestReportCarriesComponentMetrics(t *testing.T) {
	rep := runBarriers(t, 8, 3, barrier.KindCSW)
	if rep.Metrics.Counters["engine.events.executed"] == 0 {
		t.Error("engine event counter missing from merged snapshot")
	}
	if rep.Metrics.Counters["coh.dir.transitions"] == 0 {
		t.Error("directory transitions missing (a contended CSW barrier must transition)")
	}
	if rep.Metrics.Counters["coh.inv.sent"] == 0 {
		t.Error("invalidation counter missing (sense flips must invalidate spinners)")
	}
	if rep.NoC.Cols*rep.NoC.Rows != 8 {
		t.Errorf("NoC stats grid %dx%d, want 8 tiles", rep.NoC.Cols, rep.NoC.Rows)
	}
	var flits uint64
	for _, ports := range rep.NoC.LinkFlits {
		for _, f := range ports {
			flits += f
		}
	}
	if flits == 0 {
		t.Error("per-link flit counts all zero despite barrier traffic")
	}
}

func TestReportJSON(t *testing.T) {
	rep := runBarriers(t, 8, 2, barrier.KindGL)
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	for _, key := range []string{"cycles", "time_breakdown", "traffic", "metrics", "noc", "fingerprint"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("JSON missing key %q", key)
		}
	}
	if _, ok := doc["hang"]; ok {
		t.Error("clean run must not carry a hang dump")
	}
	// Percentiles must be reachable at the documented path.
	mets := doc["metrics"].(map[string]any)
	hists := mets["histograms"].(map[string]any)
	lat := hists["barrier.gl.latency"].(map[string]any)
	for _, q := range []string{"p50", "p95", "p99", "max"} {
		if _, ok := lat[q]; !ok {
			t.Errorf("latency histogram missing %q", q)
		}
	}
}

func TestWatchdogDumpOnBudgetExhaustion(t *testing.T) {
	s := newTestSystem(t, 4)
	s.AttachTimeline(1 << 12)
	b, err := s.NewBarrier(barrier.KindCSW, 4)
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]cpu.Program, 4)
	for i := range progs {
		tid := i
		progs[i] = func(c *cpu.Ctx) {
			if tid == 3 {
				c.Compute(1 << 40) // never reaches the barrier
			}
			b.Wait(c, tid)
		}
	}
	if err := s.Launch(progs); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(20_000)
	defer s.Close()
	if err == nil {
		t.Fatal("expected a cycle-budget error")
	}
	if rep == nil || rep.Hang == nil {
		t.Fatal("failed run must carry a hang dump")
	}
	d := rep.Hang
	if d.Cycle == 0 || d.Reason == "" {
		t.Errorf("dump incomplete: %+v", d)
	}
	if len(d.Cores) != 4 {
		t.Fatalf("dump has %d cores, want 4", len(d.Cores))
	}
	if d.PendingEvents == 0 || len(d.NextEvents) == 0 {
		t.Error("dump must summarize pending events (the 2^40 compute is queued)")
	}
	if len(d.TimelineTail) == 0 {
		t.Error("dump must include the attached timeline's tail")
	}
	// The CSW lock and counter traffic leaves coherence events in the
	// tail: the record of transactions around the wedge.
	if tail := strings.Join(d.TimelineTail, "\n"); !strings.Contains(tail, " coh.") {
		t.Errorf("timeline tail carries no coherence events:\n%s", tail)
	}
	text := d.String()
	for _, want := range []string{"watchdog dump", "reason:", "pending events:", "core ", "timeline events:"} {
		if !strings.Contains(text, want) {
			t.Errorf("dump text missing %q:\n%s", want, text)
		}
	}
}

// TestHangDumpIncludesGuardState wedges a guarded G-line barrier (all
// arrival assertions dropped, recovery timeout beyond the cycle budget) and
// checks the watchdog dump carries the guard's shadow state: without it a
// chaos-found hang is not diagnosable from the dump alone.
func TestHangDumpIncludesGuardState(t *testing.T) {
	cfg := config.Default(4)
	plan := &fault.Plan{Seed: 1, Recovery: fault.Recovery{Timeout: 1 << 30}}
	plan.Events = []fault.Event{{Site: fault.GLDrop, From: 0, Until: 1 << 40, Loc: -1}}
	cfg.Faults = plan
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.NewBarrier(barrier.KindGL, 4)
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]cpu.Program, 4)
	for i := range progs {
		tid := i
		progs[i] = func(c *cpu.Ctx) { b.Wait(c, tid) }
	}
	if err := s.Launch(progs); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(20_000)
	defer s.Close()
	if err == nil {
		t.Fatal("expected the wedged barrier to exhaust the budget")
	}
	if rep == nil || rep.Hang == nil {
		t.Fatal("failed run must carry a hang dump")
	}
	if len(rep.Hang.Guard) == 0 {
		t.Fatal("hang dump is missing the recovery guard state")
	}
	g := rep.Hang.Guard[0]
	if g.Arrived != 4 || g.Expected != 4 {
		t.Errorf("guard arrived=%d/%d, want 4/4", g.Arrived, g.Expected)
	}
	if g.Released != 0 || g.Deadline == 0 {
		t.Errorf("guard released=%d deadline=%d, want 0 released and an armed deadline", g.Released, g.Deadline)
	}
	text := rep.Hang.String()
	if !strings.Contains(text, "guard ctx 0:") || !strings.Contains(text, "arrived=4/4") {
		t.Errorf("dump text missing guard line:\n%s", text)
	}
}
