package sim

import (
	"strings"
	"testing"

	"repro/internal/barrier"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/stats"
)

func TestHierarchicalAutoSelection(t *testing.T) {
	// 32 cores = 8x4: exceeds the 6-transmitter flat limit, so New must
	// build a clustered network transparently: 3x2 clusters (two rows of
	// 3x3, 3x3, 2x3 and 3x1, 3x1, 2x1) of 8 or 4 lines each, plus the
	// pair joining them.
	if got := newTestSystem(t, 32).GL.LineCount(); got != 3*8+3*4+2 {
		t.Fatalf("8x4 mesh: %d G-lines, want 38 (3x2 clusters)", got)
	}
	// 16 cores = 4x4: flat, 2*(rows+1) lines.
	if got := newTestSystem(t, 16).GL.LineCount(); got != 10 {
		t.Fatalf("4x4 mesh: %d G-lines, want 10 (flat)", got)
	}
}

func TestGLBarrierOn32CoresHierarchical(t *testing.T) {
	s := newTestSystem(t, 32)
	progs := make([]cpu.Program, 32)
	for i := range progs {
		progs[i] = func(c *cpu.Ctx) {
			c.GLBarrier(0)
			c.GLBarrier(0)
		}
	}
	if err := s.Launch(progs); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BarrierEpisodes != 2 {
		t.Errorf("episodes=%d, want 2", rep.BarrierEpisodes)
	}
	// One cluster level: 6 cycles + 9 overhead = 15 per barrier.
	perBarrier := float64(rep.Cycles) / 2
	if perBarrier < 14 || perBarrier > 17 {
		t.Errorf("clustered barrier cost %.1f cycles, want ~15", perBarrier)
	}
}

func TestReplaceGLInstallsTDM(t *testing.T) {
	cfg := config.Default(16)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	net, err := core.NewNetwork(core.NetworkConfig{
		Cols: 4, Rows: 4, MaxTransmitters: 6, Contexts: 2, Mux: core.MuxTime,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.ReplaceGL(net)
	progs := make([]cpu.Program, 16)
	for i := range progs {
		progs[i] = func(c *cpu.Ctx) { c.GLBarrier(1) } // second TDM context
	}
	if err := s.Launch(progs); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BarrierEpisodes != 1 {
		t.Errorf("episodes=%d", rep.BarrierEpisodes)
	}
}

func TestBarrierOnThreadSubset(t *testing.T) {
	s := newTestSystem(t, 16)
	b, err := s.NewBarrier(barrier.KindGL, 6)
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]cpu.Program, 6)
	for i := range progs {
		i := i
		progs[i] = func(c *cpu.Ctx) {
			c.Compute(uint64(i))
			b.Wait(c, i)
		}
	}
	if err := s.Launch(progs); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(10_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BarrierEpisodes != 1 {
		t.Errorf("episodes=%d", rep.BarrierEpisodes)
	}
}

func TestRunWithoutLaunchFails(t *testing.T) {
	s := newTestSystem(t, 4)
	if _, err := s.Run(100); err == nil {
		t.Error("Run without Launch should fail")
	}
}

func TestLaunchValidation(t *testing.T) {
	s := newTestSystem(t, 4)
	if err := s.Launch(make([]cpu.Program, 5)); err == nil {
		t.Error("too many programs accepted")
	}
	if err := s.Launch([]cpu.Program{nil}); err == nil {
		t.Error("nil program accepted")
	}
	// A nil program after a valid one must start no core, so a corrected
	// launch still succeeds and runs.
	prog := func(c *cpu.Ctx) { c.Compute(10) }
	if err := s.Launch([]cpu.Program{prog, nil}); err == nil {
		t.Error("nil second program accepted")
	}
	if err := s.Launch([]cpu.Program{prog, prog}); err != nil {
		t.Fatalf("launch after a rejected one: %v", err)
	}
	if _, err := s.Run(10_000); err != nil {
		t.Fatal(err)
	}
}

func TestCycleBudgetExhaustionReported(t *testing.T) {
	s := newTestSystem(t, 4)
	hang := func(c *cpu.Ctx) {
		for {
			c.Compute(100)
		}
	}
	if err := s.Launch([]cpu.Program{hang}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(5_000)
	if err == nil {
		t.Fatal("expected budget error")
	}
	if rep == nil || rep.Cycles == 0 {
		t.Error("partial report missing")
	}
	s.Close()
}

// TestCloseUnwindsPrograms checks that Close unwinds every program still
// suspended mid-op before it returns: each program's deferred calls have
// run by then.
func TestCloseUnwindsPrograms(t *testing.T) {
	for run := 0; run < 50; run++ {
		s := newTestSystem(t, 4)
		var unwound [3]bool
		progs := make([]cpu.Program, len(unwound))
		for i := range progs {
			progs[i] = func(c *cpu.Ctx) {
				defer func() { unwound[i] = true }()
				for {
					c.Compute(100)
				}
			}
		}
		if err := s.Launch(progs); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(5_000); err == nil {
			t.Fatal("expected budget error")
		}
		s.Close()
		for i, ok := range unwound {
			if !ok {
				t.Fatalf("run %d: program %d still suspended after Close", run, i)
			}
		}
	}
}

func TestDeadlockDetected(t *testing.T) {
	s := newTestSystem(t, 4)
	// A spinner on a value nobody ever writes: the watch sleeps, no events
	// remain, and the engine must report a deadlock rather than hang.
	addr := s.Alloc.Line()
	spin := func(c *cpu.Ctx) { c.SpinUntilEq(addr, 1) }
	if err := s.Launch([]cpu.Program{spin}); err != nil {
		t.Fatal(err)
	}
	_, err := s.Run(1_000_000)
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("expected deadlock error, got %v", err)
	}
	s.Close()
}

func TestReportBreakdownSumsToCoreTime(t *testing.T) {
	s := newTestSystem(t, 8)
	b, err := s.NewBarrier(barrier.KindDSW, 8)
	if err != nil {
		t.Fatal(err)
	}
	progs := make([]cpu.Program, 8)
	for i := range progs {
		i := i
		progs[i] = func(c *cpu.Ctx) {
			for it := 0; it < 3; it++ {
				c.Compute(uint64(10 + i))
				c.Load(s.Alloc.Line()) // distinct cold lines
				b.Wait(c, i)
			}
		}
	}
	if err := s.Launch(progs); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	var perCore uint64
	for _, bd := range rep.PerCore {
		perCore += bd.Total()
	}
	if rep.Breakdown.Total() != perCore {
		t.Errorf("aggregate %d != per-core sum %d", rep.Breakdown.Total(), perCore)
	}
	// Every core's breakdown total is bounded by the run length.
	for i, bd := range rep.PerCore {
		if bd.Total() > rep.Cycles {
			t.Errorf("core %d accounted %d cycles in a %d-cycle run", i, bd.Total(), rep.Cycles)
		}
	}
	if rep.GLLines == 0 {
		t.Error("report missing G-line count")
	}
	out := rep.String()
	for _, want := range []string{"cycles", "time.Barrier", "traffic.Request", "energy.noc-pJ"} {
		if !strings.Contains(out, want) {
			t.Errorf("report String() missing %q", want)
		}
	}
}

func TestEnergyReported(t *testing.T) {
	s := newTestSystem(t, 16)
	progs := make([]cpu.Program, 16)
	for i := range progs {
		progs[i] = func(c *cpu.Ctx) { c.GLBarrier(0) }
	}
	if err := s.Launch(progs); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Run(1_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GLToggles == 0 {
		t.Error("no G-line toggles recorded")
	}
	if rep.Energy.GLinePJ <= 0 {
		t.Error("no G-line energy estimated")
	}
	if rep.Energy.NoCPJ != 0 {
		t.Error("pure GL run should have zero NoC energy")
	}
}

func TestNoGLNetworkConfigured(t *testing.T) {
	cfg := config.Default(4)
	cfg.GLContexts = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.GL != nil {
		t.Fatal("GL built despite GLContexts=0")
	}
	if _, err := s.NewBarrier(barrier.KindGL, 4); err == nil {
		t.Error("GL barrier without network accepted")
	}
	if _, err := s.NewBarrier(barrier.KindDSW, 4); err != nil {
		t.Errorf("software barrier should work without GL: %v", err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, stats.Traffic) {
		s := newTestSystem(t, 8)
		b, err := s.NewBarrier(barrier.KindDSW, 8)
		if err != nil {
			t.Fatal(err)
		}
		progs := make([]cpu.Program, 8)
		for i := range progs {
			i := i
			progs[i] = func(c *cpu.Ctx) {
				for it := 0; it < 5; it++ {
					c.Compute(uint64(1 + (i*3+it)%7))
					b.Wait(c, i)
				}
			}
		}
		if err := s.Launch(progs); err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run(10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Cycles, rep.Traffic
	}
	c1, t1 := run()
	c2, t2 := run()
	if c1 != c2 || t1 != t2 {
		t.Errorf("non-deterministic: %d/%v vs %d/%v", c1, t1, c2, t2)
	}
}
