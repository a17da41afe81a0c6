package cpu

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/stats"
)

type cpuHarness struct {
	eng  *engine.Engine
	prot *coherence.Protocol
	core *Core
}

// fakeBE records Arrive calls and releases on demand.
type fakeBE struct {
	arrivals []int
	core     *Core
}

func (f *fakeBE) Arrive(core int, ctx int) { f.arrivals = append(f.arrivals, core) }

func newCPUHarness(t *testing.T) (*cpuHarness, *fakeBE) {
	t.Helper()
	eng := engine.New()
	cfg := config.Default(4)
	prot := coherence.New(eng, cfg, mem.NewStore())
	be := &fakeBE{}
	core := NewCore(0, eng, cfg.IssueWidth, cfg.GLCallOverhead, prot.L1(0), be)
	be.core = core
	return &cpuHarness{eng: eng, prot: prot, core: core}, be
}

func (h *cpuHarness) runUntilDone(t *testing.T, max int) {
	t.Helper()
	for i := 0; i < max && !h.core.Done(); i++ {
		h.eng.Step()
	}
	if !h.core.Done() {
		t.Fatal("program did not finish")
	}
	if err := h.core.Err(); err != nil {
		t.Fatalf("program error: %v", err)
	}
}

func TestComputeTiming(t *testing.T) {
	h, _ := newCPUHarness(t)
	var at uint64
	h.core.Start(func(c *Ctx) {
		c.Compute(25)
		at = c.Now()
	})
	h.runUntilDone(t, 1000)
	if at != 25 {
		t.Errorf("Compute(25) finished at %d", at)
	}
	if h.core.Breakdown()[stats.RegionBusy] != 25 {
		t.Errorf("busy = %d", h.core.Breakdown()[stats.RegionBusy])
	}
}

func TestWorkUsesIssueWidth(t *testing.T) {
	h, _ := newCPUHarness(t)
	var at uint64
	h.core.Start(func(c *Ctx) {
		c.Work(10) // 2-way: 5 cycles
		c.Work(3)  // ceil(3/2) = 2
		at = c.Now()
	})
	h.runUntilDone(t, 1000)
	if at != 7 {
		t.Errorf("Work(10)+Work(3) took %d cycles, want 7", at)
	}
}

func TestMemoryOpsRegionAttribution(t *testing.T) {
	h, _ := newCPUHarness(t)
	h.core.Start(func(c *Ctx) {
		c.Load(0x1000)      // Read region (defaults from Busy)
		c.StoreV(0x2000, 1) // Write region
		c.Compute(10)       // Busy
		c.InRegion(stats.RegionBarrier, func() {
			c.Load(0x1000) // attributed to Barrier
		})
	})
	h.runUntilDone(t, 1_000_000)
	b := h.core.Breakdown()
	if b[stats.RegionRead] == 0 || b[stats.RegionWrite] == 0 {
		t.Errorf("read/write regions empty: %v", b)
	}
	if b[stats.RegionBusy] != 10 {
		t.Errorf("busy = %d, want 10", b[stats.RegionBusy])
	}
	if b[stats.RegionBarrier] == 0 {
		t.Error("barrier region empty despite InRegion load")
	}
	if b.Total() == 0 {
		t.Error("empty breakdown")
	}
}

func TestValuesRoundTrip(t *testing.T) {
	h, _ := newCPUHarness(t)
	var v1, v2, old uint64
	var scOK bool
	h.core.Start(func(c *Ctx) {
		c.StoreV(0x100, 7)
		v1 = c.Load(0x100)
		old = c.FetchAdd(0x100, 3)
		v2 = c.Load(0x100)
		ll := c.LoadLinked(0x200)
		scOK = c.StoreCond(0x200, ll+1)
	})
	h.runUntilDone(t, 1_000_000)
	if v1 != 7 || old != 7 || v2 != 10 {
		t.Errorf("v1=%d old=%d v2=%d, want 7,7,10", v1, old, v2)
	}
	if !scOK {
		t.Error("uncontended SC failed")
	}
}

func TestGLBarrierArriveAfterOverhead(t *testing.T) {
	h, be := newCPUHarness(t)
	h.core.Start(func(c *Ctx) {
		c.Compute(5)
		c.GLBarrier(0)
	})
	// Run past the arrival: Compute(5) then overhead 9 -> Arrive at 14.
	for i := 0; i < 20; i++ {
		h.eng.Step()
	}
	if len(be.arrivals) != 1 {
		t.Fatalf("arrivals = %v", be.arrivals)
	}
	if !h.core.WaitingAtBarrier() {
		t.Fatal("core not waiting at barrier")
	}
	h.core.GLRelease()
	h.runUntilDone(t, 100)
	if b := h.core.Breakdown()[stats.RegionBarrier]; b == 0 {
		t.Error("no barrier time recorded")
	}
}

func TestGLBarrierWithoutEngineFails(t *testing.T) {
	eng := engine.New()
	cfg := config.Default(4)
	prot := coherence.New(eng, cfg, mem.NewStore())
	core := NewCore(0, eng, 2, 9, prot.L1(0), nil)
	core.Start(func(c *Ctx) { c.GLBarrier(0) })
	for i := 0; i < 100 && !core.Done(); i++ {
		eng.Step()
	}
	if core.Err() == nil {
		t.Error("GLBarrier without a network should fail the program")
	}
}

func TestProgramPanicIsCaptured(t *testing.T) {
	h, _ := newCPUHarness(t)
	h.core.Start(func(c *Ctx) {
		c.Compute(1)
		panic("boom")
	})
	for i := 0; i < 100 && !h.core.Done(); i++ {
		h.eng.Step()
	}
	if h.core.Err() == nil {
		t.Error("panic not captured as program error")
	}
}

func TestAbortUnwindsProgram(t *testing.T) {
	h, _ := newCPUHarness(t)
	h.core.Start(func(c *Ctx) {
		for {
			c.Compute(100)
		}
	})
	for i := 0; i < 10; i++ {
		h.eng.Step()
	}
	h.core.Abort()
	for i := 0; i < 100 && !h.core.Done(); i++ {
		h.eng.Step()
	}
	if !h.core.Done() {
		t.Error("aborted core never finished")
	}
}

// TestAbortBeforeFirstOp aborts a core before the engine first resumes its
// program: the body never runs, and the core finishes cleanly on the next
// step.
func TestAbortBeforeFirstOp(t *testing.T) {
	h, _ := newCPUHarness(t)
	ran := false
	h.core.Start(func(c *Ctx) {
		ran = true
		c.Compute(1)
	})
	h.core.Abort()
	h.eng.Step()
	if ran {
		t.Error("aborted program body ran")
	}
	if !h.core.Done() {
		t.Error("aborted core not done after one step")
	}
	if err := h.core.Err(); err != nil {
		t.Errorf("aborted core failed: %v", err)
	}
}

func TestSpinUntilEqWakesOnWrite(t *testing.T) {
	eng := engine.New()
	cfg := config.Default(4)
	prot := coherence.New(eng, cfg, mem.NewStore())
	spinner := NewCore(0, eng, 2, 9, prot.L1(0), nil)
	writer := NewCore(1, eng, 2, 9, prot.L1(1), nil)
	var sawValue uint64
	spinner.Start(func(c *Ctx) {
		sawValue = c.SpinUntilEq(0x900, 5)
	})
	writer.Start(func(c *Ctx) {
		c.Compute(500)
		c.StoreV(0x900, 5)
	})
	for i := 0; i < 100_000 && !spinner.Done(); i++ {
		eng.Step()
	}
	if !spinner.Done() {
		t.Fatal("spinner never woke")
	}
	if sawValue != 5 {
		t.Errorf("spin saw %d, want 5", sawValue)
	}
	// The spinner must have waited at least as long as the writer's delay.
	if b := spinner.Breakdown(); b[stats.RegionRead] < 400 {
		t.Errorf("spin time %d, want >= 400", b[stats.RegionRead])
	}
}

func TestRangeOpsMatchIndividualTiming(t *testing.T) {
	// Two identical systems: one uses LoadRange, the other a load loop.
	run := func(useRange bool) uint64 {
		eng := engine.New()
		cfg := config.Default(4)
		prot := coherence.New(eng, cfg, mem.NewStore())
		core := NewCore(0, eng, 2, 9, prot.L1(0), nil)
		var end uint64
		core.Start(func(c *Ctx) {
			if useRange {
				c.LoadRange(0x4000, 64, 8)
			} else {
				for i := 0; i < 64; i++ {
					c.Load(0x4000 + uint64(i)*8)
				}
			}
			end = c.Now()
		})
		for i := 0; i < 1_000_000 && !core.Done(); i++ {
			eng.Step()
		}
		return end
	}
	rangeCycles := run(true)
	loopCycles := run(false)
	if rangeCycles != loopCycles {
		t.Errorf("LoadRange took %d cycles, loop took %d; must be identical", rangeCycles, loopCycles)
	}
}

func TestStoreRangeMarksLinesDirty(t *testing.T) {
	h, _ := newCPUHarness(t)
	h.core.Start(func(c *Ctx) {
		c.StoreRange(0x5000, 16, 8)
	})
	h.runUntilDone(t, 1_000_000)
	_, _, stores, _, _ := h.core.OpCounts()
	_ = stores // range ops count once; the timing is what matters
	if h.core.Breakdown()[stats.RegionWrite] == 0 {
		t.Error("StoreRange recorded no write time")
	}
}

func TestOpCounts(t *testing.T) {
	h, _ := newCPUHarness(t)
	h.core.Start(func(c *Ctx) {
		c.Compute(1)
		c.Compute(1)
		c.Load(0x10)
		c.Store(0x20)
		c.FetchAdd(0x30, 1)
	})
	h.runUntilDone(t, 1_000_000)
	compute, loads, stores, atomics, barriers := h.core.OpCounts()
	if compute != 2 || loads != 1 || stores != 1 || atomics != 1 || barriers != 0 {
		t.Errorf("op counts %d/%d/%d/%d/%d", compute, loads, stores, atomics, barriers)
	}
}
