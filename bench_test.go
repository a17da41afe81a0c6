package repro

// One benchmark per table and figure of the paper (see EXPERIMENTS.md).
// Each Fig/Table benchmark executes a full (scaled-tier) simulation per
// iteration and reports the paper's metric via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates every evaluation number in
// miniature. The repro-tier numbers quoted in EXPERIMENTS.md come from
// `cmd/reproduce -tier repro all`.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// benchCores is the paper's CMP size.
const benchCores = 32

// mustRun executes one benchmark run for a testing.B iteration.
func mustRun(b *testing.B, w Workload, kind BarrierKind, cores int) *Report {
	b.Helper()
	rep, err := runFresh(context.Background(), cores, w, kind)
	if err != nil {
		b.Fatal(err)
	}
	return rep
}

// --- Table 1 ---------------------------------------------------------------

func BenchmarkTable1Config(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := config.Default(benchCores)
		if err := cfg.Validate(); err != nil {
			b.Fatal(err)
		}
		_ = Table1(cfg)
	}
}

// --- Table 2: #barriers and barrier period per benchmark --------------------

func benchTable2(b *testing.B, w Workload) {
	b.ReportAllocs()
	var period float64
	for i := 0; i < b.N; i++ {
		rep := mustRun(b, w, DSW, benchCores)
		period = rep.BarrierPeriod
	}
	b.ReportMetric(period, "cycles/barrier-period")
	b.ReportMetric(float64(w.Barriers(benchCores)), "barriers")
}

func BenchmarkTable2_SYNTH(b *testing.B) { benchTable2(b, workload.ScaledSynthetic()) }
func BenchmarkTable2_KERN2(b *testing.B) { benchTable2(b, workload.ScaledKernel2()) }
func BenchmarkTable2_KERN3(b *testing.B) { benchTable2(b, workload.ScaledKernel3()) }
func BenchmarkTable2_KERN6(b *testing.B) { benchTable2(b, workload.ScaledKernel6()) }
func BenchmarkTable2_UNSTR(b *testing.B) { benchTable2(b, workload.ScaledUnstructured()) }
func BenchmarkTable2_OCEAN(b *testing.B) { benchTable2(b, workload.ScaledOcean()) }
func BenchmarkTable2_EM3D(b *testing.B)  { benchTable2(b, workload.ScaledEM3D()) }

// --- Figure 5: average barrier latency vs cores ------------------------------

func benchFig5(b *testing.B, kind BarrierKind, cores int) {
	b.ReportAllocs()
	synth := &workload.Synthetic{Iters: 25}
	var lat float64
	for i := 0; i < b.N; i++ {
		rep := mustRun(b, synth, kind, cores)
		lat = float64(rep.Cycles) / float64(synth.Barriers(cores))
	}
	b.ReportMetric(lat, "cycles/barrier")
}

func BenchmarkFig5_CSW_2(b *testing.B)  { benchFig5(b, CSW, 2) }
func BenchmarkFig5_CSW_8(b *testing.B)  { benchFig5(b, CSW, 8) }
func BenchmarkFig5_CSW_32(b *testing.B) { benchFig5(b, CSW, 32) }
func BenchmarkFig5_DSW_2(b *testing.B)  { benchFig5(b, DSW, 2) }
func BenchmarkFig5_DSW_8(b *testing.B)  { benchFig5(b, DSW, 8) }
func BenchmarkFig5_DSW_32(b *testing.B) { benchFig5(b, DSW, 32) }
func BenchmarkFig5_GL_2(b *testing.B)   { benchFig5(b, GL, 2) }
func BenchmarkFig5_GL_8(b *testing.B)   { benchFig5(b, GL, 8) }
func BenchmarkFig5_GL_32(b *testing.B)  { benchFig5(b, GL, 32) }

// --- Figure 6: normalized execution time, DSW vs GL --------------------------

func benchFig6(b *testing.B, w Workload) {
	b.ReportAllocs()
	var reduction float64
	for i := 0; i < b.N; i++ {
		dsw := mustRun(b, w, DSW, benchCores)
		gl := mustRun(b, w, GL, benchCores)
		reduction = stats.Reduction(float64(dsw.Cycles), float64(gl.Cycles))
	}
	b.ReportMetric(100*reduction, "%time-reduction")
}

func BenchmarkFig6_KERN2(b *testing.B) { benchFig6(b, workload.ScaledKernel2()) }
func BenchmarkFig6_KERN3(b *testing.B) { benchFig6(b, workload.ScaledKernel3()) }
func BenchmarkFig6_KERN6(b *testing.B) { benchFig6(b, workload.ScaledKernel6()) }
func BenchmarkFig6_UNSTR(b *testing.B) { benchFig6(b, workload.ScaledUnstructured()) }
func BenchmarkFig6_OCEAN(b *testing.B) { benchFig6(b, workload.ScaledOcean()) }
func BenchmarkFig6_EM3D(b *testing.B)  { benchFig6(b, workload.ScaledEM3D()) }

// --- Figure 7: normalized network traffic, DSW vs GL -------------------------

func benchFig7(b *testing.B, w Workload) {
	b.ReportAllocs()
	var reduction float64
	for i := 0; i < b.N; i++ {
		dsw := mustRun(b, w, DSW, benchCores)
		gl := mustRun(b, w, GL, benchCores)
		reduction = stats.Reduction(float64(dsw.Traffic.TotalMessages()), float64(gl.Traffic.TotalMessages()))
	}
	b.ReportMetric(100*reduction, "%traffic-reduction")
}

func BenchmarkFig7_KERN2(b *testing.B) { benchFig7(b, workload.ScaledKernel2()) }
func BenchmarkFig7_KERN3(b *testing.B) { benchFig7(b, workload.ScaledKernel3()) }
func BenchmarkFig7_KERN6(b *testing.B) { benchFig7(b, workload.ScaledKernel6()) }
func BenchmarkFig7_UNSTR(b *testing.B) { benchFig7(b, workload.ScaledUnstructured()) }
func BenchmarkFig7_OCEAN(b *testing.B) { benchFig7(b, workload.ScaledOcean()) }
func BenchmarkFig7_EM3D(b *testing.B)  { benchFig7(b, workload.ScaledEM3D()) }

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblation_GLOverhead isolates the ideal 4-cycle hardware latency
// from the software call overhead (paper Section 4.3.1: 13 vs 4 cycles).
func BenchmarkAblation_GLOverhead(b *testing.B) {
	b.ReportAllocs()
	synth := &workload.Synthetic{Iters: 50}
	var ideal, measured float64
	for i := 0; i < b.N; i++ {
		for _, ov := range []uint64{0, 9} {
			cfg := config.Default(16)
			cfg.GLCallOverhead = ov
			sys, err := sim.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			rep, err := workload.Run(context.Background(), sys, synth, GL, 16, 1_000_000_000)
			if err != nil {
				b.Fatal(err)
			}
			lat := float64(rep.Cycles) / float64(synth.Barriers(16))
			if ov == 0 {
				ideal = lat
			} else {
				measured = lat
			}
		}
	}
	b.ReportMetric(ideal, "ideal-cycles/barrier")
	b.ReportMetric(measured, "measured-cycles/barrier")
}

// BenchmarkAblation_FlatVsHierarchical quantifies the clustering cost on a
// mesh both designs can serve (36 cores).
func BenchmarkAblation_FlatVsHierarchical(b *testing.B) {
	b.ReportAllocs()
	var out string
	for i := 0; i < b.N; i++ {
		t, err := AblationHierarchy(50, Sequential)
		if err != nil {
			b.Fatal(err)
		}
		out = t.String()
	}
	_ = out
}

// BenchmarkAblation_TDMContexts measures the latency growth of time-shared
// barrier contexts.
func BenchmarkAblation_TDMContexts(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AblationTDM(16, []int{1, 4}, 50, Sequential); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_DSWLockVsLLSC compares the paper's lock-based combining
// tree against a lock-free LL/SC variant.
func BenchmarkAblation_DSWLockVsLLSC(b *testing.B) {
	b.ReportAllocs()
	var lock, llsc float64
	synth := &workload.Synthetic{Iters: 50}
	for i := 0; i < b.N; i++ {
		for _, useLLSC := range []bool{false, true} {
			sys, err := sim.New(config.Default(benchCores))
			if err != nil {
				b.Fatal(err)
			}
			bar, err := sys.NewBarrier(DSW, benchCores)
			if err != nil {
				b.Fatal(err)
			}
			if useLLSC {
				bar.(interface{ UseLLSC(bool) }).UseLLSC(true)
			}
			rep, err := workload.RunWith(context.Background(), sys, synth, bar, benchCores, 1_000_000_000)
			if err != nil {
				b.Fatal(err)
			}
			lat := float64(rep.Cycles) / float64(synth.Barriers(benchCores))
			if useLLSC {
				llsc = lat
			} else {
				lock = lat
			}
		}
	}
	b.ReportMetric(lock, "lock-cycles/barrier")
	b.ReportMetric(llsc, "llsc-cycles/barrier")
}

// --- Sweep runner -------------------------------------------------------------

// BenchmarkSweepParallelism runs the Figure 5 grid through the sweep pool
// sequentially and with one worker per CPU. On a multi-core host the
// parallel variant's ns/op should drop roughly linearly with core count;
// the fingerprint-checked tables are identical either way (see
// TestParallelSweepMatchesSequential).
func BenchmarkSweepParallelism(b *testing.B) {
	grid := []int{2, 8, 16}
	for _, cfg := range []struct {
		name string
		opt  SweepOptions
	}{
		{"sequential/jobs=1", Sequential},
		{fmt.Sprintf("parallel/jobs=%d", runtime.NumCPU()), SweepOptions{Jobs: runtime.NumCPU()}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Fig5(workload.TierTest, grid, cfg.opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Microbenchmarks of the substrates ---------------------------------------

// BenchmarkSimThroughput measures host performance: simulated cycles per
// wall-clock second on the EM3D workload.
func BenchmarkSimThroughput(b *testing.B) {
	b.ReportAllocs()
	var simCycles uint64
	for i := 0; i < b.N; i++ {
		rep := mustRun(b, workload.ScaledEM3D(), DSW, benchCores)
		simCycles += rep.Cycles
	}
	b.ReportMetric(float64(simCycles)/b.Elapsed().Seconds(), "sim-cycles/s")
}

// BenchmarkGLineBarrierStep measures the raw cost of one hardware barrier
// episode in the G-line network model: the flat 4x4 network of a 16-core
// system.
func BenchmarkGLineBarrierStep(b *testing.B) {
	benchGLineBarrier(b, 16, 4)
}

// BenchmarkGLineBarrierStepClustered is BenchmarkGLineBarrierStep on the
// clustered network of the 32-core (8x4) system, whose barrier takes 6
// cycles.
func BenchmarkGLineBarrierStepClustered(b *testing.B) {
	benchGLineBarrier(b, 32, 6)
}

// benchGLineBarrier times episodes of simultaneous arrivals on the G-line
// network of a system with the given core count, ticking it for the
// barrier's ideal latency per episode.
func benchGLineBarrier(b *testing.B, cores, ticks int) {
	b.ReportAllocs()
	sys, err := sim.New(config.Default(cores))
	if err != nil {
		b.Fatal(err)
	}
	net := sys.GL
	released := 0
	net.OnRelease(nil, func(int) { released++ })
	cycle := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for c := 0; c < cores; c++ {
			net.Arrive(c, 0)
		}
		for j := 0; j < ticks; j++ {
			net.Tick(cycle)
			cycle++
		}
	}
	if released != cores*b.N {
		b.Fatalf("released %d cores in %d episodes of %d", released, b.N, cores)
	}
}
