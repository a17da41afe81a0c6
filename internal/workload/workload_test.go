package workload

import (
	"context"
	"testing"

	"repro/internal/barrier"
	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
)

// runOne builds a fresh small system and executes bench with the barrier.
func runOne(t *testing.T, bench Benchmark, kind barrier.Kind, cores int) *sim.Report {
	t.Helper()
	s, err := sim.New(config.Default(cores))
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	rep, err := Run(context.Background(), s, bench, kind, cores, 200_000_000)
	if err != nil {
		t.Fatalf("Run(%s,%s): %v", bench.Name(), kind, err)
	}
	return rep
}

func TestScaledSuiteCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled suite is seconds-long; skipped in -short")
	}
	for _, bench := range append(ScaledSuite(), ScaledSynthetic()) {
		bench := bench
		t.Run(bench.Name(), func(t *testing.T) {
			for _, kind := range []barrier.Kind{barrier.KindGL, barrier.KindDSW} {
				rep := runOne(t, bench, kind, 16)
				if rep.Cycles == 0 {
					t.Errorf("%s/%s: zero cycles", bench.Name(), kind)
				}
				if got, want := rep.BarrierEpisodes, bench.Barriers(16); got != want {
					t.Errorf("%s/%s: %d episodes, want %d", bench.Name(), kind, got, want)
				}
				if sum := rep.Breakdown.Total(); sum == 0 {
					t.Errorf("%s/%s: empty time breakdown", bench.Name(), kind)
				}
			}
		})
	}
}

func TestGLBeatsDSWOnSynthetic(t *testing.T) {
	synth := &Synthetic{Iters: 100}
	gl := runOne(t, synth, barrier.KindGL, 16)
	dsw := runOne(t, synth, barrier.KindDSW, 16)
	csw := runOne(t, synth, barrier.KindCSW, 16)
	glLat := float64(gl.Cycles) / float64(synth.Barriers(16))
	dswLat := float64(dsw.Cycles) / float64(synth.Barriers(16))
	cswLat := float64(csw.Cycles) / float64(synth.Barriers(16))
	t.Logf("per-barrier latency: GL=%.1f DSW=%.1f CSW=%.1f", glLat, dswLat, cswLat)
	if !(glLat < dswLat && dswLat < cswLat) {
		t.Errorf("expected GL < DSW < CSW, got GL=%.1f DSW=%.1f CSW=%.1f", glLat, dswLat, cswLat)
	}
	// Paper: 13 cycles measured per barrier (4 ideal + software overhead).
	if glLat < 4 || glLat > 30 {
		t.Errorf("GL latency %.1f outside plausible range [4,30]", glLat)
	}
	if gl.Traffic.TotalMessages() != 0 {
		t.Errorf("GL synthetic generated %d NoC messages, want 0", gl.Traffic.TotalMessages())
	}
}

func TestChunkCoversAll(t *testing.T) {
	for _, n := range []int{0, 1, 7, 64, 1000} {
		for _, threads := range []int{1, 3, 16, 32} {
			covered := 0
			prevHi := 0
			for tid := 0; tid < threads; tid++ {
				lo, hi := chunk(tid, threads, n)
				if lo != prevHi {
					t.Fatalf("chunk(%d,%d,%d): lo=%d, want %d", tid, threads, n, lo, prevHi)
				}
				if hi < lo {
					t.Fatalf("chunk(%d,%d,%d): hi<lo", tid, threads, n)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n || prevHi != n {
				t.Fatalf("chunk(*,%d,%d) covered %d ending %d", threads, n, covered, prevHi)
			}
		}
	}
}

func TestUnstructuredUsesLocks(t *testing.T) {
	rep := runOne(t, ScaledUnstructured(), barrier.KindGL, 8)
	if rep.Breakdown[stats.RegionLock] == 0 {
		t.Error("UNSTRUCTURED reported zero lock time")
	}
}

func TestTable2BarrierFormulas(t *testing.T) {
	cases := []struct {
		bench Benchmark
		want  uint64
	}{
		{PaperSynthetic(), 400_000},
		{PaperKernel2(), 10_000},
		{PaperKernel3(), 1_000},
		{PaperKernel6(), 1_022_000},
		{PaperOcean(), 364},
		{PaperUnstructured(), 80},
		{PaperEM3D(), 200}, // paper reports 198; see EXPERIMENTS.md
	}
	for _, tc := range cases {
		if got := tc.bench.Barriers(32); got != tc.want {
			t.Errorf("%s: Barriers=%d, want %d", tc.bench.Name(), got, tc.want)
		}
	}
}
