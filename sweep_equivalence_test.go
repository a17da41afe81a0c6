package repro

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/sweep"
	"repro/internal/workload"
)

// jobs8 is the parallel configuration the acceptance gate pins against
// the sequential reference.
var jobs8 = SweepOptions{Jobs: 8}

// TestParallelSweepMatchesSequential is the determinism gate for the
// sweep runner: every experiment of `reproduce -tier test all` must
// produce byte-identical tables — and identical per-run fingerprints —
// with -jobs 8 and -jobs 1.
func TestParallelSweepMatchesSequential(t *testing.T) {
	const cores = 16

	t.Run("table2", func(t *testing.T) {
		seq, err := Table2(TierTest, cores, Sequential)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Table2(TierTest, cores, jobs8)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != len(par) {
			t.Fatalf("row counts differ: %d vs %d", len(seq), len(par))
		}
		for i := range seq {
			sf, pf := seq[i].Report.Fingerprint(), par[i].Report.Fingerprint()
			if sf != pf {
				t.Errorf("%s: fingerprints diverge: seq=%s par=%s", seq[i].Name, sf, pf)
			}
		}
		if a, b := RenderTable2(seq).String(), RenderTable2(par).String(); a != b {
			t.Errorf("rendered tables differ:\nseq:\n%s\npar:\n%s", a, b)
		}
	})

	t.Run("fig5", func(t *testing.T) {
		grid := []int{2, 8, cores}
		seq, err := Fig5(TierTest, grid, Sequential)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Fig5(TierTest, grid, jobs8)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			for _, kind := range []BarrierKind{CSW, DSW, GL} {
				sf, pf := seq[i].Reports[kind].Fingerprint(), par[i].Reports[kind].Fingerprint()
				if sf != pf {
					t.Errorf("cores=%d %s: fingerprints diverge: seq=%s par=%s", seq[i].Cores, kind, sf, pf)
				}
			}
		}
		if a, b := RenderFig5(seq).String(), RenderFig5(par).String(); a != b {
			t.Errorf("rendered tables differ:\nseq:\n%s\npar:\n%s", a, b)
		}
	})

	t.Run("fig6and7", func(t *testing.T) {
		seq, err := Fig6And7(TierTest, cores, Sequential)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Fig6And7(TierTest, cores, jobs8)
		if err != nil {
			t.Fatal(err)
		}
		for i := range seq {
			if sf, pf := seq[i].DSW.Fingerprint(), par[i].DSW.Fingerprint(); sf != pf {
				t.Errorf("%s/DSW: fingerprints diverge: %s vs %s", seq[i].Name, sf, pf)
			}
			if sf, pf := seq[i].GL.Fingerprint(), par[i].GL.Fingerprint(); sf != pf {
				t.Errorf("%s/GL: fingerprints diverge: %s vs %s", seq[i].Name, sf, pf)
			}
		}
		if a, b := RenderFig6(seq).String(), RenderFig6(par).String(); a != b {
			t.Errorf("Figure 6 tables differ:\nseq:\n%s\npar:\n%s", a, b)
		}
		if a, b := RenderFig7(seq).String(), RenderFig7(par).String(); a != b {
			t.Errorf("Figure 7 tables differ:\nseq:\n%s\npar:\n%s", a, b)
		}
	})

	t.Run("ablations", func(t *testing.T) {
		if testing.Short() {
			t.Skip("ablation grids in -short mode")
		}
		type study struct {
			name string
			run  func(opt SweepOptions) (string, error)
		}
		studies := []study{
			{"overhead", func(opt SweepOptions) (string, error) {
				tab, err := AblationOverhead(16, []uint64{0, 9}, 20, opt)
				return tab.String(), err
			}},
			{"router", func(opt SweepOptions) (string, error) {
				tab, err := AblationRouterDepth(16, []uint64{1, 4}, 20, opt)
				return tab.String(), err
			}},
			{"tdm", func(opt SweepOptions) (string, error) {
				tab, err := AblationTDM(16, []int{1, 2}, 20, opt)
				return tab.String(), err
			}},
		}
		for _, s := range studies {
			seq, err := s.run(Sequential)
			if err != nil {
				t.Fatalf("%s sequential: %v", s.name, err)
			}
			par, err := s.run(jobs8)
			if err != nil {
				t.Fatalf("%s parallel: %v", s.name, err)
			}
			if seq != par {
				t.Errorf("%s tables differ:\nseq:\n%s\npar:\n%s", s.name, seq, par)
			}
		}
	})
}

// TestTimedOutCellsStop runs two repro-tier cells that need seconds under
// a 300 ms Timeout: both record ErrTimeout within a second, and none of
// their goroutines outlives the sweep.
func TestTimedOutCellsStop(t *testing.T) {
	w := workload.ReproUnstructured()
	specs := []sweep.Spec{benchSpec(32, w, CSW), benchSpec(32, w, DSW)}
	before := runtime.NumGoroutine()
	start := time.Now()
	results := sweep.Run(SweepOptions{Jobs: 2, Timeout: 300 * time.Millisecond}, specs)
	elapsed := time.Since(start)
	for _, r := range results {
		if !errors.Is(r.Err, sweep.ErrTimeout) {
			t.Errorf("%s: err = %v, want ErrTimeout", r.Label, r.Err)
		}
	}
	if elapsed > time.Second {
		t.Errorf("sweep returned after %v, want within 1s", elapsed)
	}
	// A worker is still exiting for a moment after its last wg.Done.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(100 * time.Millisecond); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Errorf("%d goroutines before the sweep, %d after it", before, after)
	}
}
