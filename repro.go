// Package repro is the public facade of the G-line barrier reproduction:
// it re-exports the pieces needed to build a simulated CMP, run the
// paper's benchmarks, and regenerate every table and figure of the
// evaluation (see DESIGN.md and EXPERIMENTS.md).
//
// Quick use:
//
//	cfg := repro.DefaultConfig(32)
//	sys, _ := repro.NewSystem(cfg)
//	rep, _ := repro.RunBenchmark(sys, repro.Benchmark("SYNTH", repro.TierScaled), repro.GL, 32)
//	fmt.Println(rep)
//
// The experiment drivers (Fig5, Fig6, Fig7, Table1, Table2) each rerun the
// paper's corresponding evaluation and return both the raw reports and the
// derived table the paper prints.
package repro

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/barrier"
	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Re-exported names for the public API surface.
type (
	// Config is the CMP configuration (Table 1).
	Config = config.Config
	// System is a simulated CMP instance.
	System = sim.System
	// Report is the result of one simulation run.
	Report = sim.Report
	// BarrierKind selects CSW, DSW or GL.
	BarrierKind = barrier.Kind
	// Tier selects benchmark input scale.
	Tier = workload.Tier
	// Workload is one of the paper's benchmarks.
	Workload = workload.Benchmark
)

// SweepOptions configure how an experiment's grid of independent runs
// executes (worker count, fail-fast); see internal/sweep.
type SweepOptions = sweep.Options

// Sequential runs an experiment's cells one at a time on the calling
// goroutine: the reference execution parallel sweeps must match.
var Sequential = SweepOptions{Jobs: 1}

// Parallel runs an experiment's cells on one worker per available CPU.
var Parallel = SweepOptions{}

// Barrier kinds and tiers, re-exported.
const (
	CSW = barrier.KindCSW
	DSW = barrier.KindDSW
	GL  = barrier.KindGL

	TierTest   = workload.TierTest
	TierScaled = workload.TierScaled
	TierRepro  = workload.TierRepro
	TierPaper  = workload.TierPaper
)

// DefaultConfig returns the paper's Table 1 configuration scaled to n
// cores (n=32 reproduces the paper exactly).
func DefaultConfig(n int) Config { return config.Default(n) }

// NewSystem builds a simulated CMP.
func NewSystem(cfg Config) (*System, error) { return sim.New(cfg) }

// Benchmark looks up a paper benchmark by name ("SYNTH", "KERN2", "KERN3",
// "KERN6", "UNSTR", "OCEAN", "EM3D") at the given tier; it panics on an
// unknown name (use workload.ByName for error handling).
func Benchmark(name string, tier Tier) Workload {
	b, err := workload.ByName(name, tier)
	if err != nil {
		panic(err)
	}
	return b
}

// RunBenchmark executes one benchmark on a fresh system with the given
// barrier implementation and thread count.
func RunBenchmark(sys *System, w Workload, kind BarrierKind, threads int) (*Report, error) {
	return workload.Run(context.TODO(), sys, w, kind, threads, defaultCycleBudget)
}

// defaultCycleBudget bounds any single run; the paper-scale OCEAN run is
// the largest at ~75M cycles.
const defaultCycleBudget = 4_000_000_000

// traceDir, when non-empty, makes every fresh-system experiment cell attach
// a span timeline and export it as Chrome trace-event JSON into this
// directory, one file per cell. Set once, before any experiment runs; the
// cells themselves then execute in parallel writing distinct files.
var traceDir string

// SetTraceDir enables per-cell timeline export for the experiment drivers
// (the `reproduce -trace-out DIR` flag). Call it before Fig5/Fig6And7/
// Table2/... start; passing "" disables export again.
func SetTraceDir(dir string) { traceDir = dir }

// runFresh builds a system and runs one benchmark on it until ctx ends.
func runFresh(ctx context.Context, cores int, w Workload, kind BarrierKind) (*Report, error) {
	sys, err := sim.New(config.Default(cores))
	if err != nil {
		return nil, err
	}
	var tl *trace.Timeline
	if traceDir != "" {
		tl = sys.AttachTimeline(1 << 18)
	}
	rep, rerr := workload.Run(ctx, sys, w, kind, cores, defaultCycleBudget)
	if tl != nil {
		// Export even when the run failed — a hang's timeline is the most
		// interesting one — but never let an export error mask a run error.
		if terr := writeTraceArtifact(tl, w.Name(), kind, cores); terr != nil && rerr == nil {
			rerr = terr
		}
	}
	if rerr != nil {
		return rep, fmt.Errorf("%s on %d cores with %s: %w", w.Name(), cores, kind, rerr)
	}
	return rep, nil
}

// writeTraceArtifact exports one cell's timeline as
// <traceDir>/<bench>_<kind>_<cores>.trace.json.
func writeTraceArtifact(tl *trace.Timeline, bench string, kind BarrierKind, cores int) error {
	path := filepath.Join(traceDir, fmt.Sprintf("%s_%s_%d.trace.json", bench, kind, cores))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tl.WriteChrome(f, map[string]string{
		"bench":   bench,
		"barrier": string(kind),
		"cores":   fmt.Sprint(cores),
	})
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// benchSpec is the sweep cell for one fresh-system benchmark run: the
// experiment grids are built from these.
func benchSpec(cores int, w Workload, kind BarrierKind) sweep.Spec {
	return sweep.Spec{
		Label: fmt.Sprintf("%s/%s/%d", w.Name(), kind, cores),
		Run:   func(ctx context.Context) (*Report, error) { return runFresh(ctx, cores, w, kind) },
	}
}
