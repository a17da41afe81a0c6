// Package workload implements the paper's seven benchmarks at the
// operation level: the synthetic barrier-latency loop, Livermore Kernels 2,
// 3 and 6, and the three scientific applications OCEAN, UNSTRUCTURED and
// EM3D (Table 2).
//
// Each benchmark reproduces the loop and data-access structure that
// determines its barrier count, barrier period and traffic mix — the three
// properties the paper's evaluation depends on. Floating-point values are
// not simulated (latency-only loads/stores); every benchmark's barrier
// count is exact and checked by tests against Table 2's formulas.
//
// Benchmarks come in two scales: Paper*() constructors use the paper's
// input sizes (Table 2); Scaled*() constructors shrink iteration counts so
// the whole suite runs in seconds, preserving per-iteration structure.
package workload

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/barrier"
	"repro/internal/cpu"
	"repro/internal/sim"
)

// Benchmark is one runnable workload.
type Benchmark interface {
	// Name is the paper's label (e.g. "KERN2", "OCEAN").
	Name() string
	// Input describes the input configuration (Table 2's "Input Size").
	Input() string
	// Barriers returns the exact number of barrier episodes the workload
	// executes with the given thread count (Table 2's "#Barriers").
	Barriers(threads int) uint64
	// Programs allocates the benchmark's data on s and returns one
	// program per thread; thread tid runs on core tid and synchronizes
	// through b.
	Programs(s *sim.System, b barrier.Barrier, threads int) ([]cpu.Program, error)
}

// chunk splits n items over threads; it returns the half-open range of
// thread tid. Remainders spread over the first threads.
func chunk(tid, threads, n int) (lo, hi int) {
	base := n / threads
	rem := n % threads
	lo = tid*base + min(tid, rem)
	size := base
	if tid < rem {
		size++
	}
	return lo, lo + size
}

// rng returns the deterministic generator used for synthetic graph
// structure; runs are bit-reproducible. Every benchmark draws from a
// generator seeded here — never from the global math/rand source (the
// glvet detrand analyzer enforces this).
func rng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// seedFor combines a benchmark's fixed base seed with the system's
// configured WorkloadSeed. The default WorkloadSeed of zero leaves the base
// seed unchanged, keeping the determinism goldens bit-identical; a non-zero
// value selects a different deterministic input instance.
func seedFor(s *sim.System, base int64) int64 {
	return base + s.Cfg.WorkloadSeed
}

// validateThreads checks the thread count against the system.
func validateThreads(s *sim.System, threads int) error {
	if threads <= 0 || threads > s.Cfg.Cores {
		return fmt.Errorf("workload: %d threads on a %d-core system", threads, s.Cfg.Cores)
	}
	return nil
}

// Run builds the benchmark on a fresh system and executes it to
// completion, or until ctx ends: the standard harness path used by cmd/
// and the benches.
func Run(ctx context.Context, s *sim.System, bench Benchmark, kind barrier.Kind, threads int, maxCycles uint64) (*sim.Report, error) {
	b, err := s.NewBarrier(kind, threads)
	if err != nil {
		return nil, err
	}
	return RunWith(ctx, s, bench, b, threads, maxCycles)
}

// RunWith is Run with a caller-constructed barrier (used by ablations that
// tweak barrier internals before running).
func RunWith(ctx context.Context, s *sim.System, bench Benchmark, b barrier.Barrier, threads int, maxCycles uint64) (*sim.Report, error) {
	progs, err := bench.Programs(s, b, threads)
	if err != nil {
		return nil, err
	}
	if err := s.Launch(progs); err != nil {
		return nil, err
	}
	s.Eng.Stop = ctx.Err
	rep, err := s.Run(maxCycles)
	if err != nil {
		s.Close()
		return rep, fmt.Errorf("workload %s/%s: %w", bench.Name(), b.Name(), err)
	}
	if want := bench.Barriers(threads); rep.BarrierEpisodes != want {
		return rep, fmt.Errorf("workload %s/%s: executed %d barriers, expected %d", bench.Name(), b.Name(), rep.BarrierEpisodes, want)
	}
	return rep, nil
}

// PaperSuite returns the six Figure 6/7 benchmarks at the paper's input
// scale (Table 2). These are expensive; the scaled suite is the default.
func PaperSuite() []Benchmark {
	return []Benchmark{
		PaperKernel2(), PaperKernel3(), PaperKernel6(),
		PaperUnstructured(), PaperOcean(), PaperEM3D(),
	}
}

// ReproSuite returns the benchmarks with the paper's data sizes but fewer
// outer iterations: per-barrier structure — and hence every normalized
// Figure 6/7 ratio — matches the paper-scale runs, at a fraction of the
// wall-clock. This is the tier cmd/reproduce and the benches use.
func ReproSuite() []Benchmark {
	return []Benchmark{
		ReproKernel2(), ReproKernel3(), ReproKernel6(),
		ReproUnstructured(), ReproOcean(), ReproEM3D(),
	}
}

// ScaledSuite returns the same benchmarks with reduced iteration counts
// (identical per-iteration structure), for tests and quick reproduction.
func ScaledSuite() []Benchmark {
	return []Benchmark{
		ScaledKernel2(), ScaledKernel3(), ScaledKernel6(),
		ScaledUnstructured(), ScaledOcean(), ScaledEM3D(),
	}
}

// TestSuite returns the benchmarks at the miniature test tier: the same
// per-iteration structure at the smallest inputs that still exercise every
// phase. This is the tier the determinism goldens and the parallel-sweep
// equivalence tests pin.
func TestSuite() []Benchmark {
	return []Benchmark{
		TestKernel2(), TestKernel3(), TestKernel6(),
		TestUnstructured(), TestOcean(), TestEM3D(),
	}
}

// Tier selects an input scale for the suite.
type Tier string

// The four input-scale tiers.
const (
	// TierTest: miniature inputs for goldens and CI gates (sub-second).
	TierTest Tier = "test"
	// TierScaled: small inputs, seconds per run (tests).
	TierScaled Tier = "scaled"
	// TierRepro: the paper's data sizes, reduced iterations (harness
	// default).
	TierRepro Tier = "repro"
	// TierPaper: exact Table 2 inputs (slow).
	TierPaper Tier = "paper"
)

// ParseTier validates a tier name.
func ParseTier(s string) (Tier, error) {
	switch Tier(s) {
	case TierTest, TierScaled, TierRepro, TierPaper:
		return Tier(s), nil
	}
	return "", fmt.Errorf("workload: unknown tier %q (want test, scaled, repro or paper)", s)
}

// Extras returns the beyond-the-paper workloads (not part of the paper's
// evaluation suite): the two-context pipeline.
func Extras() []Benchmark { return []Benchmark{ScaledPipeline()} }

// Suite returns the Figure 6/7 benchmarks of the given tier.
func Suite(tier Tier) []Benchmark {
	switch tier {
	case TierPaper:
		return PaperSuite()
	case TierRepro:
		return ReproSuite()
	case TierTest:
		return TestSuite()
	default:
		return ScaledSuite()
	}
}

// SyntheticFor returns the Figure 5 microbenchmark of the given tier.
func SyntheticFor(tier Tier) *Synthetic {
	switch tier {
	case TierPaper:
		return PaperSynthetic()
	case TierRepro:
		return ReproSynthetic()
	case TierTest:
		return TestSynthetic()
	default:
		return ScaledSynthetic()
	}
}

// ByName returns the benchmark with the given name from the chosen tier.
// Extras (e.g. "PIPE") resolve at every tier.
func ByName(name string, tier Tier) (Benchmark, error) {
	all := append(Suite(tier), SyntheticFor(tier))
	all = append(all, Extras()...)
	for _, b := range all {
		if b.Name() == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q", name)
}

// Names lists the paper benchmarks' names ("PIPE" is an extra).
func Names() []string {
	return []string{"SYNTH", "KERN2", "KERN3", "KERN6", "UNSTR", "OCEAN", "EM3D"}
}
