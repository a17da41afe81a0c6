package workload

import (
	"context"
	"testing"

	"repro/internal/barrier"
	"repro/internal/config"
	"repro/internal/sim"
)

// runSeeded executes bench on a fresh system configured with the given
// WorkloadSeed and returns the run's determinism fingerprint.
func runSeeded(t *testing.T, bench Benchmark, seed int64) string {
	t.Helper()
	cfg := config.Default(8)
	cfg.WorkloadSeed = seed
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatalf("sim.New: %v", err)
	}
	rep, err := Run(context.Background(), s, bench, barrier.KindGL, 8, 200_000_000)
	if err != nil {
		t.Fatalf("Run(%s, seed=%d): %v", bench.Name(), seed, err)
	}
	return rep.Fingerprint()
}

// TestWorkloadSeedVariesInputs pins the WorkloadSeed contract for the two
// benchmarks with randomized inputs: seed zero is the published instance
// (same fingerprint every run, so the repo goldens stay valid), and a
// different seed yields a different — but still deterministic — instance.
func TestWorkloadSeedVariesInputs(t *testing.T) {
	for _, mk := range []func() Benchmark{
		func() Benchmark { return TestEM3D() },
		func() Benchmark { return TestUnstructured() },
	} {
		bench := mk()
		t.Run(bench.Name(), func(t *testing.T) {
			base := runSeeded(t, mk(), 0)
			if again := runSeeded(t, mk(), 0); again != base {
				t.Errorf("seed 0 not reproducible: %s vs %s", base, again)
			}
			alt := runSeeded(t, mk(), 1)
			if alt == base {
				t.Errorf("seed 1 produced the seed-0 fingerprint %s; WorkloadSeed is not reaching the generator", base)
			}
			if again := runSeeded(t, mk(), 1); again != alt {
				t.Errorf("seed 1 not reproducible: %s vs %s", alt, again)
			}
		})
	}
}
