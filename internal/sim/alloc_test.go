package sim

import (
	"fmt"
	"testing"

	"repro/internal/config"
)

// TestSimNewAllocs bounds the allocations of building a 32-core system.
// Each cache keeps its lines in one array; a slice per set would cost
// about 37,000 allocations here.
func TestSimNewAllocs(t *testing.T) {
	cfg := config.Default(32)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := New(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Fatalf("sim.New with 32 cores allocates %.0f objects, want at most 1000", allocs)
	}
}

// BenchmarkSimNew measures building one system: caches, directory, mesh,
// G-line network and cores.
func BenchmarkSimNew(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			cfg := config.Default(n)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := New(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
