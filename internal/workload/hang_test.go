package workload

import (
	"context"
	"testing"

	"repro/internal/barrier"
	"repro/internal/config"
	"repro/internal/sim"
)

// TestDSWSmokeSmall pins down the LL/SC combining-tree behaviour on tiny
// configurations (regression for a livelock found during bring-up).
func TestDSWSmokeSmall(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5, 8} {
		n := n
		s, err := sim.New(config.Default(n))
		if err != nil {
			t.Fatal(err)
		}
		synth := &Synthetic{Iters: 2}
		rep, err := Run(context.Background(), s, synth, barrier.KindDSW, n, 1_000_000)
		if err != nil {
			t.Fatalf("n=%d: %v (episodes=%d cycles=%d)", n, err, rep.BarrierEpisodes, rep.Cycles)
		}
	}
}
