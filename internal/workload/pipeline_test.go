package workload

import (
	"context"
	"testing"

	"repro/internal/barrier"
	"repro/internal/config"
	"repro/internal/sim"
)

func TestPipelineTwoContexts(t *testing.T) {
	cfg := config.Default(16)
	cfg.GLContexts = 2
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := ScaledPipeline()
	rep, err := Run(context.Background(), s, w, barrier.KindGL, 16, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BarrierEpisodes != w.Barriers(16) {
		t.Errorf("episodes=%d, want %d", rep.BarrierEpisodes, w.Barriers(16))
	}
	if rep.Traffic.TotalMessages() == 0 {
		t.Error("the buffer hand-off should generate coherence traffic")
	}
}

func TestPipelineRequiresTwoContexts(t *testing.T) {
	s, err := sim.New(config.Default(16)) // default: 1 context
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.NewBarrier(barrier.KindGL, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScaledPipeline().Programs(s, b, 16); err == nil {
		t.Error("pipeline accepted a single-context network")
	}
}

func TestPipelineRejectsSoftwareBarrier(t *testing.T) {
	cfg := config.Default(16)
	cfg.GLContexts = 2
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.NewBarrier(barrier.KindDSW, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ScaledPipeline().Programs(s, b, 16); err == nil {
		t.Error("pipeline accepted a software barrier")
	}
	if _, err := ScaledPipeline().Programs(s, nil, 5); err == nil {
		t.Error("pipeline accepted an odd thread count")
	}
}
