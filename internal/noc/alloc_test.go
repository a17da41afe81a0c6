package noc

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/stats"
)

// TestZeroAllocFlitStep is the mesh's alloc regression gate: once the
// packet pool and router ring buffers are warm, a full corner-to-corner
// send — inject, placed hops, delivery, packet recycle — must not
// allocate (ISSUE: zero steady-state allocation in flit stepping).
func TestZeroAllocFlitStep(t *testing.T) {
	eng := engine.New()
	delivered := 0
	m := New(eng, 4, 4, 1, 1, func(dst int, p *Packet) { delivered++ })

	roundTrip := func() {
		m.Send(0, 15, stats.ClassRequest, 3, nil)
		m.Send(15, 0, stats.ClassReply, 5, nil)
		for i := 0; i < 500 && m.InFlight() > 0; i++ {
			eng.Step()
		}
	}
	// Warm up: fill the packet free list and grow every router queue that
	// this traffic pattern touches.
	for i := 0; i < 8; i++ {
		roundTrip()
	}
	if m.InFlight() != 0 {
		t.Fatal("warm-up traffic did not drain")
	}
	before := delivered

	allocs := testing.AllocsPerRun(100, roundTrip)
	if allocs != 0 {
		t.Fatalf("pooled send round-trip allocates %.1f objects/op, want 0", allocs)
	}
	if delivered == before {
		t.Fatal("gate measured no deliveries; traffic never moved")
	}
}

// TestZeroAllocWakeRun gates the wake path: the same corner-to-corner
// traffic driven by Engine.Run, which ticks the mesh only on cycles a
// router is due (filed in the due calendar, or woken by an injection) and
// fast-forwards the rest, must not allocate either.
func TestZeroAllocWakeRun(t *testing.T) {
	eng := engine.New()
	delivered := 0
	m := New(eng, 8, 8, 1, 1, func(dst int, p *Packet) { delivered++ })
	drained := func() bool { return m.InFlight() == 0 }
	roundTrip := func() {
		m.Send(0, 63, stats.ClassRequest, 3, nil)
		m.Send(63, 0, stats.ClassReply, 5, nil)
		if _, err := eng.Run(eng.Now()+10_000, drained); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		roundTrip()
	}
	before := delivered
	allocs := testing.AllocsPerRun(100, roundTrip)
	if allocs != 0 {
		t.Fatalf("wake-path round-trip allocates %.1f objects/op, want 0", allocs)
	}
	if delivered == before {
		t.Fatal("gate measured no deliveries; traffic never moved")
	}
}
