package coherence

import (
	"testing"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/mem"
)

// BenchmarkCoherenceTxn measures the coherence layer's host cost per
// transaction on a warm 4x4 mesh: steady read-miss/invalidate round trips
// on one line homed at tile 5. Tile 0 reads the line tile 15 holds
// modified (a read miss that downgrades the owner), then tile 15 writes it
// again (an upgrade that invalidates tile 0's copy); every message crosses
// the mesh. Each transaction runs until the protocol is quiescent, so
// ns/txn covers the whole exchange, and the run must not allocate.
func BenchmarkCoherenceTxn(b *testing.B) {
	eng := engine.New()
	cfg := config.Default(16)
	p := New(eng, cfg, mem.NewStore())
	var addr uint64
	for a := uint64(0x100000); ; a += uint64(cfg.LineSize) {
		if p.HomeOf(a) == 5 {
			addr = a
			break
		}
	}
	var completed, want int
	onDone := func(uint64) { completed++ }
	settled := func() bool { return completed == want && p.Quiescent() }
	txn := func(tile int, kind AccessKind) {
		want++
		p.L1(tile).Access(kind, addr, 0, uint64(want), kind == Write, onDone)
		if _, err := eng.Run(eng.Now()+100_000, settled); err != nil {
			b.Fatal(err)
		}
	}
	round := func() {
		txn(0, Read)
		txn(15, Write)
	}
	for i := 0; i < 8; i++ {
		round()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/txn")
}
