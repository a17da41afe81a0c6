package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

type cohHarness struct {
	t    *testing.T
	eng  *engine.Engine
	prot *Protocol
}

func newCohHarness(t *testing.T, cores int) *cohHarness {
	t.Helper()
	eng := engine.New()
	cfg := config.Default(cores)
	return &cohHarness{t: t, eng: eng, prot: New(eng, cfg, mem.NewStore())}
}

// access issues one operation and runs the engine until it completes,
// returning the value and the completion cycle.
func (h *cohHarness) access(tile int, kind AccessKind, addr, operand, value uint64, hasValue bool) (uint64, uint64) {
	h.t.Helper()
	done := false
	var got, at uint64
	h.prot.L1(tile).Access(kind, addr, operand, value, hasValue, func(v uint64) {
		done = true
		got = v
		at = h.eng.Now()
	})
	for i := 0; i < 100_000 && !done; i++ {
		h.eng.Step()
	}
	if !done {
		h.t.Fatalf("access %v by tile %d to %#x did not complete", kind, tile, addr)
	}
	return got, at
}

// settle runs the engine until the mesh is empty (acks, unblocks drain).
func (h *cohHarness) settle() {
	for i := 0; i < 100_000 && h.prot.Mesh().InFlight() > 0; i++ {
		h.eng.Step()
	}
	for i := 0; i < 8; i++ {
		h.eng.Step()
	}
}

// addrFor returns a line-aligned address homed at the given tile.
func (h *cohHarness) addrFor(home int) uint64 {
	ls := uint64(h.prot.cfg.LineSize)
	base := uint64(0x100000)
	for a := base; ; a += ls {
		if h.prot.HomeOf(a) == home {
			return a
		}
	}
}

// TestTimelineCoherenceInstants checks the timeline's record of each
// transaction step: the home bank's request and grant instants on the home
// tile's track and the invalidation on the owner's, each with the line
// address as arg.
func TestTimelineCoherenceInstants(t *testing.T) {
	h := newCohHarness(t, 4)
	tl := trace.NewTimeline(0)
	h.prot.SetTimeline(tl)
	addr := h.addrFor(1)
	h.access(0, Read, addr, 0, 0, false)
	h.settle()
	h.access(2, Write, addr, 0, 7, true)
	h.settle()

	want := map[string]string{spanCohDirReq: "core.1", spanCohGrant: "core.1", spanCohInv: "core.0"}
	seen := map[string]bool{}
	for _, e := range tl.Events() {
		track, ok := want[e.Name]
		if !ok {
			continue
		}
		seen[e.Name] = true
		if !e.Instant() || e.Track.String() != track || e.Arg != addr {
			t.Errorf("got %v, want an instant on %s with arg %d", e, track, addr)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("no %s instant recorded", name)
		}
	}
}

func TestReadMissGrantsExclusive(t *testing.T) {
	h := newCohHarness(t, 4)
	addr := h.addrFor(1)
	h.access(0, Read, addr, 0, 0, false)
	h.settle()
	if st := h.prot.L1(0).HasLine(addr); st != cache.StateExclusive {
		t.Errorf("first reader state %v, want E", st)
	}
	state, owner, _ := h.prot.Bank(1).DirState(addr)
	if state != "O" || owner != 0 {
		t.Errorf("dir %s owner %d, want O/0", state, owner)
	}
}

func TestSecondReaderDowngradesToShared(t *testing.T) {
	h := newCohHarness(t, 4)
	addr := h.addrFor(1)
	h.access(0, Read, addr, 0, 0, false)
	h.settle()
	h.access(2, Read, addr, 0, 0, false)
	h.settle()
	if st := h.prot.L1(0).HasLine(addr); st != cache.StateShared {
		t.Errorf("old owner state %v, want S", st)
	}
	if st := h.prot.L1(2).HasLine(addr); st != cache.StateShared {
		t.Errorf("new reader state %v, want S", st)
	}
	state, _, sharers := h.prot.Bank(1).DirState(addr)
	if state != "S" || sharers != 0b101 {
		t.Errorf("dir %s sharers %b, want S/101", state, sharers)
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	h := newCohHarness(t, 4)
	addr := h.addrFor(3)
	h.access(0, Read, addr, 0, 0, false)
	h.settle()
	h.access(1, Read, addr, 0, 0, false)
	h.settle()
	h.access(2, Write, addr, 0, 7, true)
	h.settle()
	if st := h.prot.L1(0).HasLine(addr); st != cache.StateInvalid {
		t.Errorf("sharer 0 state %v, want I", st)
	}
	if st := h.prot.L1(1).HasLine(addr); st != cache.StateInvalid {
		t.Errorf("sharer 1 state %v, want I", st)
	}
	if st := h.prot.L1(2).HasLine(addr); st != cache.StateModified {
		t.Errorf("writer state %v, want M", st)
	}
	if v := h.prot.Memory().Load(addr); v != 7 {
		t.Errorf("functional value %d, want 7", v)
	}
}

func TestReadAfterRemoteWriteSeesValue(t *testing.T) {
	h := newCohHarness(t, 4)
	addr := h.addrFor(2)
	h.access(0, Write, addr, 0, 99, true)
	h.settle()
	v, _ := h.access(1, Read, addr, 0, 0, false)
	if v != 99 {
		t.Errorf("remote read %d, want 99", v)
	}
	h.settle()
	// The dirty owner was forwarded: both end Shared.
	if st := h.prot.L1(0).HasLine(addr); st != cache.StateShared {
		t.Errorf("old writer state %v, want S", st)
	}
}

func TestWriteUpgradeFromShared(t *testing.T) {
	h := newCohHarness(t, 4)
	addr := h.addrFor(1)
	h.access(0, Read, addr, 0, 0, false)
	h.settle()
	h.access(2, Read, addr, 0, 0, false)
	h.settle()
	// Tile 2 already shares the line: its write is an upgrade (1-flit
	// permission grant, no data).
	before := h.prot.Traffic().Flits[stats.ClassReply]
	h.access(2, Write, addr, 0, 1, true)
	h.settle()
	delta := h.prot.Traffic().Flits[stats.ClassReply] - before
	if delta != 1 {
		t.Errorf("upgrade reply used %d flits, want 1 (permission only)", delta)
	}
	if st := h.prot.L1(2).HasLine(addr); st != cache.StateModified {
		t.Errorf("upgrader state %v, want M", st)
	}
}

func TestWriteHitInExclusiveIsSilent(t *testing.T) {
	h := newCohHarness(t, 4)
	addr := h.addrFor(1)
	h.access(0, Read, addr, 0, 0, false)
	h.settle()
	msgs := h.prot.Traffic().TotalMessages()
	h.access(0, Write, addr, 0, 5, true)
	h.settle()
	if got := h.prot.Traffic().TotalMessages(); got != msgs {
		t.Errorf("E->M silent upgrade generated %d messages", got-msgs)
	}
	if st := h.prot.L1(0).HasLine(addr); st != cache.StateModified {
		t.Errorf("state %v, want M", st)
	}
}

func TestAtomicFetchAdd(t *testing.T) {
	h := newCohHarness(t, 4)
	addr := h.addrFor(2)
	v0, _ := h.access(0, AtomicAdd, addr, 5, 0, false)
	v1, _ := h.access(1, AtomicAdd, addr, 3, 0, false)
	if v0 != 0 || v1 != 5 {
		t.Errorf("fetch&add returned %d,%d, want 0,5", v0, v1)
	}
	if v := h.prot.Memory().Load(addr); v != 8 {
		t.Errorf("final value %d, want 8", v)
	}
}

func TestAtomicInvalidatesCachedCopies(t *testing.T) {
	h := newCohHarness(t, 4)
	addr := h.addrFor(2)
	h.access(0, Read, addr, 0, 0, false)
	h.access(1, Read, addr, 0, 0, false)
	h.settle()
	h.access(3, AtomicTAS, addr, 1, 0, false)
	h.settle()
	for tile := 0; tile < 2; tile++ {
		if st := h.prot.L1(tile).HasLine(addr); st != cache.StateInvalid {
			t.Errorf("tile %d state %v after atomic, want I", tile, st)
		}
	}
	state, _, _ := h.prot.Bank(2).DirState(addr)
	if state != "I" {
		t.Errorf("dir state %s after atomic, want I (uncached)", state)
	}
}

func TestLLSCBasic(t *testing.T) {
	h := newCohHarness(t, 4)
	addr := h.addrFor(1)
	v, _ := h.access(0, LoadLinked, addr, 0, 0, false)
	if v != 0 {
		t.Errorf("LL value %d, want 0", v)
	}
	if st := h.prot.L1(0).HasLine(addr); !st.Writable() {
		t.Errorf("post-LL state %v, want writable", st)
	}
	if !h.prot.L1(0).StoreConditional(addr, 42) {
		t.Fatal("SC failed with owned line")
	}
	if got := h.prot.Memory().Load(addr); got != 42 {
		t.Errorf("SC stored %d, want 42", got)
	}
}

func TestLLSCFailsAfterInvalidation(t *testing.T) {
	h := newCohHarness(t, 4)
	addr := h.addrFor(1)
	h.access(0, LoadLinked, addr, 0, 0, false)
	h.settle()
	h.access(2, LoadLinked, addr, 0, 0, false) // steals the line
	h.settle()
	if h.prot.L1(0).StoreConditional(addr, 1) {
		t.Error("SC succeeded after losing the line")
	}
	if !h.prot.L1(2).StoreConditional(addr, 2) {
		t.Error("new owner's SC failed")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	h := newCohHarness(t, 4)
	cfg := h.prot.cfg
	// Fill one L1 set with writes, forcing a dirty eviction.
	setSpan := uint64(cfg.L1Size / cfg.L1Ways) // addresses mapping to the same set
	base := h.addrFor(1)
	for i := 0; i <= cfg.L1Ways; i++ {
		h.access(0, Write, base+uint64(i)*setSpan, 0, uint64(i), true)
		h.settle()
	}
	if st := h.prot.L1(0).HasLine(base); st != cache.StateInvalid {
		t.Fatalf("LRU line not evicted (state %v)", st)
	}
	// After the PutM the directory no longer lists tile 0 as owner, so a
	// re-read must not forward to it.
	state, owner, _ := h.prot.Bank(h.prot.HomeOf(base)).DirState(base)
	if state == "O" && owner == 0 {
		t.Errorf("directory still shows evicted owner: %s/%d", state, owner)
	}
}

func TestBlockingDirectoryQueuesConcurrentRequests(t *testing.T) {
	h := newCohHarness(t, 4)
	addr := h.addrFor(3)
	// Issue two writes from different tiles in the same cycle; both must
	// complete (the second queues at the home).
	done := 0
	h.prot.L1(0).Access(Write, addr, 0, 1, true, func(uint64) { done++ })
	h.prot.L1(1).Access(Write, addr, 0, 2, true, func(uint64) { done++ })
	for i := 0; i < 100_000 && done < 2; i++ {
		h.eng.Step()
	}
	if done != 2 {
		t.Fatalf("only %d of 2 concurrent writes completed", done)
	}
	h.settle()
	// Exactly one tile owns the line.
	owners := 0
	for tile := 0; tile < 2; tile++ {
		if h.prot.L1(tile).HasLine(addr) == cache.StateModified {
			owners++
		}
	}
	if owners != 1 {
		t.Errorf("%d tiles own the line in M, want 1", owners)
	}
}

func TestL1HitLatencyIsOneCycle(t *testing.T) {
	h := newCohHarness(t, 4)
	addr := h.addrFor(1)
	h.access(0, Read, addr, 0, 0, false)
	h.settle()
	start := h.eng.Now()
	_, end := h.access(0, Read, addr, 0, 0, false)
	if end-start != 1 {
		t.Errorf("L1 hit took %d cycles, want 1", end-start)
	}
}

func TestLocalHomeAccessAvoidsNoC(t *testing.T) {
	h := newCohHarness(t, 4)
	addr := h.addrFor(0) // homed at tile 0
	h.access(0, Read, addr, 0, 0, false)
	h.settle()
	if msgs := h.prot.Traffic().TotalMessages(); msgs != 0 {
		t.Errorf("local-home access generated %d NoC messages", msgs)
	}
}

func TestTrafficClassesOnRemoteMiss(t *testing.T) {
	h := newCohHarness(t, 4)
	addr := h.addrFor(2)
	h.access(0, Read, addr, 0, 0, false)
	h.settle()
	tr := h.prot.Traffic()
	if tr.Messages[stats.ClassRequest] != 1 {
		t.Errorf("requests %d, want 1 (GetS)", tr.Messages[stats.ClassRequest])
	}
	if tr.Messages[stats.ClassReply] != 1 {
		t.Errorf("replies %d, want 1 (Data)", tr.Messages[stats.ClassReply])
	}
	if tr.Messages[stats.ClassCoherence] != 1 {
		t.Errorf("coherence %d, want 1 (Unblock)", tr.Messages[stats.ClassCoherence])
	}
	if tr.Flits[stats.ClassReply] != uint64(h.prot.cfg.DataFlits()) {
		t.Errorf("reply flits %d, want %d", tr.Flits[stats.ClassReply], h.prot.cfg.DataFlits())
	}
}

func TestMemoryFetchCharged(t *testing.T) {
	h := newCohHarness(t, 4)
	addr := h.addrFor(1)
	_, end := h.access(0, Read, addr, 0, 0, false)
	if end < h.prot.cfg.MemLatency {
		t.Errorf("cold miss took %d cycles, below the %d-cycle memory latency", end, h.prot.cfg.MemLatency)
	}
	fetches, _ := h.prot.MemAccesses()
	if fetches != 1 {
		t.Errorf("mem fetches %d, want 1", fetches)
	}
	// Second access from elsewhere hits in L2: far faster.
	start := h.eng.Now()
	_, end2 := h.access(3, Read, addr, 0, 0, false)
	if end2-start >= h.prot.cfg.MemLatency {
		t.Errorf("L2 hit took %d cycles", end2-start)
	}
}

func TestWatchFiresOnInvalidation(t *testing.T) {
	h := newCohHarness(t, 4)
	addr := h.addrFor(1)
	h.access(0, Read, addr, 0, 0, false)
	h.settle()
	fired := false
	h.prot.L1(0).Watch(addr, func() { fired = true })
	h.access(2, Write, addr, 0, 1, true)
	h.settle()
	if !fired {
		t.Error("watch did not fire on invalidation")
	}
}

func TestDoubleWatchPanics(t *testing.T) {
	h := newCohHarness(t, 4)
	h.prot.L1(0).Watch(0x40, func() {})
	defer func() {
		if recover() == nil {
			t.Error("double watch did not panic")
		}
	}()
	h.prot.L1(0).Watch(0x80, func() {})
}
