package barrier

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/coherence"
	"repro/internal/config"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/mem"
)

// swHarness runs n cores over a coherent memory system, without a G-line
// network (software barriers only).
type swHarness struct {
	t     *testing.T
	eng   *engine.Engine
	cores []*cpu.Core
	alloc *mem.Allocator
	memv  *mem.Store
}

func newSWHarness(t *testing.T, n int) *swHarness {
	t.Helper()
	eng := engine.New()
	cfg := config.Default(n)
	memv := mem.NewStore()
	prot := coherence.New(eng, cfg, memv)
	h := &swHarness{t: t, eng: eng, alloc: mem.NewAllocator(0x100000, cfg.LineSize), memv: memv}
	for i := 0; i < n; i++ {
		h.cores = append(h.cores, cpu.NewCore(i, eng, cfg.IssueWidth, cfg.GLCallOverhead, prot.L1(i), nil))
	}
	return h
}

func (h *swHarness) run(progs []cpu.Program, maxCycles int) {
	h.t.Helper()
	for i, p := range progs {
		h.cores[i].Start(p)
	}
	done := func() bool {
		for _, c := range h.cores[:len(progs)] {
			if !c.Done() {
				return false
			}
		}
		return true
	}
	for i := 0; i < maxCycles && !done(); i++ {
		h.eng.Step()
	}
	if !done() {
		h.t.Fatal("programs did not finish")
	}
	for i, c := range h.cores[:len(progs)] {
		if err := c.Err(); err != nil {
			h.t.Fatalf("core %d: %v", i, err)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, s := range []string{"CSW", "DSW", "GL"} {
		if _, err := ParseKind(s); err != nil {
			t.Errorf("ParseKind(%s): %v", s, err)
		}
	}
	if _, err := ParseKind("XYZ"); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := New("nope", nil, 4, nil, 0); err == nil {
		t.Error("New with unknown kind accepted")
	}
	if _, err := New(KindCSW, nil, 0, nil, 0); err == nil {
		t.Error("New with 0 threads accepted")
	}
}

// checkBarrierOrdering runs iters barrier episodes where each thread
// appends to a shared log before the barrier; after each barrier every
// thread must have observed all n pre-barrier entries of that episode.
func checkBarrierOrdering(t *testing.T, kind Kind, n, iters int) {
	t.Helper()
	h := newSWHarness(t, n)
	var episodes uint64
	b, err := New(kind, h.alloc, n, &episodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	arrived := make([]int, iters) // arrivals counted pre-barrier (host-side)
	progs := make([]cpu.Program, n)
	for tid := 0; tid < n; tid++ {
		tid := tid
		progs[tid] = func(c *cpu.Ctx) {
			for it := 0; it < iters; it++ {
				c.Work(1 + (tid*7+it*13)%23) // deterministic skew
				arrived[it]++
				b.Wait(c, tid)
				if arrived[it] != n {
					t.Errorf("%s: thread %d passed barrier %d with %d/%d arrivals", kind, tid, it, arrived[it], n)
				}
			}
		}
	}
	h.run(progs, 100_000_000)
	if episodes != uint64(iters) {
		t.Errorf("%s: episodes=%d, want %d", kind, episodes, iters)
	}
}

func TestCentralizedBarrierOrdering(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8, 16} {
		checkBarrierOrdering(t, KindCSW, n, 4)
	}
}

func TestCombiningTreeBarrierOrdering(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8, 16, 32} {
		checkBarrierOrdering(t, KindDSW, n, 4)
	}
}

func TestCombiningTreeShape(t *testing.T) {
	alloc := mem.NewAllocator(0, 64)
	cases := []struct{ n, depth, nodes int }{
		{1, 1, 1}, {2, 1, 1}, {3, 2, 3}, {4, 2, 3}, {8, 3, 7},
		{16, 4, 15}, {32, 5, 31}, {5, 3, 6},
	}
	for _, tc := range cases {
		b := NewCombiningTree(alloc, tc.n, nil)
		if got := b.Depth(); got != tc.depth {
			t.Errorf("n=%d depth=%d, want %d", tc.n, got, tc.depth)
		}
		if got := b.Nodes(); got != tc.nodes {
			t.Errorf("n=%d nodes=%d, want %d", tc.n, got, tc.nodes)
		}
	}
}

func TestCombiningTreeLLSCVariant(t *testing.T) {
	n := 8
	h := newSWHarness(t, n)
	var episodes uint64
	b := NewCombiningTree(h.alloc, n, &episodes)
	b.UseLLSC(true)
	progs := make([]cpu.Program, n)
	for tid := 0; tid < n; tid++ {
		tid := tid
		progs[tid] = func(c *cpu.Ctx) {
			for it := 0; it < 3; it++ {
				b.Wait(c, tid)
			}
		}
	}
	h.run(progs, 100_000_000)
	if episodes != 3 {
		t.Errorf("LL/SC tree episodes=%d, want 3", episodes)
	}
}

// Property: barriers are safe and live for random thread counts and
// deterministic random skews.
func TestPropBarriersSafeAndLive(t *testing.T) {
	f := func(seed int64, kindSel bool, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		kind := KindCSW
		if kindSel {
			kind = KindDSW
		}
		h := newSWHarness(t, n)
		var episodes uint64
		b, err := New(kind, h.alloc, n, &episodes, 0)
		if err != nil {
			return false
		}
		r := rand.New(rand.NewSource(seed))
		skews := make([][]int, n)
		const iters = 3
		for i := range skews {
			skews[i] = make([]int, iters)
			for j := range skews[i] {
				skews[i][j] = r.Intn(300)
			}
		}
		phase := make([]int, n)
		ok := true
		progs := make([]cpu.Program, n)
		for tid := 0; tid < n; tid++ {
			tid := tid
			progs[tid] = func(c *cpu.Ctx) {
				for it := 0; it < iters; it++ {
					c.Compute(uint64(skews[tid][it] + 1))
					phase[tid] = it + 1
					b.Wait(c, tid)
					for o := 0; o < n; o++ {
						if phase[o] < it+1 {
							ok = false // someone released early
						}
					}
				}
			}
		}
		h.run(progs, 100_000_000)
		return ok && episodes == iters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLockMutualExclusion(t *testing.T) {
	const n = 8
	h := newSWHarness(t, n)
	lk := NewLock(h.alloc)
	inside := 0
	violations := 0
	progs := make([]cpu.Program, n)
	for tid := 0; tid < n; tid++ {
		progs[tid] = func(c *cpu.Ctx) {
			for it := 0; it < 5; it++ {
				lk.Acquire(c)
				inside++
				if inside != 1 {
					violations++
				}
				c.Compute(7)
				inside--
				lk.Release(c)
			}
		}
	}
	h.run(progs, 100_000_000)
	if violations != 0 {
		t.Errorf("%d mutual-exclusion violations", violations)
	}
}

// Property: lock-protected counter increments never lose updates.
func TestPropLockedCounter(t *testing.T) {
	f := func(nRaw, itersRaw uint8) bool {
		n := int(nRaw%8) + 2
		iters := int(itersRaw%5) + 1
		h := newSWHarness(t, n)
		lk := NewLock(h.alloc)
		ctr := h.alloc.Line()
		progs := make([]cpu.Program, n)
		for tid := 0; tid < n; tid++ {
			progs[tid] = func(c *cpu.Ctx) {
				for it := 0; it < iters; it++ {
					lk.Acquire(c)
					c.StoreV(ctr, c.Load(ctr)+1)
					lk.Release(c)
				}
			}
		}
		h.run(progs, 100_000_000)
		return h.memv.Load(ctr) == uint64(n*iters)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: LL/SC fetch&add is linearizable — the set of returned old
// values is exactly {0..total-1}.
func TestPropLLSCFetchAddLinearizable(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%8) + 2
		const per = 4
		h := newSWHarness(t, n)
		ctr := h.alloc.Line()
		seen := make(map[uint64]bool)
		progs := make([]cpu.Program, n)
		for tid := 0; tid < n; tid++ {
			progs[tid] = func(c *cpu.Ctx) {
				for it := 0; it < per; it++ {
					old := c.FetchAddLLSC(ctr, 1)
					if seen[old] {
						t.Errorf("duplicate fetch&add result %d", old)
					}
					seen[old] = true
				}
			}
		}
		h.run(progs, 100_000_000)
		if len(seen) != n*per {
			return false
		}
		for i := 0; i < n*per; i++ {
			if !seen[uint64(i)] {
				return false
			}
		}
		return h.memv.Load(ctr) == uint64(n*per)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestBarrierNames(t *testing.T) {
	alloc := mem.NewAllocator(0, 64)
	if b, err := New(KindCSW, alloc, 2, nil, 0); err != nil || b.Name() != "CSW" {
		t.Error("CSW name")
	}
	if NewCombiningTree(alloc, 2, nil).Name() != "DSW" {
		t.Error("DSW name")
	}
	if NewGLine(0).Name() != "GL" {
		t.Error("GL name")
	}
}
