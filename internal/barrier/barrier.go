// Package barrier provides the three barrier implementations the paper
// compares:
//
//   - CSW: a centralized sense-reversal barrier (lock-protected counter +
//     global sense flag each core spins on) — the one-node combining tree;
//   - DSW: a distributed binary combining-tree barrier (the paper's best
//     software baseline);
//   - GL: the hardware G-line barrier (an adapter over the core's bar_reg).
//
// The software barriers run entirely on the simulated memory system —
// their traffic and latency emerge from the coherence protocol and the
// mesh, exactly as the paper's software baselines do.
package barrier

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/stats"
)

// Barrier synchronizes n threads. Implementations keep per-thread local
// state (sense flags) indexed by tid; tids must be in [0,n).
type Barrier interface {
	// Name returns the paper's label: "CSW", "DSW" or "GL".
	Name() string
	// Wait blocks thread tid at the barrier until all n threads arrive.
	// All simulated time spent inside is attributed to RegionBarrier.
	Wait(c *cpu.Ctx, tid int)
}

// Kind selects a barrier implementation by the paper's label.
type Kind string

// The three barrier kinds of the paper's evaluation.
const (
	KindCSW Kind = "CSW"
	KindDSW Kind = "DSW"
	KindGL  Kind = "GL"
)

// ParseKind validates a barrier label.
func ParseKind(s string) (Kind, error) {
	switch Kind(s) {
	case KindCSW, KindDSW, KindGL:
		return Kind(s), nil
	}
	return "", fmt.Errorf("barrier: unknown kind %q (want CSW, DSW or GL)", s)
}

// New builds a barrier of the given kind for n threads. alloc provides
// simulated memory for the software barriers; episodes (may be nil) is
// incremented once per completed software-barrier episode (the G-line
// network counts its own). glCtx is the G-line context used by KindGL.
func New(kind Kind, alloc *mem.Allocator, n int, episodes *uint64, glCtx int) (Barrier, error) {
	if n <= 0 {
		return nil, fmt.Errorf("barrier: need n>=1 threads, got %d", n)
	}
	switch kind {
	case KindCSW:
		return newTree(KindCSW, alloc, n, n, episodes), nil
	case KindDSW:
		return NewCombiningTree(alloc, n, episodes), nil
	case KindGL:
		return NewGLine(glCtx), nil
	}
	return nil, fmt.Errorf("barrier: unknown kind %q", kind)
}

// treeNode is one combining-tree node; lock, counter and sense sit on
// separate cache lines so release traffic does not collide with arrival
// traffic.
type treeNode struct {
	lock    *Lock
	counter uint64
	sense   uint64
	arity   int
	parent  int // index into nodes, -1 for the root
}

// CombiningTree is a lock-based sense-reversal combining tree, the shape of
// both software baselines. Threads are grouped into leaf nodes, and each
// level's nodes into parents, until one root is left; the last arriver of
// each node climbs, and the release retraces the winners' paths top-down
// by flipping each node's sense word.
//
//   - CSW is the one-node tree of radix n, exactly as the paper describes
//     it: "a centralized sense-reversal barrier based on locks, where each
//     core increments a centralized shared counter as it reaches the
//     barrier, and spins until that counter indicates that all cores are
//     present". All contention focuses on that node's lock, counter and
//     sense lines — the hot spot the paper describes.
//   - DSW is the binary tree (radix 2). Its node lines interleave across
//     L2 banks, distributing the counters over the chip (the
//     "distributed" in DSW).
type CombiningTree struct {
	kind     Kind
	leafOf   []int // tid -> leaf node index
	nodes    []treeNode
	local    []uint64 // per-thread sense (private, register-resident)
	episodes *uint64
	rec      *EpisodeRecorder
	// useLLSC switches node increments from lock-protected load/store
	// (the paper's lock-based software barriers) to a lock-free LL/SC
	// retry loop — kept as an ablation of the baseline's implementation.
	useLLSC bool
}

// NewCombiningTree builds the DSW binary tree for n threads.
func NewCombiningTree(alloc *mem.Allocator, n int, episodes *uint64) *CombiningTree {
	return newTree(KindDSW, alloc, n, 2, episodes)
}

// newTree builds a radix-ary tree for n threads, allocating each node's
// lock, counter and sense lines level by level from the leaves.
func newTree(kind Kind, alloc *mem.Allocator, n, radix int, episodes *uint64) *CombiningTree {
	t := &CombiningTree{
		kind:     kind,
		leafOf:   make([]int, n),
		local:    make([]uint64, n),
		episodes: episodes,
	}
	// below is the level being grouped: nil for the threads themselves.
	var below []int
	width := n
	for {
		level := make([]int, 0, (width+radix-1)/radix)
		for i := 0; i < width; i += radix {
			arity := min(radix, width-i)
			idx := t.addNode(alloc, arity)
			for j := i; j < i+arity; j++ {
				if below == nil {
					t.leafOf[j] = idx
				} else {
					t.nodes[below[j]].parent = idx
				}
			}
			level = append(level, idx)
		}
		if len(level) == 1 {
			return t
		}
		below, width = level, len(level)
	}
}

func (t *CombiningTree) addNode(alloc *mem.Allocator, arity int) int {
	t.nodes = append(t.nodes, treeNode{
		lock:    NewLock(alloc),
		counter: alloc.Line(),
		sense:   alloc.Line(),
		arity:   arity,
		parent:  -1,
	})
	return len(t.nodes) - 1
}

// UseLLSC switches the tree's counter increments to lock-free LL/SC (an
// ablation; the default matches the paper's lock-based baseline).
func (b *CombiningTree) UseLLSC(v bool) { b.useLLSC = v }

// inc bumps a node's counter and returns the new value.
func (b *CombiningTree) inc(c *cpu.Ctx, nd *treeNode) uint64 {
	if b.useLLSC {
		return c.FetchAddLLSC(nd.counter, 1) + 1
	}
	nd.lock.Acquire(c)
	v := c.Load(nd.counter) + 1
	c.StoreV(nd.counter, v)
	nd.lock.Release(c)
	return v
}

// Name returns the barrier's kind label, "CSW" or "DSW".
func (b *CombiningTree) Name() string { return string(b.kind) }

// Depth returns the tree height (levels of nodes), for tests.
func (b *CombiningTree) Depth() int {
	d := 0
	for idx := b.leafOf[0]; idx >= 0; idx = b.nodes[idx].parent {
		d++
	}
	return d
}

// Nodes returns the number of tree nodes.
func (b *CombiningTree) Nodes() int { return len(b.nodes) }

// Wait implements the combining-tree barrier with sense reversal.
func (b *CombiningTree) Wait(c *cpu.Ctx, tid int) {
	c.InRegion(stats.RegionBarrier, func() {
		b.rec.arrive(c.Now())
		sense := 1 - b.local[tid]
		b.local[tid] = sense
		// Climb while winning; remember the winners' path. The stack
		// buffer's 8 levels hold a binary tree of up to 256 threads; a
		// deeper path spills to the heap.
		var buf [8]int
		path := buf[:0]
		wonRoot := false
		node := b.leafOf[tid]
		for {
			nd := &b.nodes[node]
			v := b.inc(c, nd)
			if v < uint64(nd.arity) {
				// Not the last at this node: spin here (S2).
				c.SpinUntilEq(nd.sense, sense)
				break
			}
			// Last at this node: reset its counter for the next
			// episode and continue up (S1 combining).
			path = append(path, node)
			c.StoreV(nd.counter, 0)
			if nd.parent < 0 {
				if b.episodes != nil {
					*b.episodes++
				}
				wonRoot = true
				break
			}
			node = nd.parent
		}
		// Release top-down along the path this thread won (S3).
		for i := len(path) - 1; i >= 0; i-- {
			c.StoreV(b.nodes[path[i]].sense, sense)
		}
		if wonRoot {
			// The root winner's final sense store is the release wave's
			// start; sample the episode here.
			b.rec.complete(c.Now())
		}
	})
}

// GLine adapts the hardware G-line barrier to the Barrier interface: a
// single bar_reg write plus busy-wait on the register, as in the paper's
// Figure 3.
type GLine struct {
	ctx int
}

// NewGLine returns the hardware barrier bound to a G-line context.
func NewGLine(ctx int) *GLine { return &GLine{ctx: ctx} }

// Name returns "GL".
func (b *GLine) Name() string { return string(KindGL) }

// Wait executes one hardware barrier.
func (b *GLine) Wait(c *cpu.Ctx, tid int) { c.GLBarrier(b.ctx) }
