//go:build go1.23

// Package cpu models the in-order cores of the CMP and the operation-level
// program interface workloads are written against.
//
// A Program is an ordinary Go function run as a coroutine (iter.Pull); it
// issues operations (compute, loads, stores, atomics, G-line barriers)
// through a Ctx. Each operation suspends the program and hands the op to
// the core, which resumes it with the result once the engine has timed the
// op. The program only ever runs inside the core's resume call, on the
// engine's goroutine, so simulation remains deterministic while workloads
// read like straight-line code.
package cpu

import (
	"fmt"
	"iter"

	"repro/internal/coherence"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Timeline span names: one span per completed operation on the core's
// track, dispatch to completion, with the op's address (or barrier context)
// as arg. Coherence miss spans nest inside them.
const (
	spanOpCompute    = "cpu.compute"
	spanOpLoad       = "cpu.load"
	spanOpStore      = "cpu.store"
	spanOpAtomic     = "cpu.atomic"
	spanOpBarrier    = "cpu.barrier"
	spanOpSpin       = "cpu.spin"
	spanOpLoadRange  = "cpu.load.range"
	spanOpStoreRange = "cpu.store.range"
	spanOpLoadLinked = "cpu.load.linked"
	spanOpStoreCond  = "cpu.store.cond"
)

// opSpanNames maps an opKind to its timeline span name; entries are the
// package-level constants above, so emit sites stay spanname-clean.
var opSpanNames = [numOpKinds]string{
	opCompute:    spanOpCompute,
	opLoad:       spanOpLoad,
	opStore:      spanOpStore,
	opAtomic:     spanOpAtomic,
	opGLBarrier:  spanOpBarrier,
	opSpin:       spanOpSpin,
	opLoadRange:  spanOpLoadRange,
	opStoreRange: spanOpStoreRange,
	opLoadLinked: spanOpLoadLinked,
	opStoreCond:  spanOpStoreCond,
}

// Program is the code a core executes.
type Program func(c *Ctx)

// BarrierEngine is the hardware barrier the core's bar_reg is wired to
// (the G-line network). Arrive corresponds to `mov 1, bar_reg`; the engine
// calls the core's GLRelease when the hardware resets bar_reg.
type BarrierEngine interface {
	Arrive(core int, barrierCtx int)
}

type opKind int

const (
	opCompute opKind = iota
	opLoad
	opStore
	opAtomic
	opGLBarrier
	opSpin
	opLoadRange
	opStoreRange
	opLoadLinked
	opStoreCond

	numOpKinds
)

type op struct {
	kind       opKind
	cycles     uint64
	addr       uint64
	operand    uint64
	value      uint64
	hasValue   bool
	atomicKind coherence.AccessKind
	barrierCtx int
	region     stats.Region
}

// Core is one in-order processor. It executes at most one operation at a
// time, blocking on memory, and attributes every cycle of its run to a
// stats.Region.
type Core struct {
	id         int
	eng        *engine.Engine
	issueWidth int
	overhead   uint64 // G-line barrier software call overhead
	l1         *coherence.L1
	be         BarrierEngine

	// next resumes the program until it yields its next op; stop unwinds
	// it. yield, called by the program's Ctx, suspends it with an op; the
	// core leaves the op's result in res before resuming it.
	next  func() (op, bool)
	stop  func()
	yield func(op) bool
	res   uint64

	breakdown stats.TimeBreakdown
	opCounts  [numOpKinds]uint64
	running   bool
	done      bool
	err       error

	// curOp is the op being executed (valid while curValid); opStart is
	// the cycle it was dispatched. The core is in-order and blocking, so
	// one slot covers every op kind — no per-op allocation.
	curOp    op
	opStart  uint64
	curValid bool

	glPending bool // outstanding G-line barrier, waiting for GLRelease
	pendStart uint64

	// tl, when set, records one span per completed op on the core's track.
	tl *trace.Timeline

	rangeI uint64 // next element of an in-flight load/store range

	// Method values bound once at construction so the per-op hot path
	// passes existing funcs instead of building closures.
	completeFn    func(uint64)
	spinAttemptFn func()
	spinDoneFn    func(uint64)
	rangeMissFn   func(uint64)
}

// NewCore builds a core. be may be nil if the configuration has no G-line
// network; executing a GLBarrier op then fails the program.
func NewCore(id int, eng *engine.Engine, issueWidth int, glOverhead uint64, l1 *coherence.L1, be BarrierEngine) *Core {
	c := &Core{
		id:         id,
		eng:        eng,
		issueWidth: issueWidth,
		overhead:   glOverhead,
		l1:         l1,
		be:         be,
	}
	c.completeFn = c.complete
	c.spinAttemptFn = c.spinAttempt
	c.spinDoneFn = c.spinDone
	c.rangeMissFn = c.rangeMiss
	return c
}

// ID returns the core's tile index.
func (c *Core) ID() int { return c.id }

// SetBarrierEngine rewires bar_reg to a different barrier network; only
// valid before the core starts running.
func (c *Core) SetBarrierEngine(be BarrierEngine) {
	if c.running {
		panic(fmt.Sprintf("cpu: core %d rewired while running", c.id))
	}
	c.be = be
}

// SetTimeline attaches a span timeline recording op handshakes; only valid
// before the core starts running.
func (c *Core) SetTimeline(tl *trace.Timeline) {
	if c.running {
		panic(fmt.Sprintf("cpu: core %d timeline attached while running", c.id))
	}
	c.tl = tl
}

// Done reports whether the program has finished.
func (c *Core) Done() bool { return c.done }

// Err returns the program's failure, if it panicked.
func (c *Core) Err() error { return c.err }

// Breakdown returns the per-region cycle attribution so far.
func (c *Core) Breakdown() stats.TimeBreakdown { return c.breakdown }

// OpCounts returns executed-operation counts indexed by
// compute/load/store/atomic/barrier.
func (c *Core) OpCounts() (compute, loads, stores, atomics, barriers uint64) {
	return c.opCounts[opCompute], c.opCounts[opLoad], c.opCounts[opStore], c.opCounts[opAtomic], c.opCounts[opGLBarrier]
}

// errAborted is the sentinel carried by the panic that unwinds a program
// when the simulation is torn down early.
var errAborted = fmt.Errorf("cpu: simulation aborted")

// Start launches prog on the core as a coroutine. The engine first resumes
// it, and it begins issuing operations, at the engine's current cycle.
func (c *Core) Start(prog Program) {
	if c.running {
		panic(fmt.Sprintf("cpu: core %d already running", c.id))
	}
	c.running = true
	ctx := &Ctx{core: c, region: stats.RegionBusy}
	c.next, c.stop = iter.Pull(func(yield func(op) bool) {
		defer func() {
			if r := recover(); r != nil && r != errAborted {
				c.err = fmt.Errorf("cpu: core %d program panic: %v", c.id, r)
			}
		}()
		c.yield = yield
		prog(ctx)
	})
	// The program's first instructions run inside the first nextOp, so
	// code it runs before its first operation (e.g. a barrier recorder
	// stamping an arrival) is ordered after everything the engine ran
	// earlier.
	c.eng.At(c.eng.Now(), c.nextOp)
}

// Abort tears the core down mid-run (watchdog/error paths): the program
// unwinds before Abort returns, and the core is done the next time the
// engine reaches it.
func (c *Core) Abort() {
	if c.stop != nil {
		c.stop()
	}
}

// complete finishes the current op: attribute its cycles, hand the result
// to the program, pull the next op. Bound once as c.completeFn so memory
// accesses pass an existing func value.
func (c *Core) complete(val uint64) {
	if c.tl != nil {
		//lint:allow spanname looked up in the const-initialized opSpanNames table
		c.tl.Span(trace.CoreTrack(c.id), opSpanNames[c.curOp.kind], c.opStart, c.eng.Now(), 0, c.curOp.addr)
	}
	c.breakdown.Add(c.curOp.region, c.eng.Now()-c.opStart)
	c.res = val
	c.nextOp()
}

// completeZeroCB completes the current op with result 0 after a pure delay
// (compute spans, accumulated range hits).
func completeZeroCB(recv, _ any, _, _ uint64) { recv.(*Core).complete(0) }

// storeCondCB resolves a StoreConditional after the L1 hit latency.
func storeCondCB(recv, _ any, _, _ uint64) {
	c := recv.(*Core)
	if c.l1.StoreConditional(c.curOp.addr, c.curOp.value) {
		c.complete(1)
	} else {
		c.complete(0)
	}
}

// glArriveCB writes bar_reg after the software call overhead.
func glArriveCB(recv, _ any, _, _ uint64) {
	c := recv.(*Core)
	c.be.Arrive(c.id, c.curOp.barrierCtx)
}

// rangeFireCB issues the pending range miss after its accumulated hit run.
func rangeFireCB(recv, _ any, _, _ uint64) { recv.(*Core).rangeFire() }

// nextOp resumes the program until it issues its next operation, and
// executes that operation.
func (c *Core) nextOp() {
	o, ok := c.next()
	if !ok {
		c.done = true
		return
	}
	c.opCounts[o.kind]++
	c.curOp = o
	c.opStart = c.eng.Now()
	c.curValid = true
	switch o.kind {
	case opCompute:
		if o.cycles == 0 {
			c.complete(0)
			return
		}
		c.eng.CallAfter(o.cycles, completeZeroCB, c, nil, 0, 0)
	case opLoad:
		c.l1.Access(coherence.Read, o.addr, 0, 0, false, c.completeFn)
	case opLoadLinked:
		c.l1.Access(coherence.LoadLinked, o.addr, 0, 0, false, c.completeFn)
	case opStoreCond:
		c.eng.CallAfter(c.l1.HitLatency(), storeCondCB, c, nil, 0, 0)
	case opStore:
		c.l1.Access(coherence.Write, o.addr, 0, o.value, o.hasValue, c.completeFn)
	case opAtomic:
		c.l1.Access(o.atomicKind, o.addr, o.operand, 0, false, c.completeFn)
	case opSpin:
		c.spinAttempt()
	case opLoadRange, opStoreRange:
		c.rangeI = 0
		c.rangeStep()
	case opGLBarrier:
		if c.be == nil {
			c.err = fmt.Errorf("cpu: core %d executed GLBarrier without a barrier engine", c.id)
			c.Abort()
			c.done = true
			return
		}
		c.glPending = true
		c.pendStart = c.opStart
		c.eng.CallAfter(c.overhead, glArriveCB, c, nil, 0, 0)
	}
}

// spinAttempt re-reads the spin target; bound once as c.spinAttemptFn so
// the L1's watch wakeup reuses it.
func (c *Core) spinAttempt() {
	c.l1.Access(coherence.Read, c.curOp.addr, 0, 0, false, c.spinDoneFn)
}

// spinDone inspects one spin read. The spin op stays current until it
// completes, so curOp carries addr/operand across wakeups.
func (c *Core) spinDone(v uint64) {
	if v == c.curOp.operand {
		c.complete(v)
		return
	}
	// The value can only change after an invalidation of the cached copy:
	// sleep until then (timing-identical to re-loading the L1-resident
	// line every cycle).
	c.l1.Watch(c.curOp.addr, c.spinAttemptFn)
}

// rangeStep executes a strided sequence of loads or stores element by
// element. Runs of L1 hits are accumulated into a single event (each hit
// still costs its full hit latency and updates cache state); every miss
// goes through the normal coherence path. Timing is equivalent to issuing
// the accesses one at a time.
func (c *Core) rangeStep() {
	o := &c.curOp
	isLoad := o.kind == opLoadRange
	hitLat := c.l1.HitLatency()
	var acc uint64
	for c.rangeI < o.cycles {
		a := o.addr + c.rangeI*o.operand
		if isLoad && c.l1.TryReadHit(a) {
			acc += hitLat
			c.rangeI++
			continue
		}
		if !isLoad && c.l1.TryWriteHit(a) {
			acc += hitLat
			c.rangeI++
			continue
		}
		break
	}
	if c.rangeI == o.cycles {
		if acc == 0 {
			c.complete(0)
		} else {
			c.eng.CallAfter(acc, completeZeroCB, c, nil, 0, 0)
		}
		return
	}
	if acc > 0 {
		c.eng.CallAfter(acc, rangeFireCB, c, nil, 0, 0)
	} else {
		c.rangeFire()
	}
}

// rangeFire issues the miss at the current range element.
func (c *Core) rangeFire() {
	o := &c.curOp
	kind := coherence.Read
	if o.kind != opLoadRange {
		kind = coherence.Write
	}
	missAddr := o.addr + c.rangeI*o.operand
	c.l1.Access(kind, missAddr, 0, 0, false, c.rangeMissFn)
}

// rangeMiss resumes the range after a miss completes.
func (c *Core) rangeMiss(uint64) {
	c.rangeI++
	c.rangeStep()
}

// GLRelease is called by the G-line network when the hardware resets this
// core's bar_reg: the pending barrier operation completes this cycle.
func (c *Core) GLRelease() {
	if !c.glPending {
		panic(fmt.Sprintf("cpu: core %d released with no barrier pending", c.id))
	}
	c.glPending = false
	c.tl.Span(trace.CoreTrack(c.id), spanOpBarrier, c.pendStart, c.eng.Now(), 0, uint64(c.curOp.barrierCtx))
	c.breakdown.Add(c.curOp.region, c.eng.Now()-c.pendStart)
	c.res = 0
	c.nextOp()
}

// WaitingAtBarrier reports whether the core has a G-line barrier pending.
func (c *Core) WaitingAtBarrier() bool { return c.glPending }

// String names the op kind for post-mortem dumps.
func (k opKind) String() string {
	switch k {
	case opCompute:
		return "compute"
	case opLoad:
		return "load"
	case opStore:
		return "store"
	case opAtomic:
		return "atomic"
	case opGLBarrier:
		return "gl-barrier"
	case opSpin:
		return "spin"
	case opLoadRange:
		return "load-range"
	case opStoreRange:
		return "store-range"
	case opLoadLinked:
		return "load-linked"
	case opStoreCond:
		return "store-cond"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Status is a point-in-time snapshot of a core's execution state, the
// per-core line of the hang watchdog's post-mortem dump.
type Status struct {
	ID        int    `json:"id"`
	Done      bool   `json:"done"`
	AtBarrier bool   `json:"at_barrier"`        // blocked on a pending G-line barrier
	LastOp    string `json:"last_op,omitempty"` // most recently dispatched op kind
	OpStart   uint64 `json:"op_start"`          // cycle the op was dispatched
	TotalOps  uint64 `json:"total_ops"`         // operations executed so far
	Err       string `json:"err,omitempty"`     // program failure, if any
}

// Status snapshots the core's current execution state.
func (c *Core) Status() Status {
	s := Status{
		ID:        c.id,
		Done:      c.done,
		AtBarrier: c.glPending,
	}
	if c.curValid {
		s.LastOp = c.curOp.kind.String()
		s.OpStart = c.opStart
	}
	for _, n := range c.opCounts {
		s.TotalOps += n
	}
	if c.err != nil {
		s.Err = c.err.Error()
	}
	return s
}

// String renders the status as one dump line.
func (s Status) String() string {
	state := "running"
	switch {
	case s.Done:
		state = "done"
	case s.AtBarrier:
		state = "at-barrier"
	}
	line := fmt.Sprintf("core %3d: %-10s last-op %s@%d ops=%d", s.ID, state, s.LastOp, s.OpStart, s.TotalOps)
	if s.Err != "" {
		line += " err=" + s.Err
	}
	return line
}

// Ctx is the interface a Program uses to issue operations. It is only valid
// inside the program's own body.
type Ctx struct {
	core   *Core
	region stats.Region
}

// do hands one operation to the core's pipeline: it suspends the program
// with the op and returns the result the core left once the engine has
// timed it. When the core is aborted yield returns false, and do unwinds
// the program with errAborted.
func (x *Ctx) do(o op) uint64 {
	o.region = x.region
	// Outside synchronization regions, memory stall time is attributed to
	// the paper's Read/Write categories; only pure compute stays Busy.
	if o.region == stats.RegionBusy {
		switch o.kind {
		case opLoad, opSpin, opLoadRange, opLoadLinked:
			o.region = stats.RegionRead
		case opStore, opStoreRange, opStoreCond:
			o.region = stats.RegionWrite
		case opAtomic:
			o.region = stats.RegionWrite
		}
	}
	if !x.core.yield(o) {
		panic(errAborted)
	}
	return x.core.res
}

// CoreID returns the executing core's tile index.
func (x *Ctx) CoreID() int { return x.core.id }

// Now returns the current simulation cycle.
func (x *Ctx) Now() uint64 { return x.core.eng.Now() }

// Compute advances the core by exactly n cycles of computation.
func (x *Ctx) Compute(n uint64) { x.do(op{kind: opCompute, cycles: n}) }

// Work models executing n instructions on the in-order pipeline: it costs
// ceil(n/issueWidth) cycles.
func (x *Ctx) Work(n int) {
	if n <= 0 {
		return
	}
	w := x.core.issueWidth
	x.Compute(uint64((n + w - 1) / w))
}

// Load reads the word at addr, returning its value.
func (x *Ctx) Load(addr uint64) uint64 { return x.do(op{kind: opLoad, addr: addr}) }

// LoadRange issues count loads starting at base with the given stride in
// bytes (default word size when strideBytes is 0), as a streaming read of
// bulk data. Equivalent in simulated time to count individual Loads.
func (x *Ctx) LoadRange(base uint64, count int, strideBytes uint64) {
	if count <= 0 {
		return
	}
	if strideBytes == 0 {
		strideBytes = 8
	}
	x.do(op{kind: opLoadRange, addr: base, cycles: uint64(count), operand: strideBytes})
}

// StoreRange issues count bulk stores starting at base with the given
// stride in bytes (default word size when strideBytes is 0).
func (x *Ctx) StoreRange(base uint64, count int, strideBytes uint64) {
	if count <= 0 {
		return
	}
	if strideBytes == 0 {
		strideBytes = 8
	}
	x.do(op{kind: opStoreRange, addr: base, cycles: uint64(count), operand: strideBytes})
}

// SpinUntilEq busy-waits (repeated loads) until the word at addr equals
// want, returning the observed value. It simulates a load spin loop with
// per-cycle fidelity but costs the host only one event per invalidation.
func (x *Ctx) SpinUntilEq(addr, want uint64) uint64 {
	return x.do(op{kind: opSpin, addr: addr, operand: want})
}

// LoadLinked reads addr while taking ownership of its line, so a following
// StoreCond can commit locally (the LL/SC pair of 2010-era ISAs).
func (x *Ctx) LoadLinked(addr uint64) uint64 {
	return x.do(op{kind: opLoadLinked, addr: addr})
}

// StoreCond conditionally stores value to addr; it reports whether the
// reservation from the preceding LoadLinked still held.
func (x *Ctx) StoreCond(addr, value uint64) bool {
	return x.do(op{kind: opStoreCond, addr: addr, value: value}) == 1
}

// FetchAddLLSC increments addr by delta with a LoadLinked/StoreCond retry
// loop, returning the previous value. Under contention the line bounces
// between cores — the realistic cost of a shared software counter.
func (x *Ctx) FetchAddLLSC(addr, delta uint64) uint64 {
	for {
		old := x.LoadLinked(addr)
		if x.StoreCond(addr, old+delta) {
			return old
		}
	}
}

// Store writes addr without a tracked value (bulk data).
func (x *Ctx) Store(addr uint64) { x.do(op{kind: opStore, addr: addr}) }

// StoreV writes value to addr with functional visibility (synchronization
// variables).
func (x *Ctx) StoreV(addr, value uint64) {
	x.do(op{kind: opStore, addr: addr, value: value, hasValue: true})
}

// FetchAdd atomically adds delta to addr, returning the previous value.
func (x *Ctx) FetchAdd(addr, delta uint64) uint64 {
	return x.do(op{kind: opAtomic, addr: addr, operand: delta, atomicKind: coherence.AtomicAdd})
}

// TestAndSet atomically stores v to addr, returning the previous value.
func (x *Ctx) TestAndSet(addr, v uint64) uint64 {
	return x.do(op{kind: opAtomic, addr: addr, operand: v, atomicKind: coherence.AtomicTAS})
}

// Swap atomically exchanges addr with v, returning the previous value.
func (x *Ctx) Swap(addr, v uint64) uint64 {
	return x.do(op{kind: opAtomic, addr: addr, operand: v, atomicKind: coherence.AtomicSwap})
}

// GLBarrier executes one hardware barrier on the given G-line context: it
// writes bar_reg and blocks until the network resets it. All cycles spent
// here are attributed to the Barrier region.
func (x *Ctx) GLBarrier(barrierCtx int) {
	prev := x.region
	x.region = stats.RegionBarrier
	x.do(op{kind: opGLBarrier, barrierCtx: barrierCtx})
	x.region = prev
}

// InRegion runs fn with all its operations attributed to region r (nesting
// restores the previous region).
func (x *Ctx) InRegion(r stats.Region, fn func()) {
	prev := x.region
	x.region = r
	defer func() { x.region = prev }()
	fn()
}

// Region returns the current attribution region.
func (x *Ctx) Region() stats.Region { return x.region }
