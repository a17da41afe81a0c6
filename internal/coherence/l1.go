package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/trace"
)

// Timeline span names: one spanCohMiss per miss round-trip (request to
// fill), one spanCohAtomic per remote atomic round-trip, both on the
// requesting tile's core track with the line address as arg. They nest
// inside the CPU op span that issued the access.
//
// The instants mark each step of a transaction on the track of the tile
// that handles it, again with the line address as arg: spanCohDirReq when
// the home bank starts a request, spanCohGrant when it sends the data,
// spanCohInv when an L1 handles an invalidation. Spans are written only at
// completion, so these are the timeline's record of a transaction still in
// flight when a run wedges.
const (
	spanCohMiss   = "coh.miss"
	spanCohAtomic = "coh.atomic"
	spanCohDirReq = "coh.dir.req"
	spanCohGrant  = "coh.grant"
	spanCohInv    = "coh.inv"
)

// L1 is a tile's private L1 data cache controller. Cores issue at most one
// access at a time (in-order, blocking), so the controller holds at most
// one pending transaction — kept by value, so the steady state allocates
// nothing per access.
type L1 struct {
	p    *Protocol
	tile int
	c    *cache.Cache

	pend    l1Pending
	pendSet bool

	// stage carries the operation whose completion event is in flight (an
	// L1 hit charging its latency, or a fill/atomic-ack finishing). The
	// core is blocking, so at most one completion is staged at a time. A
	// staged callback must copy the slot to locals before invoking done:
	// done resumes the program, whose next access restages immediately.
	stage l1Pending

	// watch implements efficient busy-wait simulation: a spinning core
	// re-reads a cached line every cycle with no observable effect until
	// the line is invalidated, so the core model sleeps and is woken here
	// instead. Timing is identical to per-cycle re-loads.
	watchLine uint64
	watchFn   func()
}

type l1Pending struct {
	kind     AccessKind
	addr     uint64 // full address
	line     uint64 // line address
	operand  uint64
	value    uint64
	hasValue bool
	start    uint64 // cycle the transaction left the L1 (timeline span start)
	done     func(val uint64)
}

func newL1(p *Protocol, tile int) *L1 {
	return &L1{
		p:    p,
		tile: tile,
		c:    cache.New(p.cfg.L1Size, p.cfg.L1Ways, p.cfg.LineSize),
	}
}

// l1ReadHitCB completes a read hit after the L1 hit latency.
func l1ReadHitCB(recv, _ any, _, _ uint64) {
	l := recv.(*L1)
	addr, done := l.stage.addr, l.stage.done
	done(l.p.memv.Load(addr))
}

// l1LLHitCB completes a LoadLinked that hit a writable line.
func l1LLHitCB(recv, _ any, _, _ uint64) {
	l := recv.(*L1)
	st := l.stage
	if l.c.Peek(st.line) == cache.StateExclusive {
		l.c.SetState(st.line, cache.StateModified)
	}
	st.done(l.p.memv.Load(st.addr))
}

// l1WriteHitCB completes a write hit after the L1 hit latency.
func l1WriteHitCB(recv, _ any, _, _ uint64) {
	l := recv.(*L1)
	st := l.stage
	// The line can be stolen by an invalidation between the hit and this
	// cycle; replay the store as a miss then (store replay, as an in-order
	// pipeline would).
	cur := l.c.Peek(st.line)
	if !cur.Writable() {
		st.start = l.p.eng.Now()
		l.pend = st
		l.pendSet = true
		l.request(msgGetX, st.line)
		return
	}
	if cur == cache.StateExclusive {
		l.c.SetState(st.line, cache.StateModified)
	}
	if st.hasValue {
		l.p.memv.StoreWord(st.addr, st.value)
	}
	st.done(0)
}

// Access issues one memory operation. done is called exactly once, at the
// cycle the operation completes, with the loaded/old value (loads and
// atomics) or 0 (stores). For stores, hasValue=true writes value to the
// functional store at completion time (used for synchronization variables;
// bulk data stores pass hasValue=false).
//
//glvet:cyclepath
func (l *L1) Access(kind AccessKind, addr, operand, value uint64, hasValue bool, done func(val uint64)) {
	if l.pendSet {
		panic(fmt.Sprintf("coherence: L1 %d already has a pending access (line %#x)", l.tile, l.pend.line))
	}
	line := l.p.LineAddr(addr)

	switch kind {
	case Read:
		if st := l.c.Lookup(addr); st != cache.StateInvalid {
			l.stage = l1Pending{kind: kind, addr: addr, line: line, done: done}
			l.p.eng.CallAfter(l.p.cfg.L1HitLatency, l1ReadHitCB, l, nil, 0, 0)
			return
		}
		l.setPend(kind, addr, line, operand, value, hasValue, done)
		l.request(msgGetS, line)
	case LoadLinked:
		st := l.c.Lookup(addr)
		if st.Writable() {
			l.stage = l1Pending{kind: kind, addr: addr, line: line, done: done}
			l.p.eng.CallAfter(l.p.cfg.L1HitLatency, l1LLHitCB, l, nil, 0, 0)
			return
		}
		// Shared or absent: take ownership so the following
		// StoreConditional can succeed locally.
		l.setPend(kind, addr, line, operand, value, hasValue, done)
		l.request(msgGetX, line)
	case Write:
		st := l.c.Lookup(addr)
		if st.Writable() {
			l.stage = l1Pending{kind: kind, addr: addr, line: line, operand: operand, value: value, hasValue: hasValue, done: done}
			l.p.eng.CallAfter(l.p.cfg.L1HitLatency, l1WriteHitCB, l, nil, 0, 0)
			return
		}
		// Shared or absent: need ownership from the home.
		l.setPend(kind, addr, line, operand, value, hasValue, done)
		l.request(msgGetX, line)
	default: // atomics always go to the home bank
		if !kind.IsAtomic() {
			panic(fmt.Sprintf("coherence: unknown access kind %v", kind))
		}
		l.setPend(kind, addr, line, operand, value, hasValue, done)
		home := l.p.HomeOf(line)
		m := l.p.newMsg(msgAtomic, line, l.tile)
		m.kind, m.operand = kind, operand
		l.p.send(l.tile, home, m, atomicReqFlits)
	}
}

//glvet:cyclepath
func (l *L1) setPend(kind AccessKind, addr, line, operand, value uint64, hasValue bool, done func(val uint64)) {
	l.pend = l1Pending{kind: kind, addr: addr, line: line, operand: operand, value: value, hasValue: hasValue, start: l.p.eng.Now(), done: done}
	l.pendSet = true
}

// Busy reports whether an access is outstanding.
func (l *L1) Busy() bool { return l.pendSet }

// HitLatency returns the configured L1 hit latency.
func (l *L1) HitLatency() uint64 { return l.p.cfg.L1HitLatency }

// TryReadHit performs a load if it hits in the L1 (updating LRU and hit
// counters) and reports whether it did. Misses are untouched (no counter
// double-count): the caller falls back to Access.
func (l *L1) TryReadHit(addr uint64) bool {
	if l.c.Peek(addr) == cache.StateInvalid {
		return false
	}
	l.c.Lookup(addr)
	return true
}

// TryWriteHit performs a store if the line is already writable, reporting
// whether it did. Used only for bulk (valueless) stores.
func (l *L1) TryWriteHit(addr uint64) bool {
	st := l.c.Peek(addr)
	if !st.Writable() {
		return false
	}
	l.c.Lookup(addr)
	if st == cache.StateExclusive {
		l.c.SetState(l.p.LineAddr(addr), cache.StateModified)
	}
	return true
}

//glvet:cyclepath
func (l *L1) request(t msgType, line uint64) {
	home := l.p.HomeOf(line)
	l.p.send(l.tile, home, l.p.newMsg(t, line, l.tile), controlFlits)
}

// receive handles protocol messages addressed to this L1. Every message is
// consumed synchronously by its handler, so it is recycled on return.
//
//glvet:cyclepath
func (l *L1) receive(m *msg) {
	switch m.t {
	case msgData:
		l.fill(m)
	case msgAtomicAck:
		l.finishAtomic(m)
	case msgInv:
		l.invalidate(m)
	case msgFwd:
		l.forward(m)
	default:
		panic(fmt.Sprintf("coherence: L1 %d received %v", l.tile, m.t))
	}
	l.p.freeMsg(m)
}

// l1FillCB completes the access a granted line was filled for.
func l1FillCB(recv, _ any, _, _ uint64) {
	l := recv.(*L1)
	st := l.stage
	switch st.kind {
	case Read, LoadLinked:
		if st.kind == LoadLinked && l.c.Peek(st.line) == cache.StateExclusive {
			l.c.SetState(st.line, cache.StateModified)
		}
		st.done(l.p.memv.Load(st.addr))
	case Write:
		if hasLine := l.c.Peek(st.line); hasLine == cache.StateExclusive {
			l.c.SetState(st.line, cache.StateModified)
		}
		if st.hasValue {
			l.p.memv.StoreWord(st.addr, st.value)
		}
		st.done(0)
	default:
		panic(fmt.Sprintf("coherence: L1 %d Data fill for %v", l.tile, st.kind))
	}
}

// fill installs a granted line and completes the pending load/store.
//
//glvet:cyclepath
func (l *L1) fill(m *msg) {
	if !l.pendSet || l.pend.line != m.addr {
		panic(fmt.Sprintf("coherence: L1 %d got Data for %#x without matching pending access", l.tile, m.addr))
	}
	var st cache.State
	switch m.grant {
	case grantS:
		st = cache.StateShared
	case grantE:
		st = cache.StateExclusive
	case grantM:
		st = cache.StateModified
	}
	if victim, vstate, evicted := l.c.Insert(m.addr, st); evicted {
		if vstate == cache.StateModified {
			home := l.p.HomeOf(victim)
			wb := l.p.newMsg(msgPutM, victim, l.tile)
			wb.withData = true
			l.p.send(l.tile, home, wb, l.p.dataFlits())
		}
		// Shared/Exclusive clean victims are dropped silently; the
		// directory tolerates stale sharer bits (spurious Inv is acked).
	}
	l.p.tl.Span(trace.CoreTrack(l.tile), spanCohMiss, l.pend.start, l.p.eng.Now(), 0, m.addr)
	l.stage = l.pend
	l.pend = l1Pending{}
	l.pendSet = false
	// Grant-ack: the home keeps the line's transaction open until the
	// requester confirms the grant arrived, so a later invalidation can
	// never overtake the grant in the network.
	home := l.p.HomeOf(m.addr)
	l.p.send(l.tile, home, l.p.newMsg(msgUnblock, m.addr, l.tile), controlFlits)
	l.p.eng.CallAfter(l.p.cfg.L1HitLatency, l1FillCB, l, nil, 0, 0)
}

// l1AtomicCB completes an atomic once its ack has been charged the L1
// latency; the old value rides in a.
func l1AtomicCB(recv, _ any, a, _ uint64) {
	l := recv.(*L1)
	done := l.stage.done
	done(a)
}

//glvet:cyclepath
func (l *L1) finishAtomic(m *msg) {
	if !l.pendSet || l.pend.line != m.addr || !l.pend.kind.IsAtomic() {
		panic(fmt.Sprintf("coherence: L1 %d got AtomicAck for %#x without matching pending atomic", l.tile, m.addr))
	}
	l.p.tl.Span(trace.CoreTrack(l.tile), spanCohAtomic, l.pend.start, l.p.eng.Now(), 0, m.addr)
	l.stage = l.pend
	l.pend = l1Pending{}
	l.pendSet = false
	l.p.eng.CallAfter(l.p.cfg.L1HitLatency, l1AtomicCB, l, nil, m.val, 0)
}

// invalidate drops the line (if present) and acks the home. An ack is sent
// even when the line is absent: silent clean evictions leave stale sharer
// bits at the directory.
//
//glvet:cyclepath
func (l *L1) invalidate(m *msg) {
	st := l.c.Peek(m.addr)
	l.p.tl.Instant(trace.CoreTrack(l.tile), spanCohInv, l.p.eng.Now(), 0, m.addr)
	if m.xfer >= 0 && st.Writable() {
		// 3-hop ownership transfer: hand the line straight to the new
		// owner, confirm the transfer to the home with a control flit.
		l.c.SetState(m.addr, cache.StateInvalid)
		d := l.p.newMsg(msgData, m.addr, l.tile)
		d.grant = grantM
		l.p.send(l.tile, m.xfer, d, l.p.dataFlits())
		a := l.p.newMsg(msgInvAck, m.addr, l.tile)
		a.xferred = true
		l.p.send(l.tile, m.from, a, controlFlits)
		l.fireWatch(m.addr)
		return
	}
	flits := controlFlits
	ack := l.p.newMsg(msgInvAck, m.addr, l.tile)
	if st == cache.StateModified {
		ack.withData = true
		flits = l.p.dataFlits()
	}
	if st != cache.StateInvalid {
		l.c.SetState(m.addr, cache.StateInvalid)
	}
	l.p.send(l.tile, m.from, ack, flits)
	l.fireWatch(m.addr)
}

// StoreConditional completes a LoadLinked: if this L1 still owns the line
// (nobody stole it since the LL), the store commits locally and scWin is
// true. It costs one L1 access either way and never touches the network —
// the ownership acquired by LoadLinked is the reservation.
func (l *L1) StoreConditional(addr, value uint64) (scWin bool) {
	line := l.p.LineAddr(addr)
	if !l.c.Peek(line).Writable() {
		l.p.cSCFail.Inc()
		return false
	}
	l.c.Lookup(addr)
	l.c.SetState(line, cache.StateModified)
	l.p.memv.StoreWord(addr, value)
	return true
}

// Watch arms a one-shot callback fired when addr's line is invalidated.
// At most one watch per L1 (the single local core). The spinning core's
// next load after the invalidation misses and refetches, exactly as if it
// had been re-loading every cycle.
func (l *L1) Watch(addr uint64, fn func()) {
	if l.watchFn != nil {
		panic(fmt.Sprintf("coherence: L1 %d already watching %#x", l.tile, l.watchLine))
	}
	l.watchLine = l.p.LineAddr(addr)
	l.watchFn = fn
}

//glvet:cyclepath
func (l *L1) fireWatch(line uint64) {
	if l.watchFn != nil && l.watchLine == line {
		fn := l.watchFn
		l.watchFn = nil
		// A faulty wakeup is delayed (or dropped and recovered by the
		// spinning core's periodic re-check, which the injector models as a
		// longer delay); liveness is preserved either way, exactly as a
		// real spin loop re-polling the line would behave.
		if d := l.p.inj.WatchPerturb(l.p.eng.Now(), l.tile); d > 0 {
			l.p.eng.After(d, fn)
			return
		}
		fn()
	}
}

// forward downgrades an owned line to Shared and returns the data to the
// home. Absent lines (silent drop or racing writeback) are acked without
// data.
//
//glvet:cyclepath
func (l *L1) forward(m *msg) {
	st := l.c.Peek(m.addr)
	flits := controlFlits
	ack := l.p.newMsg(msgFwdAck, m.addr, l.tile)
	if st == cache.StateModified || st == cache.StateExclusive {
		l.c.SetState(m.addr, cache.StateShared)
		ack.withData = true
		flits = l.p.dataFlits()
	}
	l.p.send(l.tile, m.from, ack, flits)
}

// HasLine reports the L1 state of addr's line, for tests.
func (l *L1) HasLine(addr uint64) cache.State { return l.c.Peek(l.p.LineAddr(addr)) }
