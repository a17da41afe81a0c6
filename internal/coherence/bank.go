package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/trace"
)

// dirState is the directory's view of a line.
type dirState byte

const (
	// dirInvalid: no L1 holds the line.
	dirInvalid dirState = iota
	// dirShared: one or more L1s hold read-only copies (sharers bitset).
	dirShared
	// dirOwned: exactly one L1 holds the line in E or M.
	dirOwned
)

// contKind names the resumption point of a line's in-flight transaction.
// The directory used to chain closures for these; the enum plus the request
// parameters stored on dirEntry carry the same state without allocating.
type contKind byte

const (
	contNone contKind = iota
	// contGrantE: data at bank; grant the line Exclusive to the requester
	// (read miss on an idle line, or the owner re-reading a dropped line).
	contGrantE
	// contGrantS: data at bank; add the requester as a sharer, grant S.
	contGrantS
	// contFwdShared: the owner acked a Fwd; downgrade the directory to
	// Shared and continue once the data is at the bank.
	contFwdShared
	// contGrantSData: data at bank after a Fwd; grant S to the requester.
	contGrantSData
	// contGrantM: grant Modified ownership to the requester (grantFlits
	// distinguishes a full line from an upgrade's permission-only reply).
	contGrantM
	// contInvDone: every sharer acked its Inv; grant M (directly for an
	// upgrade, after a data read otherwise).
	contInvDone
	// contXfer: the owner acked a 3-hop Inv; either the transfer happened
	// or the home must supply the line itself.
	contXfer
	// contAckDataM: the owner acked a 2-hop Inv; wait for the line data,
	// then grant M.
	contAckDataM
	// contAtomicInv: every cached copy is invalidated; fetch the line,
	// then run the RMW.
	contAtomicInv
	// contAtomicRMW: data at bank; execute the RMW and ack the requester.
	contAtomicRMW
)

type dirEntry struct {
	state   dirState
	owner   int
	sharers uint64 // bitset over tiles
	busy    bool

	// waitq queues requests that arrived while the line was busy; waitHead
	// indexes the next one so draining reuses the backing array instead of
	// reslicing it away.
	waitq    []*msg
	waitHead int

	// In-flight transaction bookkeeping: the continuation kind plus the
	// request parameters it resumes with.
	acksLeft     int
	ackHadData   bool
	ackXferred   bool
	cont         contKind
	awaitUnblock bool

	reqFrom    int
	reqKind    AccessKind
	reqOperand uint64
	grantFlits int
	upgrade    bool
}

// Bank is a tile's slice of the shared distributed L2, including the
// directory for the lines whose home it is. The bank serializes request
// starts (one tag access per L2TagLatency), which is the hot-spot queueing
// that contended software barriers suffer from.
type Bank struct {
	p    *Protocol
	tile int
	l2   *cache.Cache
	dir  map[uint64]*dirEntry

	busyUntil uint64
}

func newBank(p *Protocol, tile int) *Bank {
	return &Bank{
		p:    p,
		tile: tile,
		l2:   cache.New(p.cfg.L2SizePerCore, p.cfg.L2Ways, p.cfg.LineSize),
		dir:  make(map[uint64]*dirEntry),
	}
}

func bit(tile int) uint64 { return 1 << uint(tile) }

// setDir moves the directory entry to state s, counting the transition in
// the coh.dir.transitions metric when the state actually changes.
func (b *Bank) setDir(e *dirEntry, s dirState) {
	if e.state != s {
		b.p.cDirTrans.Inc()
	}
	e.state = s
}

//glvet:cyclepath
func (b *Bank) entry(addr uint64) *dirEntry {
	e := b.dir[addr]
	if e == nil {
		//lint:allow allocfree directory entries are allocated once per line
		e = &dirEntry{}
		b.dir[addr] = e
	}
	return e
}

// receive handles a protocol message addressed to this home bank. Acks,
// writebacks and unblocks are consumed synchronously and recycled here;
// requests stay alive until process (or the wait queue) consumes them.
//
//glvet:cyclepath
func (b *Bank) receive(m *msg) {
	switch m.t {
	case msgGetS, msgGetX, msgAtomic:
		e := b.entry(m.addr)
		if e.busy {
			//lint:allow allocfree waitq growth is amortized; finish() compacts and reuses the array
			e.waitq = append(e.waitq, m)
			b.p.cReqQueued.Inc()
			return
		}
		e.busy = true
		b.schedule(m)
	case msgInvAck, msgFwdAck:
		b.ack(m)
		b.p.freeMsg(m)
	case msgPutM:
		b.putM(m)
		b.p.freeMsg(m)
	case msgUnblock:
		b.unblock(m)
		b.p.freeMsg(m)
	default:
		panic(fmt.Sprintf("coherence: bank %d received %v", b.tile, m.t))
	}
}

// bankProcessCB starts a scheduled request at its tag-access slot: recv is
// the bank, obj the request message.
func bankProcessCB(recv, obj any, _, _ uint64) { recv.(*Bank).process(obj.(*msg)) }

// bankContCB resumes a line's transaction: recv is the bank, obj the
// directory entry, a the line address, b the continuation kind.
func bankContCB(recv, obj any, a, b uint64) {
	recv.(*Bank).runCont(a, obj.(*dirEntry), contKind(b))
}

// bankFetchCB completes an off-chip fetch: install the line in L2, then
// charge the data-array read before resuming the transaction.
func bankFetchCB(recv, obj any, a, b uint64) {
	bk := recv.(*Bank)
	bk.insertL2(a, cache.StateShared)
	bk.p.eng.CallAfter(bk.p.cfg.L2DataLatency, bankContCB, bk, obj, a, b)
}

// schedule charges the bank's tag-access occupancy and then processes m.
//
//glvet:cyclepath
func (b *Bank) schedule(m *msg) {
	now := b.p.eng.Now()
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	b.busyUntil = start + b.p.cfg.L2TagLatency
	b.p.eng.Call(b.busyUntil, bankProcessCB, b, m, 0, 0)
}

//glvet:cyclepath
func (b *Bank) process(m *msg) {
	e := b.entry(m.addr)
	b.p.tl.Instant(trace.CoreTrack(b.tile), spanCohDirReq, b.p.eng.Now(), 0, m.addr)
	t, addr, from := m.t, m.addr, m.from
	kind, operand := m.kind, m.operand
	b.p.freeMsg(m)
	switch t {
	case msgGetS:
		b.getS(e, addr, from)
	case msgGetX:
		b.getX(e, addr, from)
	case msgAtomic:
		e.reqKind, e.reqOperand = kind, operand
		b.atomic(e, addr, from)
	default:
		panic(fmt.Sprintf("coherence: bank %d processing %v", b.tile, t))
	}
}

//glvet:cyclepath
func (b *Bank) getS(e *dirEntry, addr uint64, from int) {
	e.reqFrom = from
	switch e.state {
	case dirInvalid:
		b.withData(addr, e, contGrantE)
	case dirShared:
		b.withData(addr, e, contGrantS)
	case dirOwned:
		if e.owner == from {
			// The owner silently dropped a clean line and re-reads it.
			// (contGrantE rewrites owner/sharers to their current values.)
			b.withData(addr, e, contGrantE)
			return
		}
		b.expectAcks(e, 1, contFwdShared)
		b.p.cFwdSent.Inc()
		b.p.send(b.tile, e.owner, b.p.newMsg(msgFwd, addr, b.tile), controlFlits)
	}
}

//glvet:cyclepath
func (b *Bank) getX(e *dirEntry, addr uint64, from int) {
	e.reqFrom = from
	switch e.state {
	case dirInvalid:
		e.grantFlits = b.p.dataFlits()
		b.withData(addr, e, contGrantM)
	case dirShared:
		wasSharer := e.sharers&bit(from) != 0
		others := e.sharers &^ bit(from)
		e.grantFlits = b.p.dataFlits()
		if wasSharer {
			e.grantFlits = controlFlits // upgrade: permission only
		}
		if others == 0 {
			if wasSharer {
				// Upgrade with no other sharers: permission-only reply,
				// no data read needed.
				b.contAt(b.p.cfg.L2DataLatency, e, addr, contGrantM)
			} else {
				b.withData(addr, e, contGrantM)
			}
			return
		}
		e.upgrade = wasSharer
		n := b.invalidateAll(addr, others)
		b.expectAcks(e, n, contInvDone)
	case dirOwned:
		if e.owner == from {
			// Owner silently dropped the clean line, now writes it.
			e.grantFlits = b.p.dataFlits()
			b.withData(addr, e, contGrantM)
			return
		}
		if b.p.cfg.ThreeHopOwnership {
			// Ask the owner to hand the line straight to the requester;
			// fall back to the home-relay path if the owner no longer
			// has it (silent clean drop).
			e.awaitUnblock = true // the requester acks the direct grant
			b.expectAcks(e, 1, contXfer)
			b.p.cInvSent.Inc()
			inv := b.p.newMsg(msgInv, addr, b.tile)
			inv.xfer = from
			b.p.send(b.tile, e.owner, inv, controlFlits)
			return
		}
		e.grantFlits = b.p.dataFlits()
		b.expectAcks(e, 1, contAckDataM)
		b.p.cInvSent.Inc()
		b.p.send(b.tile, e.owner, b.p.newMsg(msgInv, addr, b.tile), controlFlits)
	}
}

// atomic invalidates every cached copy, performs the RMW on the functional
// store at the home, and returns the old value. The line ends uncached in
// the L1s (it stays resident in this L2 bank).
//
//glvet:cyclepath
func (b *Bank) atomic(e *dirEntry, addr uint64, from int) {
	e.reqFrom = from
	var targets uint64
	switch e.state {
	case dirShared:
		targets = e.sharers
	case dirOwned:
		targets = bit(e.owner)
	}
	if targets == 0 {
		b.withData(addr, e, contAtomicRMW)
		return
	}
	n := b.invalidateAll(addr, targets)
	b.expectAcks(e, n, contAtomicInv)
}

// runCont resumes the transaction on addr at continuation k. Each case is
// the body of what used to be a scheduled closure; the (cycle, seq) order
// of the events that reach here is identical, so timing is unchanged.
//
//glvet:cyclepath
func (b *Bank) runCont(addr uint64, e *dirEntry, k contKind) {
	switch k {
	case contGrantE:
		b.setDir(e, dirOwned)
		e.owner = e.reqFrom
		e.sharers = bit(e.reqFrom)
		b.grant(e, e.reqFrom, addr, grantE, b.p.dataFlits())
	case contGrantS:
		e.sharers |= bit(e.reqFrom)
		b.grant(e, e.reqFrom, addr, grantS, b.p.dataFlits())
	case contFwdShared:
		b.setDir(e, dirShared)
		e.sharers = bit(e.owner) | bit(e.reqFrom)
		b.afterAckData(addr, e, contGrantSData)
	case contGrantSData:
		b.grant(e, e.reqFrom, addr, grantS, b.p.dataFlits())
	case contGrantM:
		b.setDir(e, dirOwned)
		e.owner = e.reqFrom
		e.sharers = bit(e.reqFrom)
		b.grant(e, e.reqFrom, addr, grantM, e.grantFlits)
	case contInvDone:
		if e.upgrade {
			b.runCont(addr, e, contGrantM)
		} else {
			b.withData(addr, e, contGrantM)
		}
	case contXfer:
		if e.ackXferred {
			// Transfer done: directory flips to the requester; the
			// in-flight Unblock closes the transaction.
			b.setDir(e, dirOwned)
			e.owner = e.reqFrom
			e.sharers = bit(e.reqFrom)
			b.maybeFinish(addr, e)
			return
		}
		// Owner had dropped the line: supply it ourselves.
		e.grantFlits = b.p.dataFlits()
		b.withData(addr, e, contGrantM)
	case contAckDataM:
		b.afterAckData(addr, e, contGrantM)
	case contAtomicInv:
		b.withData(addr, e, contAtomicRMW)
	case contAtomicRMW:
		var old uint64
		switch e.reqKind {
		case AtomicAdd:
			old = b.p.memv.FetchAdd(addr, e.reqOperand)
		case AtomicTAS, AtomicSwap:
			old = b.p.memv.FetchStore(addr, e.reqOperand)
		default:
			panic(fmt.Sprintf("coherence: atomic RMW kind %v", e.reqKind))
		}
		b.setDir(e, dirInvalid)
		e.sharers = 0
		b.markDirty(addr)
		ack := b.p.newMsg(msgAtomicAck, addr, b.tile)
		ack.val = old
		b.p.send(b.tile, e.reqFrom, ack, atomicAckFlits)
		b.finish(addr, e)
	default:
		panic(fmt.Sprintf("coherence: bank %d resuming %#x with cont %d", b.tile, addr, k))
	}
}

// invalidateAll sends plain Invs to every tile in the bitset and returns
// the count.
//
//glvet:cyclepath
func (b *Bank) invalidateAll(addr uint64, targets uint64) int {
	n := 0
	for t := 0; t < b.p.cfg.Cores; t++ {
		if targets&bit(t) != 0 {
			b.p.cInvSent.Inc()
			b.p.send(b.tile, t, b.p.newMsg(msgInv, addr, b.tile), controlFlits)
			n++
		}
	}
	return n
}

// expectAcks arms the in-flight transaction to wait for n Inv/Fwd acks.
//
//glvet:cyclepath
func (b *Bank) expectAcks(e *dirEntry, n int, cont contKind) {
	if n <= 0 {
		panic("coherence: expectAcks with n<=0")
	}
	e.acksLeft = n
	e.ackHadData = false
	e.ackXferred = false
	e.cont = cont
}

// ack consumes one InvAck/FwdAck for an in-flight transaction. Stale acks
// (no transaction waiting) are dropped: they come from races with silent
// clean evictions.
//
//glvet:cyclepath
func (b *Bank) ack(m *msg) {
	e := b.dir[m.addr]
	if e == nil || !e.busy || e.acksLeft == 0 {
		b.p.cAckStale.Inc()
		return
	}
	if m.withData {
		e.ackHadData = true
		b.markDirty(m.addr)
	}
	if m.xferred {
		e.ackXferred = true
	}
	e.acksLeft--
	if e.acksLeft == 0 {
		k := e.cont
		e.cont = contNone
		b.runCont(m.addr, e, k)
	}
}

// afterAckData continues after the data for a transaction whose owner was
// forwarded/invalidated is available: if the ack carried the line it is now
// in this bank; otherwise it must come from L2 or memory.
//
//glvet:cyclepath
func (b *Bank) afterAckData(addr uint64, e *dirEntry, k contKind) {
	if e.ackHadData {
		b.contAt(b.p.cfg.L2DataLatency, e, addr, k)
		return
	}
	b.withData(addr, e, k)
}

// putM absorbs a dirty eviction: the line's data comes home. Directory
// state changes only when no transaction is in flight and the writer is
// still the registered owner; otherwise the in-flight transaction's Fwd/Inv
// will be acked without data and this PutM already delivered it.
//
//glvet:cyclepath
func (b *Bank) putM(m *msg) {
	b.markDirty(m.addr)
	e := b.dir[m.addr]
	if e != nil && !e.busy && e.state == dirOwned && e.owner == m.from {
		b.setDir(e, dirInvalid)
		e.sharers = 0
	}
}

// markDirty installs addr in the L2 array as dirty (data present on-chip).
//
//glvet:cyclepath
func (b *Bank) markDirty(addr uint64) { b.insertL2(addr, cache.StateModified) }

//glvet:cyclepath
func (b *Bank) insertL2(addr uint64, st cache.State) {
	if victim, vstate, evicted := b.l2.Insert(addr, st); evicted && vstate == cache.StateModified {
		_ = victim
		b.p.memWritebacks++
	}
}

// contAt schedules runCont(addr, e, k) after delay cycles.
//
//glvet:cyclepath
func (b *Bank) contAt(delay uint64, e *dirEntry, addr uint64, k contKind) {
	b.p.eng.CallAfter(delay, bankContCB, b, e, addr, uint64(k))
}

// withData resumes the transaction once the line's data is available at
// this bank: immediately after the L2 data-array latency on an L2 hit, or
// after an off-chip fetch on a miss.
//
//glvet:cyclepath
func (b *Bank) withData(addr uint64, e *dirEntry, k contKind) {
	if b.l2.Lookup(addr) != cache.StateInvalid {
		b.contAt(b.p.cfg.L2DataLatency, e, addr, k)
		return
	}
	b.p.memFetches++
	b.p.eng.CallAfter(b.p.cfg.MemLatency, bankFetchCB, b, e, addr, uint64(k))
}

// grant sends a Data reply and holds the line's transaction open until the
// requester's Unblock confirms receipt.
//
//glvet:cyclepath
func (b *Bank) grant(e *dirEntry, to int, addr uint64, g grantState, flits int) {
	b.p.tl.Instant(trace.CoreTrack(b.tile), spanCohGrant, b.p.eng.Now(), 0, addr)
	e.awaitUnblock = true
	gm := b.p.newMsg(msgData, addr, b.tile)
	gm.grant = g
	b.p.send(b.tile, to, gm, flits)
}

// unblock closes the transaction a grant left open. For a 3-hop ownership
// transfer the owner's InvAck and the requester's Unblock both have to
// arrive (in either order) before the line unlocks.
//
//glvet:cyclepath
func (b *Bank) unblock(m *msg) {
	e := b.dir[m.addr]
	if e == nil || !e.busy || !e.awaitUnblock {
		panic(fmt.Sprintf("coherence: bank %d spurious Unblock for %#x", b.tile, m.addr))
	}
	e.awaitUnblock = false
	b.maybeFinish(m.addr, e)
}

// maybeFinish closes the transaction once neither acks nor an unblock are
// outstanding.
//
//glvet:cyclepath
func (b *Bank) maybeFinish(addr uint64, e *dirEntry) {
	if e.acksLeft == 0 && !e.awaitUnblock {
		b.finish(addr, e)
	}
}

// finish closes the in-flight transaction on addr and starts the next
// queued request, if any.
//
//glvet:cyclepath
func (b *Bank) finish(addr uint64, e *dirEntry) {
	if !e.busy {
		panic(fmt.Sprintf("coherence: bank %d finishing idle line %#x", b.tile, addr))
	}
	e.acksLeft = 0
	e.cont = contNone
	if e.waitHead == len(e.waitq) {
		e.waitq = e.waitq[:0]
		e.waitHead = 0
		e.busy = false
		return
	}
	m := e.waitq[e.waitHead]
	e.waitq[e.waitHead] = nil
	e.waitHead++
	if e.waitHead == len(e.waitq) {
		e.waitq = e.waitq[:0]
		e.waitHead = 0
	} else if e.waitHead >= 16 && e.waitHead*2 >= len(e.waitq) {
		// Reclaim the drained prefix once it dominates the backing array,
		// so a continuously-contended line's queue stays bounded.
		n := copy(e.waitq, e.waitq[e.waitHead:])
		for i := n; i < len(e.waitq); i++ {
			e.waitq[i] = nil
		}
		e.waitq = e.waitq[:n]
		e.waitHead = 0
	}
	b.schedule(m)
}

// DirState reports the directory view of addr, for tests.
func (b *Bank) DirState(addr uint64) (state string, owner int, sharers uint64) {
	e := b.dir[b.p.LineAddr(addr)]
	if e == nil {
		return "I", -1, 0
	}
	switch e.state {
	case dirInvalid:
		return "I", -1, 0
	case dirShared:
		return "S", -1, e.sharers
	default:
		return "O", e.owner, e.sharers
	}
}
