package coherence

import (
	"fmt"

	"repro/internal/config"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/metrics"
	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/trace"
)

// localHopLatency is the cycles charged for an intra-tile message (an L1
// talking to the L2 bank on its own tile), which never enters the mesh.
const localHopLatency = 1

// Protocol is the whole coherent memory system: one L1 per tile, one L2
// home bank per tile, the mesh connecting them, and the functional store.
type Protocol struct {
	eng   *engine.Engine
	cfg   config.Config
	mesh  *noc.Mesh
	memv  *mem.Store
	l1s   []*L1
	banks []*Bank
	// tl, when set, records coherence transactions: miss and atomic
	// round-trips as spans on the requesting tile's track, and directory
	// requests, grants and invalidations as instants on the handling
	// tile's track.
	tl *trace.Timeline

	// inj, when set, injects faults into the memory system: mesh link
	// faults and perturbed L1 spin-watch wakeups. Nil in fault-free runs.
	inj *fault.Injector

	// msgFree recycles protocol messages: every msg is freed by its final
	// consumer (L1 receive, bank ack/putM/unblock, bank process) and
	// reused by the next construction, so steady state allocates none.
	msgFree *msg

	lineMask uint64

	// memFetches and memWritebacks count off-chip accesses.
	memFetches, memWritebacks uint64

	reg *metrics.Registry
	// Protocol-event counters, shared by every bank and L1.
	cDirTrans  *metrics.Counter // directory state transitions
	cInvSent   *metrics.Counter // invalidations sent to L1s
	cFwdSent   *metrics.Counter // owner forwards (downgrades) sent
	cAckStale  *metrics.Counter // stale acks dropped (silent-evict races)
	cReqQueued *metrics.Counter // requests NACK-queued behind a busy line
	cSCFail    *metrics.Counter // failed store-conditionals (lock retries)
}

// Metric names registered by the protocol.
const (
	metricDirTransitions = "coh.dir.transitions"
	metricInvSent        = "coh.inv.sent"
	metricFwdSent        = "coh.fwd.sent"
	metricAckStale       = "coh.ack.stale"
	metricReqQueued      = "coh.req.queued"
	metricSCFailures     = "coh.sc.failures"
)

// New builds the coherent memory system for the given configuration.
func New(eng *engine.Engine, cfg config.Config, memv *mem.Store) *Protocol {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("coherence: %v", err))
	}
	p := &Protocol{
		eng:      eng,
		cfg:      cfg,
		memv:     memv,
		lineMask: ^uint64(cfg.LineSize - 1),
		reg:      metrics.NewRegistry(),
	}
	p.cDirTrans = p.reg.Counter(metricDirTransitions)
	p.cInvSent = p.reg.Counter(metricInvSent)
	p.cFwdSent = p.reg.Counter(metricFwdSent)
	p.cAckStale = p.reg.Counter(metricAckStale)
	p.cReqQueued = p.reg.Counter(metricReqQueued)
	p.cSCFail = p.reg.Counter(metricSCFailures)
	p.mesh = noc.New(eng, cfg.MeshCols, cfg.MeshRows, cfg.RouterLatency, cfg.LinkLatency, p.sink)
	p.l1s = make([]*L1, cfg.Cores)
	p.banks = make([]*Bank, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		p.l1s[i] = newL1(p, i)
		p.banks[i] = newBank(p, i)
	}
	return p
}

// SetInjector installs a fault injector across the memory system: the mesh
// gets link-level faults, the L1s get perturbed spin-watch wakeups.
func (p *Protocol) SetInjector(inj *fault.Injector) {
	p.inj = inj
	p.mesh.SetInjector(inj)
}

// SetTimeline attaches a span timeline to the memory system: the protocol
// records its transactions and their steps, the mesh per-port occupancy.
func (p *Protocol) SetTimeline(tl *trace.Timeline) {
	p.tl = tl
	p.mesh.SetTimeline(tl)
}

// Metrics returns the protocol's metric registry (directory transitions,
// invalidations, forwards, queued requests, stale acks, SC failures).
func (p *Protocol) Metrics() *metrics.Registry { return p.reg }

// Mesh exposes the data network for traffic accounting.
func (p *Protocol) Mesh() *noc.Mesh { return p.mesh }

// Memory exposes the functional store.
func (p *Protocol) Memory() *mem.Store { return p.memv }

// L1 returns tile's L1 controller (the port cores issue accesses through).
func (p *Protocol) L1(tile int) *L1 { return p.l1s[tile] }

// Bank returns tile's home bank, for white-box tests.
func (p *Protocol) Bank(tile int) *Bank { return p.banks[tile] }

// MemAccesses returns the off-chip fetch and writeback counts.
func (p *Protocol) MemAccesses() (fetches, writebacks uint64) {
	return p.memFetches, p.memWritebacks
}

// LineAddr returns the line-aligned address containing addr.
func (p *Protocol) LineAddr(addr uint64) uint64 { return addr & p.lineMask }

// HomeOf returns the tile whose L2 bank is the home of addr: lines are
// interleaved across tiles at line granularity.
func (p *Protocol) HomeOf(addr uint64) int {
	return int((addr >> uint(lineShift(p.cfg.LineSize))) % uint64(p.cfg.Cores))
}

func lineShift(lineSize int) int {
	s := 0
	for 1<<s != lineSize {
		s++
	}
	return s
}

// newMsg returns a recycled message initialized to (t, addr, from) with
// every other field zeroed and xfer at the -1 "plain invalidation"
// sentinel. The composite-literal fallback only runs while the pool warms
// up.
//
//glvet:cyclepath
func (p *Protocol) newMsg(t msgType, addr uint64, from int) *msg {
	m := p.msgFree
	if m == nil {
		//lint:allow allocfree pool warm-up; steady state reuses freed messages
		m = &msg{}
	} else {
		p.msgFree = m.next
		*m = msg{}
	}
	m.t, m.addr, m.from = t, addr, from
	m.xfer = -1
	return m
}

// freeMsg returns a fully-consumed message to the pool. The caller must
// not retain m: the next newMsg hands it out again.
//
//glvet:cyclepath
func (p *Protocol) freeMsg(m *msg) {
	*m = msg{}
	m.next = p.msgFree
	p.msgFree = m
}

// dispatchCB delivers an intra-tile message after the local hop: recv is
// the protocol, obj the message, a the destination tile.
func dispatchCB(recv, obj any, a, _ uint64) { recv.(*Protocol).dispatch(int(a), obj.(*msg)) }

// send routes a protocol message from tile src to tile dst. Intra-tile
// messages bypass the mesh (they cost localHopLatency and no traffic);
// everything else is injected as a NoC packet.
//
//glvet:cyclepath
func (p *Protocol) send(src, dst int, m *msg, flits int) {
	if src == dst {
		p.eng.CallAfter(localHopLatency, dispatchCB, p, m, uint64(dst), 0)
		return
	}
	p.mesh.Send(src, dst, m.t.class(), flits, m)
}

// sink receives packets delivered by the mesh.
func (p *Protocol) sink(dst int, pkt *noc.Packet) {
	m, ok := pkt.Payload.(*msg)
	if !ok {
		panic(fmt.Sprintf("coherence: foreign payload %T delivered to tile %d", pkt.Payload, dst))
	}
	p.dispatch(dst, m)
}

func (p *Protocol) dispatch(dst int, m *msg) {
	if m.t.toHome() {
		p.banks[dst].receive(m)
	} else {
		p.l1s[dst].receive(m)
	}
}

// controlFlits is the size of a permission/ack/request message.
const controlFlits = 1

// atomicReqFlits carries the request header plus the operand word.
const atomicReqFlits = 2

// atomicAckFlits carries the header plus the old value.
const atomicAckFlits = 2

// dataFlits is the size of a message carrying a full cache line.
func (p *Protocol) dataFlits() int { return p.cfg.DataFlits() }

// Stats helpers ------------------------------------------------------------

// Traffic returns the mesh's per-class counters.
func (p *Protocol) Traffic() stats.Traffic { return p.mesh.Traffic() }

// L1Stats returns the hit/miss counters of a tile's L1.
func (p *Protocol) L1Stats(tile int) (hits, misses uint64) {
	c := p.l1s[tile].c
	return c.Hits(), c.Misses()
}

// L2Stats returns the aggregate L2 hit/miss counters.
func (p *Protocol) L2Stats() (hits, misses uint64) {
	for _, b := range p.banks {
		hits += b.l2.Hits()
		misses += b.l2.Misses()
	}
	return hits, misses
}
