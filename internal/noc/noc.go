// Package noc models the CMP's main data interconnect: a 2D-mesh,
// packet-switched network with dimension-order (XY) routing, one-flit-per-
// cycle link bandwidth, and per-hop router/link pipeline delays.
//
// Forwarding is virtual cut-through (wormhole-like): the head flit moves to
// the next router after the hop latency while the tail still drains, so
// end-to-end latency is hops*(router+link+1) + flits, not hops*flits. Each
// output port stays busy for the packet's full length, so bandwidth
// contention and hot-spot queueing emerge naturally — the behaviour that
// makes centralized software barriers collapse in the paper.
//
// The mesh is stepped by activity, not polled: it keeps the set of routers
// holding packets and each one's next-ready cycle, and a tick visits only
// the routers due that cycle, in ascending node order — the order a full
// scan would have done their work in — so its cost follows traffic, not
// mesh size. Within a router, a visit touches only the occupied port
// queues, again in ascending port order.
package noc

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/stats"
	"repro/internal/trace"
)

// spanNocTx is the timeline span of one output-port transmission: the port
// is busy [start, start+flits(+retransmission)); arg carries the flit count.
const spanNocTx = "noc.tx"

// Port indices of a router.
const (
	portLocal = iota
	portNorth
	portSouth
	portEast
	portWest
	numPorts
)

// Packet is one network message.
type Packet struct {
	// ID is unique per mesh, assigned at injection.
	ID uint64
	// Src and Dst are tile indices.
	Src, Dst int
	// Class drives the Figure 7 traffic accounting.
	Class stats.MsgClass
	// Flits is the packet length; links move one flit per cycle.
	Flits int
	// Payload is the protocol-level message carried by this packet.
	Payload any
	// InjectedAt is the cycle Send was called, for latency accounting.
	InjectedAt uint64

	// next links free packets.
	next *Packet
}

type entry struct {
	p       *Packet
	readyAt uint64
}

// entryQueue is a FIFO ring over a power-of-two buffer. Port queues churn
// every cycle; the ring reuses its backing array instead of reallocating
// through the append/reslice pattern.
type entryQueue struct {
	buf  []entry
	head int
	n    int
}

func (q *entryQueue) front() *entry { return &q.buf[q.head] }

func (q *entryQueue) push(e entry) {
	if q.n == len(q.buf) {
		grown := make([]entry, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = e
	q.n++
}

func (q *entryQueue) pop() {
	q.buf[q.head] = entry{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

type router struct {
	in        [numPorts]entryQueue
	out       [numPorts]entryQueue
	busyUntil [numPorts]uint64
	// txFlits counts flit-cycles of occupancy per output port, for the
	// link-utilization report.
	txFlits [numPorts]uint64
	// Bit p of inMask (outMask) is set while in[p] (out[p]) holds a
	// packet; readyAt is the earliest cycle the router may have work,
	// meaningful while either mask is non-zero.
	inMask, outMask uint8
	readyAt         uint64
}

// Metric names registered by the mesh. Per-class latency histograms are
// metricLatencyPrefix + the lowercased message class.
const (
	metricLatencyPrefix = "noc.latency."
	metricQueueDepth    = "noc.queue.depth"
	metricRouterSteps   = "noc.router.steps"
)

// Mesh is the 2D-mesh network. It implements engine.Component.
type Mesh struct {
	cols, rows         int
	routerLat, linkLat uint64
	eng                *engine.Engine
	wake               engine.Waker
	routers            []router
	sink               func(dst int, p *Packet)

	// occupied is a bitset over routers holding packets, scanned in word
	// order so due routers are visited in ascending node order.
	occupied []uint64

	nextID    uint64
	inFlight  int
	traffic   stats.Traffic
	delivered uint64
	latSum    [stats.NumMsgClasses]uint64
	latCount  [stats.NumMsgClasses]uint64

	// pktFree recycles packets created by Send; sinks never retain their
	// packet past the callback, so a delivered packet is immediately
	// reusable.
	pktFree *Packet

	reg         *metrics.Registry
	latHist     [stats.NumMsgClasses]*metrics.Histogram
	queuePeak   *metrics.Gauge
	routerSteps *metrics.Counter

	// inj, when set, injects link-level faults (transient link-down
	// windows, flit corruption forcing a retransmission). Nil in
	// fault-free systems.
	inj *fault.Injector

	// tl, when set, records per-port flit occupancy spans. Nil when
	// tracing is off: the transmission stage pays one branch.
	tl *trace.Timeline
}

// New creates a cols x rows mesh. Delivered packets are handed to sink.
func New(eng *engine.Engine, cols, rows int, routerLat, linkLat uint64, sink func(dst int, p *Packet)) *Mesh {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("noc: invalid mesh %dx%d", cols, rows))
	}
	m := &Mesh{
		cols:      cols,
		rows:      rows,
		routerLat: routerLat,
		linkLat:   linkLat,
		eng:       eng,
		routers:   make([]router, cols*rows),
		occupied:  make([]uint64, (cols*rows+63)/64),
		sink:      sink,
		reg:       metrics.NewRegistry(),
	}
	for c := stats.MsgClass(0); c < stats.NumMsgClasses; c++ {
		m.latHist[c] = m.reg.Histogram(metricLatencyPrefix+strings.ToLower(c.String()), metrics.CycleBuckets())
	}
	m.queuePeak = m.reg.Gauge(metricQueueDepth)
	m.routerSteps = m.reg.Counter(metricRouterSteps)
	m.wake = eng.AddComponent(m)
	return m
}

// Metrics returns the mesh's metric registry (per-class latency histograms,
// router queue depth and router visits).
func (m *Mesh) Metrics() *metrics.Registry { return m.reg }

// SetInjector installs a fault injector on the mesh's links.
func (m *Mesh) SetInjector(inj *fault.Injector) { m.inj = inj }

// SetTimeline attaches a span timeline recording per-router, per-port
// transmission occupancy.
func (m *Mesh) SetTimeline(tl *trace.Timeline) { m.tl = tl }

// Nodes returns the number of tiles.
func (m *Mesh) Nodes() int { return m.cols * m.rows }

// Send queues a packet from src to dst at src's local input port. The mesh
// assigns its ID (counting up from 0 in send order) and InjectedAt. Packets
// come from the mesh's free list and are recycled after the sink returns,
// so steady state allocates nothing and sinks must not retain the packet.
//
//glvet:cyclepath
func (m *Mesh) Send(src, dst int, class stats.MsgClass, flits int, payload any) {
	if src < 0 || src >= len(m.routers) || dst < 0 || dst >= len(m.routers) {
		panic(fmt.Sprintf("noc: packet endpoints out of range: src=%d dst=%d nodes=%d", src, dst, len(m.routers)))
	}
	if flits <= 0 {
		panic(fmt.Sprintf("noc: packet with %d flits", flits))
	}
	p := m.pktFree
	if p != nil {
		m.pktFree = p.next
	} else {
		//lint:allow allocfree pool warm-up; steady state reuses delivered packets
		p = &Packet{}
	}
	*p = Packet{ID: m.nextID, Src: src, Dst: dst, Class: class, Flits: flits, Payload: payload, InjectedAt: m.eng.Now()}
	m.nextID++
	m.traffic.Add(class, flits)
	m.inFlight++
	m.enqueue(src, portLocal, p)
}

// Traffic returns the accumulated per-class message/flit counters.
func (m *Mesh) Traffic() stats.Traffic { return m.traffic }

// Delivered returns the number of packets handed to the sink so far.
func (m *Mesh) Delivered() uint64 { return m.delivered }

// InFlight returns the number of injected but not yet delivered packets.
func (m *Mesh) InFlight() int { return m.inFlight }

// AvgLatency returns the mean inject-to-sink latency in cycles for the
// given class, or 0 if none delivered.
func (m *Mesh) AvgLatency(c stats.MsgClass) float64 {
	if m.latCount[c] == 0 {
		return 0
	}
	return float64(m.latSum[c]) / float64(m.latCount[c])
}

// LinkUtilization returns total flit-cycles transmitted per tile per port,
// indexed [tile][port]; ports follow Local,N,S,E,W order.
func (m *Mesh) LinkUtilization() [][5]uint64 {
	u := make([][5]uint64, len(m.routers))
	for i := range m.routers {
		u[i] = m.routers[i].txFlits
	}
	return u
}

// route returns the output port for a packet at tile node heading to dst,
// using XY (column-first) dimension-order routing.
func (m *Mesh) route(node, dst int) int {
	nc, nr := node%m.cols, node/m.cols
	dc, dr := dst%m.cols, dst/m.cols
	switch {
	case dc > nc:
		return portEast
	case dc < nc:
		return portWest
	case dr > nr:
		return portSouth
	case dr < nr:
		return portNorth
	default:
		return portLocal
	}
}

// neighbor returns the tile index adjacent to node through port, and the
// input port on which the packet arrives there.
func (m *Mesh) neighbor(node, port int) (next, inPort int) {
	switch port {
	case portNorth:
		return node - m.cols, portSouth
	case portSouth:
		return node + m.cols, portNorth
	case portEast:
		return node + 1, portWest
	case portWest:
		return node - 1, portEast
	}
	panic("noc: neighbor of local port")
}

// deliverCB ejects a fully-drained packet into its node: recv is the mesh,
// obj the packet, a the node index.
func deliverCB(recv, obj any, a, _ uint64) { recv.(*Mesh).deliver(int(a), obj.(*Packet)) }

// arriveCB lands a packet's head flit on a neighbor router's input port
// after a link traversal: recv is the mesh, obj the packet, a the tile, b
// the input port.
func arriveCB(recv, obj any, a, b uint64) { recv.(*Mesh).enqueue(int(a), int(b), obj.(*Packet)) }

// Busy reports whether any packet is injected and not yet delivered.
func (m *Mesh) Busy() bool { return m.inFlight > 0 }

// Tick advances the mesh one cycle: every router due this cycle runs a
// routing stage moving at most one packet per input port into an output
// queue, then a transmission stage starting at most one packet per free
// output port. It returns the earliest next-ready cycle of any router
// holding packets, or engine.Never.
//
//glvet:cyclepath
func (m *Mesh) Tick(cycle uint64) uint64 {
	next := engine.Never
	for w, word := range m.occupied {
		for word != 0 {
			node := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			r := &m.routers[node]
			if r.readyAt <= cycle {
				m.routerSteps.Inc()
				m.step(node, r, cycle)
				if r.inMask|r.outMask == 0 {
					m.occupied[w] &^= 1 << (node & 63)
					continue
				}
			}
			if r.readyAt < next {
				next = r.readyAt
			}
		}
	}
	return next
}

// step runs one router's cycle and recomputes its next-ready cycle. Each
// stage visits the occupied queues only, in ascending port order.
//
//glvet:cyclepath
func (m *Mesh) step(node int, r *router, cycle uint64) {
	for set := r.inMask; set != 0; set &= set - 1 {
		port := bits.TrailingZeros8(set)
		q := &r.in[port]
		if q.front().readyAt > cycle {
			continue
		}
		p := q.front().p
		q.pop()
		if q.n == 0 {
			r.inMask &^= 1 << port
		}
		outPort := m.route(node, p.Dst)
		r.out[outPort].push(entry{p: p, readyAt: cycle + m.routerLat})
		r.outMask |= 1 << outPort
		m.queuePeak.Set(uint64(r.out[outPort].n))
	}
	for set := r.outMask; set != 0; set &= set - 1 {
		port := bits.TrailingZeros8(set)
		q := &r.out[port]
		if q.front().readyAt > cycle || r.busyUntil[port] > cycle {
			continue
		}
		if port != portLocal && m.inj.LinkDown(cycle, node, port) {
			// Transient outage: the port cannot start a transmission
			// this cycle; the packet retries on the next one.
			continue
		}
		e := *q.front()
		q.pop()
		if q.n == 0 {
			r.outMask &^= 1 << port
		}
		flits := uint64(e.p.Flits)
		if port == portLocal {
			r.busyUntil[port] = cycle + flits
			r.txFlits[port] += flits
			m.tl.Span(trace.RouterTrack(node, port), spanNocTx, cycle, cycle+flits, 0, flits)
			// Ejection: the packet fully drains into the node.
			m.eng.Call(cycle+flits, deliverCB, m, e.p, uint64(node), 0)
			continue
		}
		// Corruption caught by the link-level CRC costs one full
		// retransmission of the packet on this link.
		var extra uint64
		if m.inj.Corrupt(cycle, node, port) {
			extra = flits
		}
		r.busyUntil[port] = cycle + flits + extra
		r.txFlits[port] += flits + extra
		m.tl.Span(trace.RouterTrack(node, port), spanNocTx, cycle, cycle+flits+extra, 0, flits)
		next, inPort := m.neighbor(node, port)
		// Cut-through: the head flit reaches the neighbor after one
		// flit time plus the wire delay; the tail follows while the
		// downstream router already routes the head.
		m.eng.Call(cycle+1+m.linkLat+extra, arriveCB, m, e.p, uint64(next), uint64(inPort))
	}
	// The router is next ready when an input head may be routed or an
	// output head may start: the earlier of the input heads' readyAt and
	// the output heads' max(readyAt, busyUntil). A head already ready —
	// a second packet behind one moved this cycle, or a port held by a
	// link-down — retries on the next cycle.
	ready := engine.Never
	for set := r.inMask; set != 0; set &= set - 1 {
		if at := r.in[bits.TrailingZeros8(set)].front().readyAt; at < ready {
			ready = at
		}
	}
	for set := r.outMask; set != 0; set &= set - 1 {
		port := bits.TrailingZeros8(set)
		if at := max(r.out[port].front().readyAt, r.busyUntil[port]); at < ready {
			ready = at
		}
	}
	r.readyAt = max(ready, cycle+1)
}

// enqueue queues p on node's input port, ready this cycle — an injection
// or a link arrival — and wakes the mesh so the router is visited on it.
//
//glvet:cyclepath
func (m *Mesh) enqueue(node, inPort int, p *Packet) {
	now := m.eng.Now()
	r := &m.routers[node]
	r.in[inPort].push(entry{p: p, readyAt: now})
	m.queuePeak.Set(uint64(r.in[inPort].n))
	if r.inMask|r.outMask == 0 || now < r.readyAt {
		r.readyAt = now
	}
	r.inMask |= 1 << inPort
	m.occupied[node>>6] |= 1 << (node & 63)
	m.wake.Wake()
}

//glvet:cyclepath
func (m *Mesh) deliver(node int, p *Packet) {
	m.inFlight--
	m.delivered++
	lat := m.eng.Now() - p.InjectedAt
	m.latSum[p.Class] += lat
	m.latCount[p.Class]++
	m.latHist[p.Class].Observe(lat)
	m.sink(node, p)
	*p = Packet{}
	p.next = m.pktFree
	m.pktFree = p
}

// Stats is a serializable summary of the mesh's link-level activity: the
// grid shape, per-tile per-port flit-cycle counts (ports in Local,N,S,E,W
// order) and the peak router queue depth observed during the run.
type Stats struct {
	Cols      int                `json:"cols"`
	Rows      int                `json:"rows"`
	LinkFlits [][numPorts]uint64 `json:"link_flits"`
	PeakQueue uint64             `json:"peak_queue"`
}

// Stats captures the mesh's current link-utilization summary.
func (m *Mesh) Stats() Stats {
	return Stats{
		Cols:      m.cols,
		Rows:      m.rows,
		LinkFlits: m.LinkUtilization(),
		PeakQueue: m.queuePeak.Peak(),
	}
}

// Heatmap renders per-tile link utilization (total flit-cycles transmitted
// by each router) as an ASCII grid — hot-spot patterns like a contended
// barrier counter's home bank become immediately visible.
func (m *Mesh) Heatmap() string {
	totals := make([]uint64, len(m.routers))
	var max uint64
	for i := range m.routers {
		var t uint64
		for _, f := range m.routers[i].txFlits {
			t += f
		}
		totals[i] = t
		if t > max {
			max = t
		}
	}
	shades := []byte(" .:-=+*#%@")
	var b []byte
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			t := totals[r*m.cols+c]
			idx := 0
			if max > 0 {
				idx = int(t * uint64(len(shades)-1) / max)
			}
			b = append(b, '[', shades[idx], ']')
		}
		b = append(b, '\n')
	}
	b = append(b, fmt.Sprintf("scale: ' '=0 .. '@'=%d flit-cycles\n", max)...)
	return string(b)
}
