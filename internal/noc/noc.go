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
// The mesh is stepped by activity, not polled. A link hop is not an event:
// when an output port starts a transmission, the packet is routed at the
// downstream router and placed straight into the output queue it will
// leave by there, in the order the routing stage would have queued it on
// its arrival cycle (DESIGN.md §10). A due calendar files each router
// holding packets under its next-ready cycle, and a tick visits only the
// routers due, in ascending node order — the order a full scan would have
// done their work in — so its cost follows traffic, not mesh size. Within
// a router, a visit touches only the occupied output queues, again in
// ascending port order.
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

// calendarSpan is the due calendar's window in cycles: a router is filed
// under its ready cycle when that lies within calendarSpan-1 cycles of
// now, else at the window's edge, where the tick that visits it files it
// again. Ready cycles lie a few cycles ahead (router and link latency,
// packet length).
const calendarSpan = 64

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

// entry is one queued packet. In an output queue key is routeAt<<3 |
// inPort — the cycle the packet is routed at this router and the port it
// came in by (portLocal for an injection) — which is the queue's FIFO
// order, and the packet may leave routerLat cycles after routeAt. ahead
// counts the packets in front of it at its routing push, for the
// queue-depth gauge: final once routeAt has passed. In the injection
// queue key is the cycle the packet was sent.
type entry struct {
	p     *Packet
	key   uint64
	ahead uint64
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

// at returns the i-th queued entry, counting from the front.
func (q *entryQueue) at(i int) *entry { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

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

// insert queues e in key order, scanning back from the tail, and reports
// whether e is now the front. e starts with the packets in front of it
// ahead, and each packet it passes gains one.
func (q *entryQueue) insert(e entry) bool {
	q.push(e)
	i := q.n - 1
	for ; i > 0 && q.at(i-1).key > e.key; i-- {
		*q.at(i) = *q.at(i - 1)
		q.at(i).ahead++
	}
	e.ahead = uint64(i)
	*q.at(i) = e
	return i == 0
}

func (q *entryQueue) pop() {
	q.buf[q.head] = entry{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

type router struct {
	// local is the injection queue; out[p] holds the packets that leave by
	// port p, including those a link transmission placed there before
	// their head flit arrived.
	local     entryQueue
	out       [numPorts]entryQueue
	busyUntil [numPorts]uint64
	// txFlits counts flit-cycles of occupancy per output port, for the
	// link-utilization report.
	txFlits [numPorts]uint64
	// Bit p of outMask is set while out[p] holds a packet. readyAt is the
	// earliest cycle the router may have work, meaningful while it holds a
	// packet, and filed the cycle whose calendar bucket it was last put in.
	outMask        uint8
	readyAt, filed uint64
}

// tile is a router's position in the grid.
type tile struct{ col, row int32 }

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
	tiles              []tile
	sink               func(dst int, p *Packet)

	// The due calendar: bucket b, due[b*words:(b+1)*words], is a bitset
	// over the routers filed under the one cycle of the window that maps
	// to b, and bit b of dueMask is set while it is non-empty. A tick ORs
	// the buckets of every cycle since the last tick into visit. tickEnd
	// is one past the cycle last ticked: nothing is filed before it.
	due     []uint64
	visit   []uint64
	words   int
	dueMask uint64
	tickEnd uint64

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
	// lastWhen and lastDepth are the latest queue-depth observation in
	// the order of when; settle makes lastDepth the gauge's value. stride
	// is the number of when slots per cycle.
	lastWhen, lastDepth, stride uint64

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
	nodes := cols * rows
	words := (nodes + 63) / 64
	m := &Mesh{
		cols:      cols,
		rows:      rows,
		routerLat: routerLat,
		linkLat:   linkLat,
		eng:       eng,
		routers:   make([]router, nodes),
		tiles:     make([]tile, nodes),
		due:       make([]uint64, calendarSpan*words),
		visit:     make([]uint64, words),
		words:     words,
		stride:    uint64(nodes*numPorts + 2),
		sink:      sink,
		reg:       metrics.NewRegistry(),
	}
	for n := range m.tiles {
		m.tiles[n] = tile{col: int32(n % cols), row: int32(n / cols)}
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
// router queue depth and router visits), with the queue-depth gauge
// settled up to the current cycle.
func (m *Mesh) Metrics() *metrics.Registry {
	m.settle()
	return m.reg
}

// SetInjector installs a fault injector on the mesh's links.
func (m *Mesh) SetInjector(inj *fault.Injector) { m.inj = inj }

// SetTimeline attaches a span timeline recording per-router, per-port
// transmission occupancy.
func (m *Mesh) SetTimeline(tl *trace.Timeline) { m.tl = tl }

// Nodes returns the number of tiles.
func (m *Mesh) Nodes() int { return m.cols * m.rows }

// Send queues a packet from src to dst at src's local injection queue. The
// mesh assigns its ID (counting up from 0 in send order) and InjectedAt.
// Packets come from the mesh's free list and are recycled after the sink
// returns, so steady state allocates nothing and sinks must not retain the
// packet.
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
	now := m.eng.Now()
	*p = Packet{ID: m.nextID, Src: src, Dst: dst, Class: class, Flits: flits, Payload: payload, InjectedAt: now}
	m.nextID++
	m.traffic.Add(class, flits)
	m.inFlight++
	r := &m.routers[src]
	r.local.push(entry{p: p, key: now})
	// The observation is ordered after the mesh's turn this cycle; if the
	// mesh's tick for this cycle is still to come, Tick moves it before.
	m.observe((now+1)*m.stride-1, uint64(r.local.n))
	switch {
	case r.outMask == 0 && r.local.n == 1:
		r.readyAt = now
		m.file(src, r, now)
	case now < r.readyAt:
		r.readyAt = now
		m.refile(src, r, now)
	}
	m.wake.Wake()
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
	n, d := m.tiles[node], m.tiles[dst]
	switch {
	case d.col > n.col:
		return portEast
	case d.col < n.col:
		return portWest
	case d.row > n.row:
		return portSouth
	case d.row < n.row:
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

// Busy reports whether any packet is injected and not yet delivered.
func (m *Mesh) Busy() bool { return m.inFlight > 0 }

// Tick advances the mesh one cycle: every router due this cycle routes its
// injection queue's head into an output queue, then starts at most one
// packet per free output port. It returns the earliest cycle filed in the
// calendar, or engine.Never.
//
// The buckets of every cycle since the last tick are read, not only this
// cycle's: a packet sent by a component ticked after the mesh, on a cycle
// the mesh was not ticked, files its router under that cycle, and the
// routing stage handles it on the next.
//
//glvet:cyclepath
func (m *Mesh) Tick(cycle uint64) uint64 {
	// The latest injection, made this cycle, came before this tick.
	if m.lastWhen == (cycle+1)*m.stride-1 {
		m.lastWhen = cycle * m.stride
	}
	sel := m.dueMask
	if span := cycle + 1 - m.tickEnd; span < calendarSpan {
		sel &= bits.RotateLeft64(1<<span-1, int(m.tickEnd&(calendarSpan-1)))
	}
	m.dueMask &^= sel
	m.tickEnd = cycle + 1
	for ; sel != 0; sel &= sel - 1 {
		bucket := m.due[bits.TrailingZeros64(sel)*m.words:][:m.words]
		for w, word := range bucket {
			m.visit[w] |= word
			bucket[w] = 0
		}
	}
	for w, word := range m.visit {
		m.visit[w] = 0
		for ; word != 0; word &= word - 1 {
			node := w<<6 | bits.TrailingZeros64(word)
			r := &m.routers[node]
			if r.readyAt > cycle {
				// Filed at the window's edge before its ready cycle.
				m.refile(node, r, cycle)
				continue
			}
			m.routerSteps.Inc()
			m.step(node, r, cycle)
			if r.outMask != 0 || r.local.n != 0 {
				m.file(node, r, cycle)
			}
		}
	}
	if m.dueMask == 0 {
		return engine.Never
	}
	next := cycle + 1
	return next + uint64(bits.TrailingZeros64(bits.RotateLeft64(m.dueMask, -int(next&(calendarSpan-1)))))
}

// step runs one router's cycle and recomputes its next-ready cycle. Each
// stage visits the occupied queues only, in ascending port order.
//
//glvet:cyclepath
func (m *Mesh) step(node int, r *router, cycle uint64) {
	// Routing stage: the injection queue's head. Link arrivals need none;
	// place routed them when they were sent.
	if r.local.n > 0 && r.local.front().key <= cycle {
		p := r.local.front().p
		r.local.pop()
		port := m.route(node, p.Dst)
		r.out[port].insert(entry{p: p, key: cycle<<3 | portLocal})
		r.outMask |= 1 << port
	}
	// The router is next ready when the injection head may be routed or
	// an output head may start, whichever is earlier. A head already
	// ready — a second injection behind one routed this cycle, or a port
	// held by a link-down — retries on the next cycle.
	ready := engine.Never
	if r.local.n > 0 {
		ready = r.local.front().key
	}
	for set := r.outMask; set != 0; set &= set - 1 {
		port := bits.TrailingZeros8(set)
		q := &r.out[port]
		if at := m.headStart(r, port); at > cycle {
			ready = min(ready, at)
			continue
		}
		if port != portLocal && m.inj.LinkDown(cycle, node, port) {
			// Transient outage: the port cannot start a transmission
			// this cycle; the packet retries on the next one.
			ready = min(ready, cycle)
			continue
		}
		e := *q.front()
		q.pop()
		// A packet placed here but not yet routed will not find e.
		for i := q.n - 1; i >= 0 && q.at(i).key>>3 > cycle; i-- {
			q.at(i).ahead--
		}
		m.observe(m.when(e.key, node), 1+e.ahead)
		// Corruption caught by the link-level CRC costs one full
		// retransmission of the packet on this link.
		flits := uint64(e.p.Flits)
		var extra uint64
		if port != portLocal && m.inj.Corrupt(cycle, node, port) {
			extra = flits
		}
		r.busyUntil[port] = cycle + flits + extra
		r.txFlits[port] += flits + extra
		m.tl.Span(trace.RouterTrack(node, port), spanNocTx, cycle, cycle+flits+extra, 0, flits)
		if q.n == 0 {
			r.outMask &^= 1 << port
		} else {
			ready = min(ready, m.headStart(r, port))
		}
		if port == portLocal {
			// Ejection: the packet fully drains into the node.
			m.eng.Call(cycle+flits, deliverCB, m, e.p, uint64(node), 0)
			continue
		}
		next, inPort := m.neighbor(node, port)
		// Cut-through: the head flit reaches the neighbor, which routes
		// it on arrival, after one flit time plus the wire delay; the
		// tail follows while the downstream router already routes the
		// head.
		m.place(next, inPort, e.p, cycle+1+m.linkLat+extra, cycle)
	}
	r.readyAt = max(ready, cycle+1)
}

// headStart returns the cycle the head of r.out[port] may start: once it
// is ready and the port is free.
func (m *Mesh) headStart(r *router, port int) uint64 {
	return max(r.out[port].front().key>>3+m.routerLat, r.busyUntil[port])
}

// place hands node a packet whose head flit arrives on inPort and is
// routed at cycle at, during the transmission that starts at cycle now.
// Three facts make placing it at once exact (DESIGN.md §10):
//
//  1. Arrivals on one input port come at strictly increasing cycles, as
//     the upstream port stays busy at least one cycle per packet, and the
//     routing stage routed each one on its arrival cycle. So its routing
//     cycle is at, known now.
//  2. The routing stage queued at most one packet per input port per
//     cycle, in ascending port order, so an output queue's FIFO order is
//     (routeAt, inPort): insert keeps it.
//  3. The packet cannot leave before now+1, so departures within one tick
//     never depend on each other, and placing it changes neither their
//     cycles nor the order of the deliveries they schedule.
//
//glvet:cyclepath
func (m *Mesh) place(node, inPort int, p *Packet, at, now uint64) {
	r := &m.routers[node]
	idle := r.outMask == 0 && r.local.n == 0
	port := m.route(node, p.Dst)
	r.outMask |= 1 << port
	if !r.out[port].insert(entry{p: p, key: at<<3 | uint64(inPort)}) {
		return
	}
	switch ready := m.headStart(r, port); {
	case idle:
		r.readyAt = ready
		m.file(node, r, now)
	case ready < r.readyAt:
		r.readyAt = ready
		m.refile(node, r, now)
	}
}

// file puts router node, not filed yet, in the calendar bucket of its
// ready cycle: no earlier than the next tick, and no later than the
// window's edge, where the tick that visits it files it again.
//
//glvet:cyclepath
func (m *Mesh) file(node int, r *router, now uint64) {
	r.filed = min(max(r.readyAt, m.tickEnd), now+calendarSpan-1)
	b := r.filed & (calendarSpan - 1)
	m.due[int(b)*m.words+node>>6] |= 1 << (node & 63)
	m.dueMask |= 1 << b
}

// refile moves router node to the bucket of its ready cycle, taking it
// out of the one it was last filed in if it is still there: a router is
// filed under one cycle at a time.
//
//glvet:cyclepath
func (m *Mesh) refile(node int, r *router, now uint64) {
	b := r.filed & (calendarSpan - 1)
	bucket := m.due[int(b)*m.words:][:m.words]
	bucket[node>>6] &^= 1 << (node & 63)
	empty := true
	for _, word := range bucket {
		empty = empty && word == 0
	}
	if empty {
		m.dueMask &^= 1 << b
	}
	m.file(node, r, now)
}

// when orders queue-depth observations as the reference stepping made
// them: by cycle, then, within the mesh's tick, by node and input port.
// Slot 0 of a cycle precedes the tick and slot stride-1 follows it.
func (m *Mesh) when(key uint64, node int) uint64 {
	return (key>>3)*m.stride + 1 + uint64(node*numPorts) + key&7
}

// observe records a queue-depth observation: a packet queued behind
// depth-1 others, at when. The gauge keeps the peak as it comes; settle
// sets its value to the latest observation.
//
//glvet:cyclepath
func (m *Mesh) observe(when, depth uint64) {
	m.queuePeak.Set(depth)
	if when >= m.lastWhen {
		m.lastWhen, m.lastDepth = when, depth
	}
}

// settle completes noc.queue.depth up to the current cycle: it observes
// the packets routed before it that are still queued, and sets the
// gauge's value to the latest observation. Reading it twice observes the
// same values.
func (m *Mesh) settle() {
	now := m.eng.Now()
	for node := range m.routers {
		r := &m.routers[node]
		for set := r.outMask; set != 0; set &= set - 1 {
			q := &r.out[bits.TrailingZeros8(set)]
			for i := 0; i < q.n && q.at(i).key>>3 < now; i++ {
				m.observe(m.when(q.at(i).key, node), 1+q.at(i).ahead)
			}
		}
	}
	m.queuePeak.Set(m.lastDepth)
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
	m.settle()
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
