package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// refMesh is a frozen, test-only copy of the mesh as it stepped before
// link hops were placed at transmission: every link traversal is an
// arrival event that lands the packet on the neighbour's input queue, a
// routing stage then moves each input head into an output queue, and a
// bitset of occupied routers is scanned on every tick. It is the
// reference TestWakePathMatchesFullScan checks the mesh against, and it
// shares no stepping code with the mesh, so a change to the mesh cannot
// change it. Tracing, traffic and latency accounting are left out; the
// queue-depth gauge and the router-visit count are kept.
type refMesh struct {
	cols, rows         int
	routerLat, linkLat uint64
	eng                *engine.Engine
	wake               engine.Waker
	routers            []refRouter
	occupied           []uint64
	sink               func(dst int, p *Packet)
	nextID             uint64
	inFlight           int
	depth              metrics.Gauge
	steps              uint64
	inj                *fault.Injector
}

type refEntry struct {
	p       *Packet
	readyAt uint64
}

// refQueue is a plain FIFO; the reference need not be fast.
type refQueue []refEntry

type refRouter struct {
	in, out         [numPorts]refQueue
	busyUntil       [numPorts]uint64
	txFlits         [numPorts]uint64
	inMask, outMask uint8
	readyAt         uint64
}

func newRefMesh(eng *engine.Engine, cols, rows int, routerLat, linkLat uint64, sink func(dst int, p *Packet)) *refMesh {
	m := &refMesh{
		cols: cols, rows: rows, routerLat: routerLat, linkLat: linkLat, eng: eng,
		routers:  make([]refRouter, cols*rows),
		occupied: make([]uint64, (cols*rows+63)/64),
		sink:     sink,
	}
	m.wake = eng.AddComponent(m)
	return m
}

func (m *refMesh) SetInjector(inj *fault.Injector) { m.inj = inj }

func (m *refMesh) Send(src, dst int, class stats.MsgClass, flits int, payload any) {
	if src < 0 || src >= len(m.routers) || dst < 0 || dst >= len(m.routers) || flits <= 0 {
		panic(fmt.Sprintf("ref: bad packet src=%d dst=%d flits=%d", src, dst, flits))
	}
	p := &Packet{ID: m.nextID, Src: src, Dst: dst, Class: class, Flits: flits, Payload: payload, InjectedAt: m.eng.Now()}
	m.nextID++
	m.inFlight++
	m.enqueue(src, portLocal, p)
}

func (m *refMesh) LinkUtilization() [][5]uint64 {
	u := make([][5]uint64, len(m.routers))
	for i := range m.routers {
		u[i] = m.routers[i].txFlits
	}
	return u
}

func (m *refMesh) route(node, dst int) int {
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

func (m *refMesh) neighbor(node, port int) (next, inPort int) {
	switch port {
	case portNorth:
		return node - m.cols, portSouth
	case portSouth:
		return node + m.cols, portNorth
	case portEast:
		return node + 1, portWest
	default:
		return node - 1, portEast
	}
}

func refDeliverCB(recv, obj any, a, _ uint64) { recv.(*refMesh).deliver(int(a), obj.(*Packet)) }

func refArriveCB(recv, obj any, a, b uint64) {
	recv.(*refMesh).enqueue(int(a), int(b), obj.(*Packet))
}

func (m *refMesh) Busy() bool { return m.inFlight > 0 }

func (m *refMesh) Tick(cycle uint64) uint64 {
	next := engine.Never
	for w, word := range m.occupied {
		for word != 0 {
			node := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			r := &m.routers[node]
			if r.readyAt <= cycle {
				m.steps++
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

func (m *refMesh) step(node int, r *refRouter, cycle uint64) {
	for set := r.inMask; set != 0; set &= set - 1 {
		port := bits.TrailingZeros8(set)
		if r.in[port][0].readyAt > cycle {
			continue
		}
		p := r.in[port][0].p
		r.in[port] = r.in[port][1:]
		if len(r.in[port]) == 0 {
			r.inMask &^= 1 << port
		}
		outPort := m.route(node, p.Dst)
		r.out[outPort] = append(r.out[outPort], refEntry{p: p, readyAt: cycle + m.routerLat})
		r.outMask |= 1 << outPort
		m.depth.Set(uint64(len(r.out[outPort])))
	}
	for set := r.outMask; set != 0; set &= set - 1 {
		port := bits.TrailingZeros8(set)
		e := r.out[port][0]
		if e.readyAt > cycle || r.busyUntil[port] > cycle {
			continue
		}
		if port != portLocal && m.inj.LinkDown(cycle, node, port) {
			continue
		}
		r.out[port] = r.out[port][1:]
		if len(r.out[port]) == 0 {
			r.outMask &^= 1 << port
		}
		flits := uint64(e.p.Flits)
		if port == portLocal {
			r.busyUntil[port] = cycle + flits
			r.txFlits[port] += flits
			m.eng.Call(cycle+flits, refDeliverCB, m, e.p, uint64(node), 0)
			continue
		}
		var extra uint64
		if m.inj.Corrupt(cycle, node, port) {
			extra = flits
		}
		r.busyUntil[port] = cycle + flits + extra
		r.txFlits[port] += flits + extra
		next, inPort := m.neighbor(node, port)
		m.eng.Call(cycle+1+m.linkLat+extra, refArriveCB, m, e.p, uint64(next), uint64(inPort))
	}
	ready := engine.Never
	for set := r.inMask; set != 0; set &= set - 1 {
		ready = min(ready, r.in[bits.TrailingZeros8(set)][0].readyAt)
	}
	for set := r.outMask; set != 0; set &= set - 1 {
		port := bits.TrailingZeros8(set)
		ready = min(ready, max(r.out[port][0].readyAt, r.busyUntil[port]))
	}
	r.readyAt = max(ready, cycle+1)
}

func (m *refMesh) enqueue(node, inPort int, p *Packet) {
	now := m.eng.Now()
	r := &m.routers[node]
	r.in[inPort] = append(r.in[inPort], refEntry{p: p, readyAt: now})
	m.depth.Set(uint64(len(r.in[inPort])))
	if r.inMask|r.outMask == 0 || now < r.readyAt {
		r.readyAt = now
	}
	r.inMask |= 1 << inPort
	m.occupied[node>>6] |= 1 << (node & 63)
	m.wake.Wake()
}

func (m *refMesh) deliver(node int, p *Packet) {
	m.inFlight--
	m.sink(node, p)
}
