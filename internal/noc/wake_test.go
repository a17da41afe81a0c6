package noc

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// scanStepper is the reference the wake path is checked against: the
// mesh's former every-cycle stepping, which scans every port of every
// router whenever any packet is in flight. It takes over its mesh's
// wakes, so the engine never ticks the mesh's own wake path.
type scanStepper struct{ m *Mesh }

func (s scanStepper) Busy() bool { return s.m.inFlight > 0 }

func (s scanStepper) Tick(cycle uint64) uint64 {
	m := s.m
	if m.inFlight == 0 {
		return engine.Never
	}
	for node := range m.routers {
		r := &m.routers[node]
		for port := 0; port < numPorts; port++ {
			q := &r.in[port]
			if q.n == 0 || q.front().readyAt > cycle {
				continue
			}
			e := *q.front()
			q.pop()
			outPort := m.route(node, e.p.Dst)
			r.out[outPort].push(entry{p: e.p, readyAt: cycle + m.routerLat})
			m.queuePeak.Set(uint64(r.out[outPort].n))
		}
		for port := 0; port < numPorts; port++ {
			q := &r.out[port]
			if q.n == 0 || q.front().readyAt > cycle || r.busyUntil[port] > cycle {
				continue
			}
			if port != portLocal && m.inj.LinkDown(cycle, node, port) {
				continue
			}
			e := *q.front()
			q.pop()
			flits := uint64(e.p.Flits)
			if port == portLocal {
				r.busyUntil[port] = cycle + flits
				r.txFlits[port] += flits
				m.eng.Call(cycle+flits, deliverCB, m, e.p, uint64(node), 0)
				continue
			}
			var extra uint64
			if m.inj.Corrupt(cycle, node, port) {
				extra = flits
			}
			r.busyUntil[port] = cycle + flits + extra
			r.txFlits[port] += flits + extra
			next, inPort := m.neighbor(node, port)
			m.eng.Call(cycle+1+m.linkLat+extra, arriveCB, m, e.p, uint64(next), uint64(inPort))
		}
	}
	return cycle + 1
}

// diffRun is one mesh run under seeded random traffic: every packet's
// delivery cycle by ID, the per-port flit counts, the injected-fault
// counters and the run's end cycle.
type diffRun struct {
	delivered map[uint64]uint64
	links     [][numPorts]uint64
	faults    map[string]uint64
	end       uint64
	steps     uint64 // router visits (wake path) or router scans (reference)
}

// runTraffic injects n random packets at random cycles into a cols x rows
// mesh and runs it to completion, through the wake path or the reference.
func runTraffic(t *testing.T, cols, rows int, plan string, seed int64, reference bool) diffRun {
	t.Helper()
	eng := engine.New()
	out := diffRun{delivered: map[uint64]uint64{}}
	m := New(eng, cols, rows, 1, 1, func(dst int, p *Packet) {
		if p.Dst != dst {
			t.Errorf("packet %d for %d delivered at %d", p.ID, p.Dst, dst)
		}
		out.delivered[p.ID] = eng.Now()
	})
	reg := metrics.NewRegistry()
	if plan != "" {
		p, err := fault.ParsePlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		inj := fault.NewInjector(p)
		inj.Bind(reg)
		m.SetInjector(inj)
	}
	if reference {
		m.wake = eng.AddComponent(scanStepper{m})
	}
	r := rand.New(rand.NewSource(seed))
	nodes := cols * rows
	const packets = 400
	for i := 0; i < packets; i++ {
		at := uint64(r.Intn(3000))
		src, dst := r.Intn(nodes), r.Intn(nodes)
		class := stats.MsgClass(r.Intn(int(stats.NumMsgClasses)))
		flits := 1 + r.Intn(8)
		eng.At(at, func() { m.Send(src, dst, class, flits, nil) })
	}
	end, err := eng.Run(1_000_000, func() bool { return len(out.delivered) == packets })
	if err != nil {
		t.Fatal(err)
	}
	out.end = end
	out.links = m.LinkUtilization()
	out.faults = reg.Snapshot().Counters
	if reference {
		out.steps = uint64(nodes) * (end - eng.Metrics().Snapshot().Counters["engine.fastforward.cycles"])
	} else {
		out.steps = m.Metrics().Snapshot().Counters[metricRouterSteps]
	}
	return out
}

// TestWakePathMatchesFullScan is the mesh's differential test: seeded
// random traffic on meshes from 2x2 to 8x8, with and without link-down
// and corruption faults, must deliver every packet on the same cycle,
// move the same flits over every port and inject the same faults as the
// reference full-scan stepper — while visiting fewer routers.
func TestWakePathMatchesFullScan(t *testing.T) {
	plans := []string{"", "seed=3,noc.linkdown=0.05", "seed=5,noc.corrupt=0.05,noc.linkdown=0.02"}
	for _, dims := range [][2]int{{2, 2}, {4, 4}, {8, 4}, {8, 8}} {
		for _, plan := range plans {
			name := fmt.Sprintf("%dx%d/%q", dims[0], dims[1], plan)
			t.Run(name, func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					want := runTraffic(t, dims[0], dims[1], plan, seed, true)
					got := runTraffic(t, dims[0], dims[1], plan, seed, false)
					if got.end != want.end {
						t.Errorf("seed %d: run ended at %d, reference %d", seed, got.end, want.end)
					}
					for id, c := range want.delivered {
						if got.delivered[id] != c {
							t.Errorf("seed %d: packet %d delivered at %d, reference %d", seed, id, got.delivered[id], c)
						}
					}
					for node := range want.links {
						if got.links[node] != want.links[node] {
							t.Errorf("seed %d: router %d txFlits %v, reference %v", seed, node, got.links[node], want.links[node])
						}
					}
					for k, v := range want.faults {
						if got.faults[k] != v {
							t.Errorf("seed %d: %s = %d, reference %d", seed, k, got.faults[k], v)
						}
					}
					if plan != "" && want.faults[fault.MetricInjected] == 0 {
						t.Errorf("seed %d: plan %q injected nothing; the check is vacuous", seed, plan)
					}
					if got.steps >= want.steps {
						t.Errorf("seed %d: wake path visited %d routers, full scan %d", seed, got.steps, want.steps)
					}
				}
			})
		}
	}
}

// BenchmarkMeshHop measures the mesh's host cost per flit hop on
// corner-to-corner request/reply traffic (the TestZeroAllocFlitStep
// set-up), on a small and a large mesh: with activity-driven stepping the
// two should cost the same per hop.
func BenchmarkMeshHop(b *testing.B) {
	for _, dims := range [][2]int{{4, 4}, {8, 8}} {
		cols, rows := dims[0], dims[1]
		b.Run(fmt.Sprintf("%dx%d", cols, rows), func(b *testing.B) {
			b.ReportAllocs()
			eng := engine.New()
			m := New(eng, cols, rows, 1, 1, func(int, *Packet) {})
			last := cols*rows - 1
			roundTrip := func() {
				m.Send(0, last, stats.ClassRequest, 3, nil)
				m.Send(last, 0, stats.ClassReply, 5, nil)
				for i := 0; i < 10_000 && m.InFlight() > 0; i++ {
					eng.Step()
				}
			}
			for i := 0; i < 8; i++ {
				roundTrip()
			}
			hops := func() (t uint64) {
				for _, ports := range m.LinkUtilization() {
					for _, f := range ports {
						t += f
					}
				}
				return t
			}
			before := hops()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				roundTrip()
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(hops()-before), "ns/hop")
		})
	}
}
