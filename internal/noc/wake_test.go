package noc

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// traffic is one differential scenario: packets sent at random cycles in
// [0, spread) from random sources, to random destinations or all to node
// 0 (a hot spot whose ejection queue grows to hundreds), run to
// completion or cut off by a cycle budget in mid-traffic. With late set,
// every other packet is sent from inside a component ticked after the
// mesh, so its router is first due on the next cycle. With slow set, the
// router and link take 40 and 30 cycles and packets up to 100 flits, so
// routers fall due beyond the due calendar's window.
type traffic struct {
	name    string
	packets int
	spread  int
	hotSpot bool
	budget  uint64
	late    bool
	slow    bool
}

var scenarios = []traffic{
	{name: "random", packets: 400, spread: 3000},
	{name: "hotspot", packets: 1000, spread: 200, hotSpot: true},
	{name: "random-cut", packets: 400, spread: 3000, budget: 1500},
	{name: "hotspot-cut", packets: 1000, spread: 200, hotSpot: true, budget: 1200},
	{name: "late", packets: 400, spread: 3000, late: true},
	{name: "late-cut", packets: 400, spread: 3000, budget: 1500, late: true},
	{name: "slow", packets: 200, spread: 3000, slow: true},
}

// diffRun is one mesh run: every delivered packet's cycle by ID, the
// per-port flit counts, the injected-fault counters, the run's end cycle,
// the noc.queue.depth gauge and the number of router visits.
type diffRun struct {
	delivered map[uint64]uint64
	links     [][numPorts]uint64
	faults    map[string]uint64
	end       uint64
	depth     metrics.GaugeSnapshot
	steps     uint64
}

// sender is the common surface of the mesh and its reference.
type sender interface {
	Send(src, dst int, class stats.MsgClass, flits int, payload any)
	SetInjector(inj *fault.Injector)
	LinkUtilization() [][5]uint64
}

type send struct {
	at, src, dst, flits int
	class               stats.MsgClass
}

// lateSender is a component registered after the mesh that sends its
// packets from its own Tick.
type lateSender struct {
	m     sender
	sends []send // ascending at
}

func (l *lateSender) Busy() bool { return len(l.sends) > 0 }

func (l *lateSender) Tick(cycle uint64) uint64 {
	for len(l.sends) > 0 && uint64(l.sends[0].at) <= cycle {
		s := l.sends[0]
		l.m.Send(s.src, s.dst, s.class, s.flits, nil)
		l.sends = l.sends[1:]
	}
	if len(l.sends) == 0 {
		return engine.Never
	}
	return uint64(l.sends[0].at)
}

// runTraffic runs one scenario on a cols x rows mesh, or on its
// reference.
func runTraffic(t *testing.T, cols, rows int, plan string, sc traffic, seed int64, reference bool) diffRun {
	t.Helper()
	eng := engine.New()
	out := diffRun{delivered: map[uint64]uint64{}}
	sink := func(dst int, p *Packet) {
		if p.Dst != dst {
			t.Errorf("packet %d for %d delivered at %d", p.ID, p.Dst, dst)
		}
		out.delivered[p.ID] = eng.Now()
	}
	routerLat, linkLat, maxFlits := uint64(1), uint64(1), 8
	if sc.slow {
		routerLat, linkLat, maxFlits = 40, 30, 100
	}
	var m sender
	var ref *refMesh
	var mesh *Mesh
	if reference {
		ref = newRefMesh(eng, cols, rows, routerLat, linkLat, sink)
		m = ref
	} else {
		mesh = New(eng, cols, rows, routerLat, linkLat, sink)
		m = mesh
	}
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
	r := rand.New(rand.NewSource(seed))
	nodes := cols * rows
	var late []send
	for i := 0; i < sc.packets; i++ {
		s := send{at: r.Intn(sc.spread), src: r.Intn(nodes), dst: r.Intn(nodes),
			class: stats.MsgClass(r.Intn(int(stats.NumMsgClasses))), flits: 1 + r.Intn(maxFlits)}
		if sc.hotSpot {
			s.dst = 0
		}
		if sc.late && i%2 == 1 {
			late = append(late, s)
			continue
		}
		eng.At(uint64(s.at), func() { m.Send(s.src, s.dst, s.class, s.flits, nil) })
	}
	if sc.late {
		sort.SliceStable(late, func(i, j int) bool { return late[i].at < late[j].at })
		l := &lateSender{m: m, sends: late}
		w := eng.AddComponent(l)
		eng.At(0, w.Wake)
	}
	budget := sc.budget
	if budget == 0 {
		budget = 1_000_000
	}
	end, err := eng.Run(budget, func() bool { return len(out.delivered) == sc.packets })
	switch {
	case sc.budget == 0 && err != nil:
		t.Fatal(err)
	case sc.budget != 0 && err == nil:
		t.Fatalf("run ended at %d inside its budget of %d: the cut is vacuous", end, sc.budget)
	}
	out.end = end
	out.links = m.LinkUtilization()
	out.faults = reg.Snapshot().Counters
	if reference {
		out.depth = metrics.GaugeSnapshot{Value: ref.depth.Value(), Peak: ref.depth.Peak()}
		out.steps = ref.steps
	} else {
		snap := mesh.Metrics().Snapshot()
		out.depth = snap.Gauges[metricQueueDepth]
		out.steps = snap.Counters[metricRouterSteps]
		if mesh.Stats().PeakQueue != out.depth.Peak {
			t.Errorf("Stats().PeakQueue %d, gauge peak %d", mesh.Stats().PeakQueue, out.depth.Peak)
		}
	}
	return out
}

// TestWakePathMatchesFullScan is the mesh's differential test. Seeded
// traffic on meshes from 2x2 to 8x8, with and without link-down and
// corruption faults, must deliver every packet on the same cycle, move the
// same flits over every port, inject the same faults, end on the same
// cycle and read the same noc.queue.depth value and peak as the frozen
// reference in ref_test.go, which routes each link arrival in an event of
// its own — while visiting fewer routers. The hot-spot, cut-off and late
// scenarios are the ones light random traffic (queues 2–3 deep) cannot
// tell apart from a mesh that gets the depth accounting or the calendar
// wrong.
func TestWakePathMatchesFullScan(t *testing.T) {
	plans := []string{"", "seed=3,noc.linkdown=0.05", "seed=5,noc.corrupt=0.05,noc.linkdown=0.02"}
	for _, dims := range [][2]int{{2, 2}, {4, 4}, {8, 4}, {8, 8}} {
		for _, plan := range plans {
			for _, sc := range scenarios {
				name := fmt.Sprintf("%dx%d/%q/%s", dims[0], dims[1], plan, sc.name)
				t.Run(name, func(t *testing.T) {
					for seed := int64(1); seed <= 3; seed++ {
						want := runTraffic(t, dims[0], dims[1], plan, sc, seed, true)
						got := runTraffic(t, dims[0], dims[1], plan, sc, seed, false)
						compareRuns(t, seed, got, want)
						if plan != "" && want.faults[fault.MetricInjected] == 0 {
							t.Errorf("seed %d: plan %q injected nothing; the check is vacuous", seed, plan)
						}
						if sc.hotSpot && want.depth.Peak < 100 {
							t.Errorf("seed %d: hot spot peaked at depth %d; want hundreds", seed, want.depth.Peak)
						}
					}
				})
			}
		}
	}
}

func compareRuns(t *testing.T, seed int64, got, want diffRun) {
	t.Helper()
	if got.end != want.end {
		t.Errorf("seed %d: run ended at %d, reference %d", seed, got.end, want.end)
	}
	if len(got.delivered) != len(want.delivered) {
		t.Errorf("seed %d: %d packets delivered, reference %d", seed, len(got.delivered), len(want.delivered))
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
	if got.depth != want.depth {
		t.Errorf("seed %d: %s %+v, reference %+v", seed, metricQueueDepth, got.depth, want.depth)
	}
	if got.steps >= want.steps {
		t.Errorf("seed %d: visited %d routers, reference %d", seed, got.steps, want.steps)
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

// TestInjectionDepthOrder pins where an injection's queue-depth
// observation falls among the routing stage's. Two packets sent from
// events on cycle 0 are queued before the mesh's tick routes the first, so
// a run cut off at cycle 1 ends with the routing push's depth, 1. On cycle
// 3 the mesh is not ticked, yet a link arrival is routed in its turn, and
// two packets a component ticked after the mesh sends on cycle 3 are
// queued after that, so a run cut off at cycle 4 ends with the second
// injection's depth, 2.
func TestInjectionDepthOrder(t *testing.T) {
	cases := []struct {
		name   string
		budget uint64
		late   []send
		want   metrics.GaugeSnapshot
	}{
		{name: "events", budget: 1, want: metrics.GaugeSnapshot{Value: 1, Peak: 2}},
		{name: "late", budget: 4, late: []send{{at: 3, src: 2, dst: 2, flits: 1}, {at: 3, src: 2, dst: 2, flits: 1}},
			want: metrics.GaugeSnapshot{Value: 2, Peak: 2}},
	}
	for _, tc := range cases {
		for _, reference := range []bool{true, false} {
			eng := engine.New()
			var m sender
			var mesh *Mesh
			var ref *refMesh
			if reference {
				ref = newRefMesh(eng, 3, 1, 1, 1, func(int, *Packet) {})
				m = ref
			} else {
				mesh = New(eng, 3, 1, 1, 1, func(int, *Packet) {})
				m = mesh
			}
			eng.At(0, func() { m.Send(0, 2, stats.ClassRequest, 1, nil) })
			if tc.late == nil {
				eng.At(0, func() { m.Send(0, 2, stats.ClassRequest, 1, nil) })
			} else {
				w := eng.AddComponent(&lateSender{m: m, sends: tc.late})
				eng.At(0, w.Wake)
			}
			if _, err := eng.Run(tc.budget, func() bool { return false }); err == nil {
				t.Fatalf("%s: run finished inside its budget", tc.name)
			}
			var got metrics.GaugeSnapshot
			if reference {
				got = metrics.GaugeSnapshot{Value: ref.depth.Value(), Peak: ref.depth.Peak()}
			} else {
				snap := mesh.Metrics().Snapshot()
				got = snap.Gauges[metricQueueDepth]
				if n := snap.Counters[metricRouterSteps]; tc.late != nil && n != 2 {
					t.Errorf("%s: mesh visited %d routers; a tick on cycle 3 makes the case vacuous", tc.name, n)
				}
			}
			if got != tc.want {
				t.Errorf("%s, reference=%v: %s %+v, want %+v", tc.name, reference, metricQueueDepth, got, tc.want)
			}
		}
	}
}
