package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/trace"
)

// Hierarchical implements the paper's future-work extension for CMPs larger
// than the flat network's electrical limit (7x7 with 6 transmitters per
// line): the mesh is partitioned into clusters, each served by a flat
// G-line network, and the cluster masters are linked by a second-level pair
// of global G-lines (arrival + release) using the same S-CSMA counting.
//
// The ideal latency becomes 6 cycles: 2 for the in-cluster gather, 1 for
// the global arrival line, 1 for the global release line, and 2 for the
// in-cluster release.
type Hierarchical struct {
	cols, rows int
	span       int
	gridC      int // clusters per mesh row of clusters
	gridR      int
	clusters   []*clusterSlot
	layers     []*globalLayer // one per context
	contexts   int

	release  func(core int)
	schedule func(delay uint64, fn func())
	gate     powerGate
	steps    uint64 // global-layer steps run (host work)

	// wake and armed play the same roles as in Network; the cluster
	// networks wake the hierarchy through the same handle.
	wake  engine.Waker
	armed bool

	currentCycle uint64

	// tl records global-line pulses and global barrier completions; probe
	// reports completions to the latency-attribution collector. Cluster
	// networks carry their own copy of tl for in-cluster line pulses.
	tl    *trace.Timeline
	probe func(ctx int, cycle uint64)
}

// clusterSlot binds a flat sub-network to its region of the global mesh.
type clusterSlot struct {
	net                *Network
	colOff, rowOff     int
	subCols, subRows   int
	globalOfLocal      []int // local tile -> global core id
	participantsPerCtx [][]int
}

// globalLayer is the second-level synchronization for one context: the
// cluster masters behave like slaves on one global arrival line, with
// cluster 0's master acting as the global master.
type globalLayer struct {
	h     *Hierarchical
	ctxID int

	gArr, gRel *Line

	// Per-cluster registered completion state.
	complete   []bool
	flagCycle  []uint64 // cycle the cluster completed (registered)
	sent       []bool   // asserted the global arrival line
	active     []bool   // cluster has participants in this context
	nActive    int
	gCount     int
	gComplete  bool
	relPending bool
	drove      uint64 // cycle the release was driven + 1 (0 = not driven)

	episodes uint64
}

// NewHierarchical builds a clustered G-line network for a cols x rows mesh.
// span is the maximum cluster dimension; it must not exceed
// maxTransmitters+1, and the resulting cluster grid must itself respect the
// transmitter limit on the global lines (at most maxTransmitters+1
// clusters).
func NewHierarchical(cols, rows, span, maxTransmitters, contexts int) (*Hierarchical, error) {
	if cols <= 0 || rows <= 0 {
		return nil, fmt.Errorf("gline: invalid mesh %dx%d", cols, rows)
	}
	if span <= 1 {
		return nil, fmt.Errorf("gline: cluster span must be >1, got %d", span)
	}
	if span > maxTransmitters+1 {
		return nil, fmt.Errorf("gline: span %d exceeds transmitter limit (max %d)", span, maxTransmitters+1)
	}
	if contexts < 1 {
		return nil, fmt.Errorf("gline: contexts must be >=1, got %d", contexts)
	}
	gridC := (cols + span - 1) / span
	gridR := (rows + span - 1) / span
	nClusters := gridC * gridR
	if nClusters-1 > maxTransmitters {
		return nil, fmt.Errorf("gline: %d clusters exceed the %d-transmitter global line limit; increase span or add levels", nClusters, maxTransmitters)
	}
	h := &Hierarchical{
		cols: cols, rows: rows, span: span,
		gridC: gridC, gridR: gridR,
		contexts: contexts,
	}
	for cr := 0; cr < gridR; cr++ {
		for cc := 0; cc < gridC; cc++ {
			colOff := cc * span
			rowOff := cr * span
			subCols := min(span, cols-colOff)
			subRows := min(span, rows-rowOff)
			net, err := NewNetwork(NetworkConfig{
				Cols: subCols, Rows: subRows,
				MaxTransmitters: maxTransmitters,
				Contexts:        contexts,
				Mux:             MuxSpace,
			})
			if err != nil {
				return nil, err
			}
			slot := &clusterSlot{
				net:    net,
				colOff: colOff, rowOff: rowOff,
				subCols: subCols, subRows: subRows,
			}
			for lr := 0; lr < subRows; lr++ {
				for lc := 0; lc < subCols; lc++ {
					slot.globalOfLocal = append(slot.globalOfLocal, (rowOff+lr)*cols+(colOff+lc))
				}
			}
			h.clusters = append(h.clusters, slot)
		}
	}
	for ctxID := 0; ctxID < contexts; ctxID++ {
		layer := &globalLayer{
			h:         h,
			ctxID:     ctxID,
			gArr:      NewLine(fmt.Sprintf("ctx%d-gArr", ctxID), maxTransmitters),
			gRel:      NewLine(fmt.Sprintf("ctx%d-gRel", ctxID), maxTransmitters),
			complete:  make([]bool, nClusters),
			flagCycle: make([]uint64, nClusters),
			sent:      make([]bool, nClusters),
			active:    make([]bool, nClusters),
			nActive:   nClusters,
		}
		for i := range layer.active {
			layer.active[i] = true
		}
		h.layers = append(h.layers, layer)
		for ci, slot := range h.clusters {
			if err := slot.net.GateRelease(ctxID, true); err != nil {
				return nil, err
			}
			ci, ctxID := ci, ctxID
			slot.net.contexts[ctxID].mv.episodeDone = func() { layer.clusterComplete(ci) }
		}
	}
	// Cluster networks release cores through the hierarchical wrapper.
	for _, slot := range h.clusters {
		slot := slot
		slot.net.OnRelease(nil, func(localTile int) {
			core := slot.globalOfLocal[localTile]
			if h.schedule != nil {
				h.schedule(1, func() { h.release(core) })
			} else if h.release != nil {
				h.release(core)
			}
		})
	}
	return h, nil
}

// Clusters returns the number of first-level networks.
func (h *Hierarchical) Clusters() int { return len(h.clusters) }

// Contexts returns the number of logical barrier contexts.
func (h *Hierarchical) Contexts() int { return h.contexts }

// SetInjector installs a fault injector on every G-line of the hierarchy.
// Each cluster network gets a disjoint line-id range (in cluster order),
// followed by the global arrival/release pair of each context, so fault
// decisions stay deterministic per line across runs.
func (h *Hierarchical) SetInjector(inj *fault.Injector) {
	h.armed = inj.GLActive()
	id := uint64(0)
	for _, slot := range h.clusters {
		id = slot.net.setInjectorFrom(inj, id)
	}
	for _, l := range h.layers {
		l.gArr.inj, l.gArr.id = inj, id
		id++
		l.gRel.inj, l.gRel.id = inj, id
		id++
	}
}

// SetTimeline attaches a span timeline across the hierarchy: cluster lines
// get disjoint track-id ranges (in cluster order) followed by the global
// arrival/release pair of each context — the same layout SetInjector uses
// for fault ids.
func (h *Hierarchical) SetTimeline(tl *trace.Timeline) {
	h.tl = tl
	id := 0
	for _, slot := range h.clusters {
		id = slot.net.setTimelineFrom(tl, id)
	}
	for _, l := range h.layers {
		l.gArr.tlID = id
		id++
		l.gRel.tlID = id
		id++
	}
}

// SetEpisodeProbe installs the per-episode completion callback, as for
// Network. Only global (whole-chip) completions are reported; in-cluster
// completions are intermediate gather steps.
func (h *Hierarchical) SetEpisodeProbe(fn func(ctx int, cycle uint64)) {
	h.probe = fn
}

// ResetContext re-arms one context across the whole hierarchy: every
// cluster's controllers plus the global layer's registered completion
// state. Participant masks survive, as for Network.ResetContext.
func (h *Hierarchical) ResetContext(ctxID int) error {
	if ctxID < 0 || ctxID >= h.contexts {
		return fmt.Errorf("gline: context %d out of range [0,%d)", ctxID, h.contexts)
	}
	for _, slot := range h.clusters {
		if err := slot.net.ResetContext(ctxID); err != nil {
			return err
		}
	}
	l := h.layers[ctxID]
	for i := range l.complete {
		l.complete[i] = false
		l.sent[i] = false
		l.flagCycle[i] = 0
	}
	l.gCount = 0
	l.gComplete = false
	l.relPending = false
	l.drove = 0
	l.gArr.tx, l.gArr.sampled = 0, 0
	l.gRel.tx, l.gRel.sampled = 0, 0
	h.wake.Wake()
	return nil
}

// clusterOf maps a global core id to its cluster index and local tile.
func (h *Hierarchical) clusterOf(core int) (clusterIdx, localTile int) {
	col := core % h.cols
	row := core / h.cols
	cc := col / h.span
	cr := row / h.span
	clusterIdx = cr*h.gridC + cc
	slot := h.clusters[clusterIdx]
	localTile = (row-slot.rowOff)*slot.subCols + (col - slot.colOff)
	return clusterIdx, localTile
}

// OnRelease installs the core release callback, as for Network.
func (h *Hierarchical) OnRelease(schedule func(delay uint64, fn func()), release func(core int)) {
	h.schedule = schedule
	h.release = release
}

// Arrive announces a core's arrival at the given context's barrier.
func (h *Hierarchical) Arrive(core int, ctxID int) {
	if core < 0 || core >= h.cols*h.rows {
		panic(fmt.Sprintf("gline: core %d out of range", core))
	}
	ci, local := h.clusterOf(core)
	h.clusters[ci].net.Arrive(local, ctxID)
}

// SetParticipants restricts a context to the given global core set.
func (h *Hierarchical) SetParticipants(ctxID int, cores []int) error {
	if ctxID < 0 || ctxID >= h.contexts {
		return fmt.Errorf("gline: context %d out of range [0,%d)", ctxID, h.contexts)
	}
	if len(cores) == 0 {
		return fmt.Errorf("gline: context %d: empty participant set", ctxID)
	}
	perCluster := make([][]int, len(h.clusters))
	for _, c := range cores {
		if c < 0 || c >= h.cols*h.rows {
			return fmt.Errorf("gline: participant %d out of range [0,%d)", c, h.cols*h.rows)
		}
		ci, local := h.clusterOf(c)
		perCluster[ci] = append(perCluster[ci], local)
	}
	layer := h.layers[ctxID]
	layer.nActive = 0
	for ci, locals := range perCluster {
		layer.active[ci] = len(locals) > 0
		if len(locals) == 0 {
			continue
		}
		layer.nActive++
		if err := h.clusters[ci].net.SetParticipants(ctxID, locals); err != nil {
			return err
		}
	}
	if layer.nActive == 0 {
		return fmt.Errorf("gline: context %d: no participating cluster", ctxID)
	}
	return nil
}

// Episodes returns completed global barrier episodes across contexts.
func (h *Hierarchical) Episodes() uint64 {
	var e uint64
	for _, l := range h.layers {
		e += l.episodes
	}
	return e
}

// Toggles sums wire transitions over cluster and global lines.
func (h *Hierarchical) Toggles() uint64 {
	var t uint64
	for _, slot := range h.clusters {
		t += slot.net.Toggles()
	}
	for _, l := range h.layers {
		t += l.gArr.Toggles() + l.gRel.Toggles()
	}
	return t
}

// LineCount returns the total number of physical G-lines, including the two
// global lines per context.
func (h *Hierarchical) LineCount() int {
	n := 0
	for _, slot := range h.clusters {
		n += slot.net.LineCount()
	}
	return n + 2*len(h.layers)
}

// ActiveCycles returns the cycles the hierarchy had a barrier in flight,
// stepped or asleep.
func (h *Hierarchical) ActiveCycles() uint64 { return h.gate.active(h.wake.Now()) }

// SetWaker hands the hierarchy (and its cluster networks, whose inputs
// wake it) the engine handle.
func (h *Hierarchical) SetWaker(w engine.Waker) {
	h.wake = w
	for _, slot := range h.clusters {
		slot.net.SetWaker(w)
	}
}

// Busy reports whether any cluster or global layer has a barrier in
// flight.
func (h *Hierarchical) Busy() bool {
	for _, slot := range h.clusters {
		if slot.net.Busy() {
			return true
		}
	}
	for _, l := range h.layers {
		if l.busy() {
			return true
		}
	}
	return false
}

// Steps returns the context steps run by the cluster networks plus the
// global-layer steps.
func (h *Hierarchical) Steps() uint64 {
	n := h.steps
	for _, slot := range h.clusters {
		n += slot.net.Steps()
	}
	return n
}

// Tick steps the cluster networks and then the global layers, with the
// same wake contract as Network.Tick. An idle hierarchy is power-gated
// whole: nothing is stepped, so an armed fault injector cannot fire
// spurious pulses into global lines no core is using.
//
//glvet:cyclepath
func (h *Hierarchical) Tick(cycle uint64) uint64 {
	h.gate.resume(cycle)
	if !h.Busy() {
		return engine.Never
	}
	h.currentCycle = cycle
	active, quiet := false, true
	for _, slot := range h.clusters {
		if !slot.net.Busy() {
			continue
		}
		quiet = slot.net.step(cycle) && quiet
		active = active || slot.net.Busy()
	}
	for _, l := range h.layers {
		h.steps++
		busy, changed := l.step(cycle)
		active = active || busy
		quiet = quiet && !changed
	}
	if active {
		h.gate.cycles++
	}
	return h.gate.next(cycle, h.Busy(), quiet && !h.armed)
}

// clusterComplete registers a cluster's local barrier completion; the
// global layer observes it from the next cycle on (registered flag).
func (l *globalLayer) clusterComplete(ci int) {
	l.complete[ci] = true
	l.flagCycle[ci] = l.h.currentCycle
}

// step advances one context's global layer by one cycle: assert phase,
// line sampling, observe phase — the same two-phase discipline as the flat
// controllers. It reports whether the layer is busy and whether the step
// drove a line, counted an arrival or changed state (a relay still
// waiting out its registered cycle follows a cluster step that changed
// state, so an unchanged layer is a fixed point, as for a context).
func (l *globalLayer) step(cycle uint64) (busy, changed bool) {
	// Assert phase: non-master clusters relay their completion onto the
	// global arrival line one cycle after it registered.
	for ci := 1; ci < len(l.complete); ci++ {
		if l.active[ci] && l.complete[ci] && !l.sent[ci] && cycle > l.flagCycle[ci] {
			l.gArr.Assert()
			l.sent[ci] = true
			busy = true
		}
	}
	if l.gComplete && l.relPending {
		l.gRel.Assert()
		l.drove = cycle + 1
		l.relPending = false
		busy = true
	}
	changed = busy
	l.gArr.sample(cycle)
	l.gRel.sample(cycle)
	if tl := l.h.tl; tl != nil {
		if l.gArr.sampled > 0 {
			tl.Instant(trace.LineTrack(l.gArr.tlID), spanGLPulse, cycle, 0, uint64(l.gArr.sampled))
		}
		if l.gRel.sampled > 0 {
			tl.Instant(trace.LineTrack(l.gRel.tlID), spanGLPulse, cycle, 0, uint64(l.gRel.sampled))
		}
	}

	// Observe phase: the global master counts arrivals.
	if !l.gComplete {
		if n := l.gArr.Count(); n != 0 {
			l.gCount += n
			changed = true
		}
		ownDone := !l.active[0] || (l.complete[0] && cycle > l.flagCycle[0])
		needed := l.nActive
		if l.active[0] {
			needed--
		}
		if l.gCount == needed && ownDone {
			l.gComplete = true
			l.relPending = true
			l.episodes++
			changed = true
			if l.h.tl != nil {
				l.h.tl.Instant(trace.BarrierTrack(l.ctxID), spanGLComplete, cycle, l.episodes, 0)
			}
			if l.h.probe != nil {
				l.h.probe(l.ctxID, cycle)
			}
		}
	} else if l.drove == cycle+1 {
		// Release pulse on the wire this cycle: every active cluster's
		// master observes it and starts the local release next cycle.
		for ci := range l.complete {
			if l.active[ci] && l.complete[ci] {
				l.h.clusters[ci].net.TriggerRelease(l.ctxID)
			}
			l.complete[ci] = false
			l.sent[ci] = false
		}
		l.gCount = 0
		l.gComplete = false
		l.drove = 0
		changed = true
	}
	return busy || l.busy(), changed
}

// busy reports whether the layer holds any part of an episode.
func (l *globalLayer) busy() bool {
	if l.gComplete || l.gCount > 0 || l.relPending || l.drove != 0 {
		return true
	}
	for _, c := range l.complete {
		if c {
			return true
		}
	}
	return false
}
