package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/trace"
)

// Timeline span names emitted by the G-line network. Instants: one
// spanGLPulse per line per cycle with assertions (the S-CSMA sample count
// as arg — arbitration visibility), one spanGLComplete when a context's
// barrier completes at the root master.
const (
	spanGLPulse    = "gl.pulse"
	spanGLComplete = "gl.complete"
)

// MuxMode selects how multiple barrier contexts share the chip's G-lines.
type MuxMode int

const (
	// MuxSpace gives every context its own physical set of G-lines
	// (2*(rows+1) lines each in a flat network). Latency is the ideal 4
	// cycles per context.
	MuxSpace MuxMode = iota
	// MuxTime shares one physical set of G-lines between all contexts by
	// time-division: context i may drive/sample the wires only on cycles
	// where cycle mod N == i. Area stays constant; worst-case latency
	// scales with the number of contexts.
	MuxTime
)

// NetworkConfig configures a G-line barrier network.
type NetworkConfig struct {
	// Cols and Rows give the mesh geometry the network spans.
	Cols, Rows int
	// MaxTransmitters is the per-line electrical limit (paper: 6).
	MaxTransmitters int
	// Contexts is the number of independent logical barriers (>=1).
	Contexts int
	// Mux selects space- or time-multiplexing for Contexts > 1.
	Mux MuxMode
	// SerialSignaling disables S-CSMA: line receivers register at most
	// one arrival per cycle. An ablation of the paper's counting
	// technique; simultaneous arrivals then serialize at the masters.
	SerialSignaling bool
	// Span, when positive, splits the mesh into Span x Span clusters even
	// where it fits a flat network. Zero clusters only a mesh past the
	// transmitter limit, with the smallest span that fits.
	Span int
}

// Network is the G-line barrier network of one CMP: the paper's
// architecture of Figure 1, extended with multiple contexts and cluster
// levels. It implements engine.Component: the simulator registers it, and
// it is stepped every cycle while a barrier makes progress and sleeps while
// it is idle or waiting for stragglers.
type Network struct {
	cfg      NetworkConfig
	contexts []*context
	release  func(core int)
	schedule func(delay uint64, fn func()) // release deferral hook

	activeCtxs int
	gate       powerGate
	steps      uint64 // context steps run (host work, not simulated time)

	// wake is the engine handle inputs wake the network through; zero
	// when the caller drives Tick directly. armed is set with a G-line
	// fault injector, whose lines change without an arrival: the network
	// then never sleeps with a barrier in flight.
	wake  engine.Waker
	armed bool
	// tolerant clamps master over-counts instead of panicking; it is set
	// with a fault injector (see sampleMaster).
	tolerant bool

	// tl, when non-nil, records line pulses and barrier completions as
	// structured timeline events; probe additionally reports each context
	// completion (ctx id, cycle) to the latency-attribution collector.
	tl    *trace.Timeline
	probe func(ctx int, cycle uint64)
}

// context is one logical barrier: a full tree of controllers plus (in
// MuxSpace) its own lines.
type context struct {
	id     int
	net    *Network
	barReg []bool // per tile: written by the core, reset by the hardware
	// mv is the root group (the paper's MasterV/SlaveV column in a flat
	// network) and mastersH the bottom level, one group per row of each
	// cluster (MasterH/SlaveH).
	mv       *group
	mastersH []*group
	// sets lists sibling groups in sample order (see step); lines holds
	// every group's arrival/release pair, bottom-up.
	sets         [][]*group
	lines        []*Line
	participants []bool
	pending      int // cores arrived and not yet released
	slot, period int

	episodes uint64
	nowCycle uint64 // cycle of the step in progress (timeline hooks)

	// quiet records that the context's last step drove no line and
	// changed no controller state, and no input arrived since: further
	// steps are no-ops until one does.
	quiet bool

	// released collects the step's released cores; it is per-context
	// scratch, reused across steps, and must not be shared between
	// networks, which may step on parallel goroutines.
	released []int
}

// NewNetwork builds a G-line network. Every context initially includes all
// cores as participants; use SetParticipants to restrict a context.
//
// A region within the transmitter limit — at most MaxTransmitters slaves
// per line, i.e. up to 7x7 with the paper's limit of 6 — is the paper's
// flat network: one group per row, joined by one group over the rows. A
// larger region is split into span x span clusters, the span being the
// smallest whose grid has at most MaxTransmitters+1 clusters; each cluster
// is built the same way, and one more group joins them.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	if cfg.Cols <= 0 || cfg.Rows <= 0 {
		return nil, fmt.Errorf("gline: invalid mesh %dx%d", cfg.Cols, cfg.Rows)
	}
	if cfg.MaxTransmitters < 1 {
		return nil, fmt.Errorf("gline: MaxTransmitters must be >=1, got %d", cfg.MaxTransmitters)
	}
	if cfg.Contexts < 1 {
		return nil, fmt.Errorf("gline: Contexts must be >=1, got %d", cfg.Contexts)
	}
	if cfg.Span < 0 || cfg.Span == 1 {
		return nil, fmt.Errorf("gline: cluster span must be >1, got %d", cfg.Span)
	}
	n := &Network{cfg: cfg}
	for i := 0; i < cfg.Contexts; i++ {
		ctx := &context{
			id:           i,
			net:          n,
			barReg:       make([]bool, cfg.Cols*cfg.Rows),
			participants: make([]bool, cfg.Cols*cfg.Rows),
			period:       1,
		}
		root, err := ctx.tree(0, 0, cfg.Cols, cfg.Rows, cfg.Span)
		if err != nil {
			return nil, err
		}
		ctx.mv = root
		ctx.schedule([]*group{root})
		label := fmt.Sprintf("ctx%d", i)
		var shared []*Line
		if cfg.Mux == MuxTime {
			ctx.slot, ctx.period = i, cfg.Contexts
			label = "shared"
			if i > 0 {
				shared = n.contexts[0].lines
			}
		}
		ctx.wire(root, label, shared)
		for c := range ctx.participants {
			ctx.participants[c] = true
		}
		ctx.expect(root)
		n.contexts = append(n.contexts, ctx)
	}
	return n, nil
}

// tree builds the groups over the cols x rows region whose top-left tile is
// (col, row), splitting it into span x span clusters when span is positive
// or the region exceeds the transmitter limit.
func (c *context) tree(col, row, cols, rows, span int) (*group, error) {
	maxTx, meshCols := c.net.cfg.MaxTransmitters, c.net.cfg.Cols
	top := &group{}
	if span == 0 && cols-1 <= maxTx && rows-1 <= maxTx {
		for r := row; r < row+rows; r++ {
			g := &group{}
			for t := r*meshCols + col; t < r*meshCols+col+cols; t++ {
				g.tiles = append(g.tiles, t)
				g.join(&c.barReg[t])
			}
			c.mastersH = append(c.mastersH, g)
			top.kids = append(top.kids, g)
			top.join(&g.flag)
		}
		return top, nil
	}
	if span == 0 {
		span = clusterSpan(cols, rows, maxTx)
		if span == 0 {
			return nil, fmt.Errorf("gline: no cluster span splits a %dx%d mesh into at most %d clusters", cols, rows, maxTx+1)
		}
	}
	grid := ceilDiv(cols, span) * ceilDiv(rows, span)
	if grid < 2 || grid-1 > maxTx {
		return nil, fmt.Errorf("gline: span %d splits a %dx%d mesh into %d clusters, want 2 to %d", span, cols, rows, grid, maxTx+1)
	}
	for r := row; r < row+rows; r += span {
		for cl := col; cl < col+cols; cl += span {
			k, err := c.tree(cl, r, min(span, col+cols-cl), min(span, row+rows-r), 0)
			if err != nil {
				return nil, err
			}
			top.kids = append(top.kids, k)
			top.join(&k.flag)
		}
	}
	return top, nil
}

// join adds a member, given by its arrival bit: the first is the master's,
// every later one gets a slave.
func (g *group) join(in *bool) {
	if g.own == nil {
		g.own = in
	} else {
		g.slaves = append(g.slaves, slave{in: in})
	}
}

// clusterSpan returns the smallest span that splits a cols x rows region
// into 2 to maxTx+1 clusters, or 0 if none does.
func clusterSpan(cols, rows, maxTx int) int {
	for span := 2; span < max(cols, rows); span++ {
		if ceilDiv(cols, span)*ceilDiv(rows, span)-1 <= maxTx {
			return span
		}
	}
	return 0
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// schedule appends the sample order below a set of sibling groups: all
// their masters and slaves, then the level below each sibling in order.
func (c *context) schedule(set []*group) {
	c.sets = append(c.sets, set)
	for _, g := range set {
		if g.kids != nil {
			c.schedule(g.kids)
		}
	}
}

// wire gives every group its line pair bottom-up (post-order), which fixes
// the lines' fault-injector ids and timeline tracks. A time-multiplexed
// context takes context 0's lines in the same order.
func (c *context) wire(g *group, label string, shared []*Line) {
	for _, k := range g.kids {
		c.wire(k, label, shared)
	}
	if i := len(c.lines); shared != nil {
		g.arr, g.rel = shared[i], shared[i+1]
	} else {
		g.arr = NewLine(fmt.Sprintf("%s-arr%d", label, i/2), c.net.cfg.MaxTransmitters)
		g.rel = NewLine(fmt.Sprintf("%s-rel%d", label, i/2), c.net.cfg.MaxTransmitters)
	}
	c.lines = append(c.lines, g.arr, g.rel)
}

// SetParticipants restricts a context's barrier to the given cores. It must
// not be called while the context has arrivals in flight.
func (n *Network) SetParticipants(ctxID int, cores []int) error {
	ctx, err := n.ctx(ctxID)
	if err != nil {
		return err
	}
	if ctx.pending != 0 {
		return fmt.Errorf("gline: context %d has %d arrivals in flight", ctxID, ctx.pending)
	}
	if len(cores) == 0 {
		return fmt.Errorf("gline: context %d: empty participant set", ctxID)
	}
	for _, c := range cores {
		if c < 0 || c >= len(ctx.participants) {
			return fmt.Errorf("gline: participant %d out of range [0,%d)", c, len(ctx.participants))
		}
	}
	for i := range ctx.participants {
		ctx.participants[i] = false
	}
	for _, c := range cores {
		ctx.participants[c] = true
	}
	ctx.expect(ctx.mv)
	return nil
}

// expect derives the expected arrival counts of g and the groups below it
// from the participant mask. A group with no participants never raises its
// flag, so the level above must not count it.
func (c *context) expect(g *group) {
	g.scntMax = 0
	if g.kids == nil {
		g.ownReq = c.participants[g.tiles[0]]
		for _, t := range g.tiles[1:] {
			if c.participants[t] {
				g.scntMax++
			}
		}
	} else {
		for _, k := range g.kids {
			c.expect(k)
		}
		g.ownReq = g.kids[0].enabled
		for _, k := range g.kids[1:] {
			if k.enabled {
				g.scntMax++
			}
		}
	}
	g.enabled = g.ownReq || g.scntMax > 0
}

// Contexts returns the number of logical barrier contexts.
func (n *Network) Contexts() int { return len(n.contexts) }

// SetInjector installs a fault injector on every G-line of the network and
// switches the masters to tolerant counting (injected spurious assertions
// may over-count). Line ids are assigned deterministically from the
// network's own layout (see eachLine), so fault decisions never depend on
// how many other networks exist in the process.
func (n *Network) SetInjector(inj *fault.Injector) {
	n.armed = inj.GLActive()
	n.tolerant = true
	var id uint64
	n.eachLine(func(l *Line) {
		l.inj, l.id = inj, id
		id++
	})
}

// SetTimeline attaches a span timeline: line pulses and context completions
// are recorded on it. Track ids are assigned with the same deterministic
// traversal SetInjector uses, so a line keeps its track across runs.
func (n *Network) SetTimeline(tl *trace.Timeline) {
	n.tl = tl
	id := 0
	n.eachLine(func(l *Line) {
		l.tlID = id
		id++
	})
}

// eachLine calls fn on every physical line once: context by context, each
// group's arrival/release pair bottom-up. Time-multiplexed contexts share
// context 0's lines.
func (n *Network) eachLine(fn func(l *Line)) {
	for i, c := range n.contexts {
		if i > 0 && n.cfg.Mux == MuxTime {
			return
		}
		for _, l := range c.lines {
			fn(l)
		}
	}
}

// SetEpisodeProbe installs a callback fired once per completed barrier
// episode with the context id and completion cycle (before release
// propagates). The latency-attribution collector uses it to pin the gather
// phase's end.
func (n *Network) SetEpisodeProbe(fn func(ctx int, cycle uint64)) {
	n.probe = fn
}

// ResetContext re-arms one context's controllers to their pristine state:
// all bar_regs and flags cleared, counts zeroed, state machines back to
// their initial states. Participant masks and multiplexing slots survive.
// The recovery layer calls this on a wedged context before replaying
// arrivals.
func (n *Network) ResetContext(ctxID int) error {
	ctx, err := n.ctx(ctxID)
	if err != nil {
		return err
	}
	n.input(ctx)
	if ctx.pending > 0 {
		n.activeCtxs--
	}
	ctx.pending = 0
	clear(ctx.barReg)
	for _, set := range ctx.sets {
		for _, g := range set {
			for i := range g.slaves {
				g.slaves[i].state = slaveSignaling
			}
			g.state = masterAccounting
			g.scnt = 0
			g.backlog = 0
			g.mcnt = false
			g.relPend = false
			g.drove = false
			g.flag = false
		}
	}
	// Lines are idle between ticks (tx drains every sample), but clear them
	// anyway so a reset mid-wedge can never carry a stale pulse over.
	for _, l := range ctx.lines {
		l.tx = 0
		l.sampled = 0
	}
	return nil
}

// input marks a context as having new work and wakes the network.
func (n *Network) input(ctx *context) {
	ctx.quiet = false
	n.wake.Wake()
}

func (n *Network) ctx(id int) (*context, error) {
	if id < 0 || id >= len(n.contexts) {
		return nil, fmt.Errorf("gline: context %d out of range [0,%d)", id, len(n.contexts))
	}
	return n.contexts[id], nil
}

// OnRelease installs the callback invoked when the hardware resets a core's
// bar_reg. The callback is deferred by one cycle through schedule (the core
// observes the cleared register on the next cycle).
func (n *Network) OnRelease(schedule func(delay uint64, fn func()), release func(core int)) {
	n.schedule = schedule
	n.release = release
}

// Arrive is the core side of `mov 1, bar_reg`: core announces its arrival
// at the barrier of the given context.
func (n *Network) Arrive(core int, ctxID int) {
	ctx, err := n.ctx(ctxID)
	if err != nil {
		panic(err.Error())
	}
	if core < 0 || core >= len(ctx.barReg) {
		panic(fmt.Sprintf("gline: core %d out of range", core))
	}
	if !ctx.participants[core] {
		panic(fmt.Sprintf("gline: core %d is not a participant of context %d", core, ctxID))
	}
	if ctx.barReg[core] {
		panic(fmt.Sprintf("gline: core %d arrived twice at context %d", core, ctxID))
	}
	ctx.barReg[core] = true
	ctx.pending++
	if ctx.pending == 1 {
		n.activeCtxs++
	}
	n.input(ctx)
}

// BarRegSet reports whether a core's bar_reg is currently set, for tests.
func (n *Network) BarRegSet(core, ctxID int) bool {
	ctx, err := n.ctx(ctxID)
	if err != nil {
		panic(err.Error())
	}
	return ctx.barReg[core]
}

// Episodes returns the total completed barrier episodes across contexts.
func (n *Network) Episodes() uint64 {
	var e uint64
	for _, c := range n.contexts {
		e += c.episodes
	}
	return e
}

// ContextEpisodes returns the completed episodes of one context.
func (n *Network) ContextEpisodes(ctxID int) uint64 {
	ctx, err := n.ctx(ctxID)
	if err != nil {
		panic(err.Error())
	}
	return ctx.episodes
}

// Toggles returns total G-line assertions (each is one wire transition),
// the basis of the energy model.
func (n *Network) Toggles() uint64 {
	var t uint64
	n.eachLine(func(l *Line) { t += l.Toggles() })
	return t
}

// ActiveCycles returns how many cycles the network was powered (a barrier
// in flight, whether stepped or asleep waiting for stragglers) — the
// controllers are switched off otherwise (paper §3.3).
func (n *Network) ActiveCycles() uint64 { return n.gate.active(n.wake.Now()) }

// SetWaker hands the network the engine handle its inputs (Arrive,
// ResetContext) wake it through.
func (n *Network) SetWaker(w engine.Waker) { n.wake = w }

// Busy reports whether any context has a barrier in flight.
func (n *Network) Busy() bool { return n.activeCtxs > 0 }

// Steps returns how many context steps the network has run: host work,
// which sleeping through quiescent cycles saves.
func (n *Network) Steps() uint64 { return n.steps }

// LineCount returns the total number of physical G-lines.
func (n *Network) LineCount() int {
	cnt := 0
	n.eachLine(func(*Line) { cnt++ })
	return cnt
}

func (c *context) onEpisode() {
	c.episodes++
	n := c.net
	if n.tl != nil {
		n.tl.Instant(trace.BarrierTrack(c.id), spanGLComplete, c.nowCycle, c.episodes, 0)
	}
	if n.probe != nil {
		n.probe(c.id, c.nowCycle)
	}
}

// Tick steps the network one cycle and returns the next cycle it must be
// stepped on: the next one while a barrier makes progress (or, with a
// fault injector armed, while any is in flight), engine.Never while every
// context is idle or quiescent — an input wakes it then. Contexts with no
// pending arrivals are power-gated.
//
//glvet:cyclepath
func (n *Network) Tick(cycle uint64) uint64 {
	n.gate.resume(cycle)
	if n.activeCtxs == 0 {
		return engine.Never
	}
	n.gate.cycles++
	quiet := n.step(cycle)
	return n.gate.next(cycle, n.activeCtxs > 0, quiet && !n.armed)
}

// step advances every context with a barrier in flight one cycle and
// reports whether all of them are quiet.
func (n *Network) step(cycle uint64) (quiet bool) {
	quiet = true
	for _, ctx := range n.contexts {
		if ctx.pending == 0 && !ctx.inFlight() {
			continue
		}
		if cycle%uint64(ctx.period) == uint64(ctx.slot) {
			n.steps++
			ctx.quiet = ctx.step(cycle)
		}
		quiet = quiet && ctx.quiet
	}
	return quiet
}

// inFlight reports whether any controller holds transient state (release
// still propagating after pending already dropped, which cannot happen
// today but keeps the gate conservative).
func (c *context) inFlight() bool {
	for _, set := range c.sets {
		for _, g := range set {
			if g.state != masterAccounting || g.relPend || g.backlog > 0 {
				return true
			}
		}
	}
	return false
}

// step is one hardware cycle of one context: all controllers drive their
// lines, the lines latch (S-CSMA sampling), then all controllers observe.
//
// The sample order runs top-down: for each set of sibling groups, all
// masters, then all slaves, then the level below each sibling in order.
// It realizes the registered-flag semantics of the paper — a flag a master
// raises on cycle k is first visible to the level above on cycle k+1 — and
// fixes the release order: within a cluster the row masters' cores, then
// the slaves' cores, clusters in row-major order. The order matters
// because a released core issues its next operation inside its release
// event.
//
// It reports whether the step was quiescent: no line driven and no master
// state changed. (A slave only changes state in a step that drives a line:
// its own arrival assert, or the release pulse it observes.) Without
// faults, a quiescent step is a fixed point — every further step is the
// same no-op until an input arrives.
func (c *context) step(cycle uint64) (quiescent bool) {
	c.nowCycle = cycle
	for _, set := range c.sets {
		for _, g := range set {
			// The master's release pulse, and each signaling slave whose
			// member has arrived.
			if g.state == masterWaiting && g.relPend {
				g.rel.Assert()
				g.drove = true
			}
			for _, s := range g.slaves {
				if s.state == slaveSignaling && *s.in {
					g.arr.Assert()
				}
			}
		}
	}

	drove := false
	for _, l := range c.lines {
		if l.sample(cycle) > 0 {
			drove = true
		}
	}
	if c.net.tl != nil {
		// One instant per line with assertions this cycle; arg carries the
		// S-CSMA sample count, making arbitration rounds visible per wire.
		for _, l := range c.lines {
			if l.sampled > 0 {
				c.net.tl.Instant(trace.LineTrack(l.tlID), spanGLPulse, cycle, 0, uint64(l.sampled))
			}
		}
	}

	c.released = c.released[:0]
	changed := false
	for _, set := range c.sets {
		for _, g := range set {
			if c.sampleMaster(g) {
				changed = true
			}
		}
		// A slave waits once its member has arrived, and releases the
		// member when the release line pulses.
		for _, g := range set {
			rel := g.rel.Count() > 0
			for i := range g.slaves {
				s := &g.slaves[i]
				switch {
				case s.state == slaveSignaling && *s.in:
					s.state = slaveWaiting
				case s.state == slaveWaiting && rel:
					s.state = slaveSignaling
					c.releaseMember(g, i+1)
				}
			}
		}
	}

	if len(c.released) > 0 {
		c.pending -= len(c.released)
		if c.pending < 0 {
			panic("gline: released more cores than arrived")
		}
		if c.pending == 0 {
			c.net.activeCtxs--
		}
		n := c.net
		if n.release != nil {
			for _, tile := range c.released {
				tile := tile
				if n.schedule != nil {
					n.schedule(1, func() { n.release(tile) })
				} else {
					n.release(tile)
				}
			}
		}
	}
	return !drove && !changed
}

// powerGate counts a network's active cycles (paper §3.3) across sleeps: a
// network that goes quiescent with a barrier in flight is no longer
// stepped, yet every cycle it sleeps through is still an active one.
type powerGate struct {
	cycles    uint64
	asleep    bool
	sleptFrom uint64
}

// resume counts the cycles slept through before cycle.
func (g *powerGate) resume(cycle uint64) {
	if g.asleep {
		g.asleep = false
		if cycle > g.sleptFrom {
			g.cycles += cycle - g.sleptFrom
		}
	}
}

// next returns the next cycle to step after cycle: Never when nothing is
// in flight, the next cycle unless quiet, and Never — asleep, with the
// barrier still in flight — when quiet.
func (g *powerGate) next(cycle uint64, busy, quiet bool) uint64 {
	switch {
	case !busy:
		return engine.Never
	case !quiet:
		return cycle + 1
	}
	g.asleep, g.sleptFrom = true, cycle+1
	return engine.Never
}

// active returns the active cycles before now, counting a sleep still in
// progress (now is 0 for a network driven outside an engine).
func (g *powerGate) active(now uint64) uint64 {
	c := g.cycles
	if g.asleep && now > g.sleptFrom {
		c += now - g.sleptFrom
	}
	return c
}
