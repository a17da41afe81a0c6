package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/trace"
)

// Timeline span names emitted by the G-line networks. Instants: one
// spanGLPulse per line per cycle with assertions (the S-CSMA sample count
// as arg — arbitration visibility), one spanGLComplete when a context's
// barrier completes at the vertical master.
const (
	spanGLPulse    = "gl.pulse"
	spanGLComplete = "gl.complete"
)

// MuxMode selects how multiple barrier contexts share the chip's G-lines.
type MuxMode int

const (
	// MuxSpace gives every context its own physical set of G-lines
	// (2*(rows+1) lines each). Latency is the ideal 4 cycles per context.
	MuxSpace MuxMode = iota
	// MuxTime shares one physical set of G-lines between all contexts by
	// time-division: context i may drive/sample the wires only on cycles
	// where cycle mod N == i. Area stays constant; worst-case latency
	// scales with the number of contexts.
	MuxTime
)

// NetworkConfig configures a flat G-line barrier network.
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
}

// Network is the flat G-line barrier network of one CMP: the paper's
// architecture of Figure 1, extended with multiple contexts. It implements
// engine.Component: the simulator registers it, and it is stepped every
// cycle while a barrier makes progress and sleeps while it is idle or
// waiting for stragglers.
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

	// tl, when non-nil, records line pulses and barrier completions as
	// structured timeline events; probe additionally reports each context
	// completion (ctx id, cycle) to the latency-attribution collector.
	tl    *trace.Timeline
	probe func(ctx int, cycle uint64)
}

// context is one logical barrier: a full set of controllers plus (in
// MuxSpace) its own lines.
type context struct {
	id           int
	net          *Network
	regs         []tileRegs
	slavesH      []*slaveH
	mastersH     []*masterH
	slavesV      []*slaveV
	mv           *masterV
	lines        []*Line
	participants []bool
	nParts       int
	pending      int // cores arrived and not yet released
	slot, period int

	arrivals, episodes uint64
	lastEpisodeCycle   uint64
	nowCycle           uint64 // cycle of the step in progress (timeline hooks)

	// quiet records that the context's last step drove no line and
	// changed no controller state, and no input arrived since: further
	// steps are no-ops until one does.
	quiet bool

	// releasedBuf is per-context scratch reused across steps; it must not
	// be shared between networks, which may step on parallel goroutines.
	releasedBuf []int
}

// NewNetwork builds a flat G-line network. Every context initially includes
// all cores as participants; use SetParticipants to restrict a context.
// The mesh must fit the electrical limit: at most MaxTransmitters slaves
// per line (cols-1 and rows-1), i.e. up to 7x7 with the paper's limit of 6.
func NewNetwork(cfg NetworkConfig) (*Network, error) {
	if cfg.Cols <= 0 || cfg.Rows <= 0 {
		return nil, fmt.Errorf("gline: invalid mesh %dx%d", cfg.Cols, cfg.Rows)
	}
	if cfg.MaxTransmitters < 1 {
		return nil, fmt.Errorf("gline: MaxTransmitters must be >=1, got %d", cfg.MaxTransmitters)
	}
	if cfg.Cols-1 > cfg.MaxTransmitters || cfg.Rows-1 > cfg.MaxTransmitters {
		return nil, fmt.Errorf("gline: mesh %dx%d exceeds the %d-transmitter limit per line (max %dx%d); use a hierarchical network",
			cfg.Cols, cfg.Rows, cfg.MaxTransmitters, cfg.MaxTransmitters+1, cfg.MaxTransmitters+1)
	}
	if cfg.Contexts < 1 {
		return nil, fmt.Errorf("gline: Contexts must be >=1, got %d", cfg.Contexts)
	}
	n := &Network{cfg: cfg}
	var shared []*Line
	if cfg.Mux == MuxTime {
		shared = makeLines(cfg, -1)
	}
	for i := 0; i < cfg.Contexts; i++ {
		lines := shared
		if cfg.Mux == MuxSpace {
			lines = makeLines(cfg, i)
		}
		ctx := newContext(n, i, lines)
		if cfg.Mux == MuxTime {
			ctx.slot, ctx.period = i, cfg.Contexts
		}
		n.contexts = append(n.contexts, ctx)
	}
	return n, nil
}

// makeLines allocates the 2*(rows+1) lines of one physical network. ctx<0
// labels a time-shared set.
func makeLines(cfg NetworkConfig, ctxID int) []*Line {
	label := "shared"
	if ctxID >= 0 {
		label = fmt.Sprintf("ctx%d", ctxID)
	}
	lines := make([]*Line, 0, 2*(cfg.Rows+1))
	for r := 0; r < cfg.Rows; r++ {
		lines = append(lines,
			NewLine(fmt.Sprintf("%s-arrH%d", label, r), cfg.MaxTransmitters),
			NewLine(fmt.Sprintf("%s-relH%d", label, r), cfg.MaxTransmitters))
	}
	lines = append(lines,
		NewLine(label+"-arrV", cfg.MaxTransmitters),
		NewLine(label+"-relV", cfg.MaxTransmitters))
	return lines
}

func newContext(n *Network, id int, lines []*Line) *context {
	cfg := n.cfg
	ctx := &context{
		id:           id,
		net:          n,
		regs:         make([]tileRegs, cfg.Cols*cfg.Rows),
		lines:        lines,
		participants: make([]bool, cfg.Cols*cfg.Rows),
		period:       1,
	}
	for i := range ctx.participants {
		ctx.participants[i] = true
	}
	ctx.nParts = len(ctx.participants)
	arrV, relV := lines[2*cfg.Rows], lines[2*cfg.Rows+1]
	for r := 0; r < cfg.Rows; r++ {
		arrH, relH := lines[2*r], lines[2*r+1]
		masterTile := r * cfg.Cols
		mh := &masterH{tile: masterTile, arr: arrH, rel: relH, regs: &ctx.regs[masterTile], serial: cfg.SerialSignaling}
		ctx.mastersH = append(ctx.mastersH, mh)
		for c := 1; c < cfg.Cols; c++ {
			tile := r*cfg.Cols + c
			ctx.slavesH = append(ctx.slavesH, &slaveH{tile: tile, arr: arrH, rel: relH, regs: &ctx.regs[tile]})
		}
		if r == 0 {
			ctx.mv = &masterV{tile: masterTile, arr: arrV, rel: relV, regs: &ctx.regs[masterTile], mh: mh, serial: cfg.SerialSignaling}
			ctx.mv.episodeDone = ctx.onEpisode
		} else {
			ctx.slavesV = append(ctx.slavesV, &slaveV{tile: masterTile, arr: arrV, rel: relV, regs: &ctx.regs[masterTile], mh: mh})
		}
	}
	ctx.recomputeExpectations()
	return ctx
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
	ctx.nParts = len(cores)
	ctx.recomputeExpectations()
	return nil
}

// recomputeExpectations derives every controller's expected arrival counts
// from the participant mask.
func (c *context) recomputeExpectations() {
	cols := c.net.cfg.Cols
	rows := c.net.cfg.Rows
	vMax := 0
	for r := 0; r < rows; r++ {
		slaves := 0
		for col := 1; col < cols; col++ {
			if c.participants[r*cols+col] {
				slaves++
			}
		}
		mh := c.mastersH[r]
		mh.scntMax = slaves
		mh.mcntReq = c.participants[r*cols]
		rowActive := slaves > 0 || mh.mcntReq
		mh.enabled = rowActive
		if r == 0 {
			c.mv.row0Req = rowActive
		} else if rowActive {
			vMax++
		}
		// A row with no participants never raises its flag; its SlaveV
		// stays silent and must not be counted by MasterV.
		if r > 0 {
			c.slavesV[r-1].enabled = rowActive
		}
	}
	c.mv.scntMax = vMax
}

// Contexts returns the number of logical barrier contexts.
func (n *Network) Contexts() int { return len(n.contexts) }

// SetInjector installs a fault injector on every G-line of the network and
// switches the masters to tolerant counting (injected spurious assertions
// may over-count). Line ids are assigned deterministically from the
// network's own layout, so fault decisions never depend on how many other
// networks exist in the process.
func (n *Network) SetInjector(inj *fault.Injector) {
	n.setInjectorFrom(inj, 0)
}

// setInjectorFrom assigns line ids starting at base and returns the next
// free id; the hierarchical network uses it to give every cluster a
// disjoint id range.
func (n *Network) setInjectorFrom(inj *fault.Injector, base uint64) uint64 {
	n.armed = inj.GLActive()
	id := base
	seen := map[*Line]bool{}
	for _, c := range n.contexts {
		for _, l := range c.lines {
			if !seen[l] {
				seen[l] = true
				l.inj = inj
				l.id = id
				id++
			}
		}
		for _, m := range c.mastersH {
			m.tolerant = true
		}
		c.mv.tolerant = true
	}
	return id
}

// SetTimeline attaches a span timeline: line pulses and context completions
// are recorded on it. Track ids are assigned with the same deterministic
// traversal SetInjector uses, so a line keeps its track across runs.
func (n *Network) SetTimeline(tl *trace.Timeline) {
	n.setTimelineFrom(tl, 0)
}

// setTimelineFrom assigns line track ids starting at base and returns the
// next free id; the hierarchical network gives every cluster a disjoint
// range.
func (n *Network) setTimelineFrom(tl *trace.Timeline, base int) int {
	n.tl = tl
	id := base
	seen := map[*Line]bool{}
	for _, c := range n.contexts {
		for _, l := range c.lines {
			if !seen[l] {
				seen[l] = true
				l.tlID = id
				id++
			}
		}
	}
	return id
}

// SetEpisodeProbe installs a callback fired once per completed barrier
// episode with the context id and completion cycle (before release
// propagates). The latency-attribution collector uses it to pin the gather
// phase's end.
func (n *Network) SetEpisodeProbe(fn func(ctx int, cycle uint64)) {
	n.probe = fn
}

// ResetContext re-arms one context's controllers to their pristine state:
// all bar_regs cleared, counts zeroed, state machines back to their initial
// states. Participant masks and multiplexing slots survive. The recovery
// layer calls this on a wedged context before replaying arrivals.
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
	for i := range ctx.regs {
		ctx.regs[i] = tileRegs{}
	}
	for _, s := range ctx.slavesH {
		s.state = slaveSignaling
	}
	for _, m := range ctx.mastersH {
		m.state = masterAccounting
		m.scnt = 0
		m.backlog = 0
		m.mcnt = false
		m.relPend = false
		m.drove = false
	}
	for _, s := range ctx.slavesV {
		s.state = slaveSignaling
	}
	mv := ctx.mv
	mv.state = masterAccounting
	mv.scnt = 0
	mv.backlog = 0
	mv.relPend = false
	mv.drove = false
	// Lines are idle between ticks (tx drains every sample), but clear them
	// anyway so a reset mid-wedge can never carry a stale pulse over.
	for _, l := range ctx.lines {
		l.tx = 0
		l.sampled = 0
	}
	return nil
}

// GateRelease configures a context so that barrier completion does not
// immediately start the release phase; TriggerRelease must be called to
// release the waiting cores. Used by the hierarchical network's global
// layer.
func (n *Network) GateRelease(ctxID int, gated bool) error {
	ctx, err := n.ctx(ctxID)
	if err != nil {
		return err
	}
	ctx.mv.gated = gated
	return nil
}

// TriggerRelease starts the release phase of a gated context whose barrier
// has completed. It panics if the context is not waiting: triggering an
// incomplete barrier is a hardware-logic bug.
func (n *Network) TriggerRelease(ctxID int) {
	ctx, err := n.ctx(ctxID)
	if err != nil {
		panic(err.Error())
	}
	if ctx.mv.state != masterWaiting {
		panic(fmt.Sprintf("gline: TriggerRelease on context %d with no completed barrier", ctxID))
	}
	ctx.mv.relPend = true
	n.input(ctx)
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
	if core < 0 || core >= len(ctx.regs) {
		panic(fmt.Sprintf("gline: core %d out of range", core))
	}
	if !ctx.participants[core] {
		panic(fmt.Sprintf("gline: core %d is not a participant of context %d", core, ctxID))
	}
	if ctx.regs[core].barReg {
		panic(fmt.Sprintf("gline: core %d arrived twice at context %d", core, ctxID))
	}
	ctx.regs[core].barReg = true
	ctx.arrivals++
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
	return ctx.regs[core].barReg
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
	seen := map[*Line]bool{}
	for _, c := range n.contexts {
		for _, l := range c.lines {
			if !seen[l] {
				seen[l] = true
				t += l.Toggles()
			}
		}
	}
	return t
}

// ActiveCycles returns how many cycles the network was powered (a barrier
// in flight, whether stepped or asleep waiting for stragglers) — the
// controllers are switched off otherwise (paper §3.3).
func (n *Network) ActiveCycles() uint64 { return n.gate.active(n.wake.Now()) }

// SetWaker hands the network the engine handle its inputs (Arrive,
// TriggerRelease, ResetContext) wake it through.
func (n *Network) SetWaker(w engine.Waker) { n.wake = w }

// Busy reports whether any context has a barrier in flight.
func (n *Network) Busy() bool { return n.activeCtxs > 0 }

// Steps returns how many context steps the network has run: host work,
// which sleeping through quiescent cycles saves.
func (n *Network) Steps() uint64 { return n.steps }

// LineCount returns the total number of physical G-lines.
func (n *Network) LineCount() int {
	seen := map[*Line]bool{}
	cnt := 0
	for _, c := range n.contexts {
		for _, l := range c.lines {
			if !seen[l] {
				seen[l] = true
				cnt++
			}
		}
	}
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
	if c.mv.state != masterAccounting || c.mv.relPend || c.mv.backlog > 0 {
		return true
	}
	for _, m := range c.mastersH {
		if m.state != masterAccounting || m.relPend || m.backlog > 0 {
			return true
		}
	}
	return false
}

// step is one hardware cycle of one context: all controllers drive their
// lines, the lines latch (S-CSMA sampling), then all controllers observe.
// The sample order (masterV, slavesV, mastersH, slavesH) realizes the
// registered-flag semantics of the paper: a flag written by MasterH on
// cycle k is first visible to MasterV on cycle k+1.
//
// It reports whether the step was quiescent: no line driven and no master
// state changed. (A slave only changes state in a step that drives a line:
// its own arrival assert, or the release pulse it observes.) Without
// faults, a quiescent step is a fixed point — every further step is the
// same no-op until an input arrives.
func (c *context) step(cycle uint64) (quiescent bool) {
	c.nowCycle = cycle
	for _, s := range c.slavesH {
		s.assertPhase()
	}
	for _, m := range c.mastersH {
		m.assertPhase()
	}
	for _, s := range c.slavesV {
		s.assertPhase()
	}
	c.mv.assertPhase()

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

	released := c.releasedBuf[:0]
	collect := func(tile int) { released = append(released, tile) }
	changed := c.mv.samplePhase()
	for _, s := range c.slavesV {
		s.samplePhase()
	}
	for _, m := range c.mastersH {
		if m.samplePhase(collect) {
			changed = true
		}
	}
	for _, s := range c.slavesH {
		s.samplePhase(collect)
	}

	if len(released) > 0 {
		c.pending -= len(released)
		if c.pending < 0 {
			panic("gline: released more cores than arrived")
		}
		if c.pending == 0 {
			c.net.activeCtxs--
		}
		c.lastEpisodeCycle = cycle
		n := c.net
		if n.release != nil {
			for _, tile := range released {
				tile := tile
				if n.schedule != nil {
					n.schedule(1, func() { n.release(tile) })
				} else {
					n.release(tile)
				}
			}
		}
	}
	c.releasedBuf = released[:0]
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
