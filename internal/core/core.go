// Package core implements the paper's contribution: a dedicated barrier
// network built from G-lines (global 1-bit wires that broadcast across one
// chip dimension in a single cycle) and the S-CSMA technique (the receiver
// of a line learns how many transmitters asserted it in the same cycle).
//
// A barrier context for a C x R mesh uses 2 G-lines per row (arrival +
// release) plus 2 for the first column: 2*(R+1) lines. Four controller
// kinds implement the protocol of the paper's Figure 4:
//
//   - SlaveH  (tiles with col>0): asserts its row's arrival line when the
//     local core writes bar_reg; waits for the row's release line.
//   - MasterH (tiles with col==0): counts arrival signals with S-CSMA into
//     Scnt, tracks its own core's arrival in Mcnt, and raises its flag when
//     the whole row has arrived; on release it pulses the row's release
//     line and resets everything.
//   - SlaveV  (tiles with col==0, row>0): relays its row's completion onto
//     the vertical arrival line; clears its MasterH's flag when the
//     vertical release line pulses.
//   - MasterV (tile 0): counts vertical arrivals; when every row (and its
//     own row, via MasterH's flag) has arrived, the barrier is complete and
//     it pulses the vertical release line.
//
// With simultaneous arrivals the dance takes exactly 4 cycles: horizontal
// gather, vertical gather, vertical release, horizontal release — the
// paper's ideal barrier latency.
//
// Beyond the paper's evaluated design, the package implements the features
// its future-work section sketches: multiple barrier contexts with
// time-division multiplexing of the wires, participant masks, per-toggle
// energy accounting, and (in hierarchy.go) clustered G-line networks that
// scale past the 7x7 electrical limit.
package core

import (
	"fmt"

	"repro/internal/fault"
)

// Line is one G-line: a shared wire broadcasting one bit across a chip
// dimension per cycle. S-CSMA lets the single receiver count simultaneous
// transmitters, up to the electrical limit maxTx.
type Line struct {
	name    string
	maxTx   int
	tx      int    // assertions during the current cycle
	sampled int    // count observed by the receiver at end of cycle
	toggles uint64 // total assertions ever, for the energy model

	// id and inj are set by SetInjector: the fault injector perturbs the
	// S-CSMA sample of line id. inj stays nil in fault-free systems, so the
	// hot path pays one nil check.
	id  uint64
	inj *fault.Injector

	// tlID is the line's timeline-track id, assigned by SetTimeline with
	// the same deterministic traversal SetInjector uses for fault ids.
	tlID int
}

// NewLine builds a G-line supporting up to maxTx transmitters.
func NewLine(name string, maxTx int) *Line {
	return &Line{name: name, maxTx: maxTx}
}

// Assert drives the line for the current cycle. Driving a line beyond its
// electrical transmitter limit is a hardware-configuration bug, so it
// panics rather than mis-counting.
func (l *Line) Assert() {
	l.tx++
	l.toggles++
	if l.tx > l.maxTx {
		panic(fmt.Sprintf("gline %s: %d simultaneous transmitters exceeds the S-CSMA limit %d", l.name, l.tx, l.maxTx))
	}
}

// sample latches the cycle's transmitter count for the receiver and clears
// the wire for the next cycle. An installed fault injector may perturb the
// observed count (drops, spurious assertions, miscounts, stuck-at). It
// returns how many transmitters actually asserted the line.
func (l *Line) sample(cycle uint64) (asserted int) {
	n := l.tx
	l.tx = 0
	if l.inj.GLActive() {
		l.sampled = l.inj.SampleLine(l.id, cycle, n)
		return n
	}
	l.sampled = n
	return n
}

// Count returns the S-CSMA count the receiver observed for the last
// sampled cycle.
func (l *Line) Count() int { return l.sampled }

// Toggles returns the total number of assertions, for energy accounting.
func (l *Line) Toggles() uint64 { return l.toggles }

// slaveState / masterState mirror the two states of each automaton in the
// paper's Figure 4.
type slaveState int

const (
	slaveSignaling slaveState = iota
	slaveWaiting
)

type masterState int

const (
	masterAccounting masterState = iota
	masterWaiting
)

// tileRegs are the per-tile architectural registers the controllers and the
// core share: bar_reg (written by the core, reset by the hardware) and the
// MasterH flag.
type tileRegs struct {
	barReg bool
	flagH  bool
}

// slaveH is the horizontal slave controller of one tile (col>0).
type slaveH struct {
	tile     int
	arr, rel *Line // arrival (tx) and release (rx) lines of the row
	regs     *tileRegs
	state    slaveState
}

func (s *slaveH) assertPhase() {
	if s.state == slaveSignaling && s.regs.barReg {
		s.arr.Assert()
	}
}

func (s *slaveH) samplePhase(release func(tile int)) {
	switch s.state {
	case slaveSignaling:
		if s.regs.barReg {
			s.state = slaveWaiting
		}
	case slaveWaiting:
		if s.rel.Count() > 0 {
			s.regs.barReg = false
			s.state = slaveSignaling
			release(s.tile)
		}
	}
}

// masterH is the horizontal master controller of a row (col==0 tile).
type masterH struct {
	tile     int
	arr, rel *Line
	regs     *tileRegs
	state    masterState
	scnt     int
	scntMax  int // number of participating slaves in the row
	// serial disables S-CSMA counting: the receiver registers at most one
	// arrival per cycle, queueing simultaneous signals (the ablation of
	// the paper's key technique).
	serial  bool
	backlog int
	mcnt    bool
	mcntReq bool // whether this tile's own core participates
	relPend bool // release requested by the vertical layer
	drove   bool // asserted the release line this cycle
	enabled bool // row has at least one participant
	// tolerant clamps over-counts instead of panicking: with a fault
	// injector wired, spurious assertions make scnt>scntMax a modeled
	// hardware fault rather than a simulator bug.
	tolerant bool
}

func (m *masterH) assertPhase() {
	if m.state == masterWaiting && m.relPend {
		m.rel.Assert()
		m.drove = true
	}
}

// samplePhase observes the cycle's samples and reports whether the
// controller's state changed.
func (m *masterH) samplePhase(release func(tile int)) (changed bool) {
	if !m.enabled {
		return false
	}
	switch m.state {
	case masterAccounting:
		n := m.arr.Count()
		if m.serial {
			m.backlog += n
			if m.backlog > 0 {
				m.scnt++
				m.backlog--
				changed = true
			}
		} else if n != 0 {
			m.scnt += n
			changed = true
		}
		if m.scnt > m.scntMax {
			if !m.tolerant {
				panic(fmt.Sprintf("gline barrier: row master %d counted %d arrivals, expected at most %d", m.tile, m.scnt, m.scntMax))
			}
			m.scnt = m.scntMax
		}
		if m.regs.barReg && !m.mcnt {
			m.mcnt = true
			changed = true
		}
		if m.scnt == m.scntMax && (m.mcnt || !m.mcntReq) {
			m.regs.flagH = true
			m.state = masterWaiting
			changed = true
		}
	case masterWaiting:
		if m.drove {
			// The release pulse was driven this cycle; reset for the
			// next barrier episode and release the local core.
			m.drove = false
			m.relPend = false
			m.scnt = 0
			m.mcnt = false
			m.state = masterAccounting
			changed = true
			if m.regs.barReg {
				m.regs.barReg = false
				release(m.tile)
			}
		}
	}
	return changed
}

// slaveV is the vertical slave controller at a row's col==0 tile (row>0).
type slaveV struct {
	tile     int
	arr, rel *Line // vertical arrival (tx) and release (rx)
	regs     *tileRegs
	mh       *masterH
	state    slaveState
	enabled  bool // row has at least one participant
}

func (s *slaveV) assertPhase() {
	if s.enabled && s.state == slaveSignaling && s.regs.flagH {
		s.arr.Assert()
	}
}

func (s *slaveV) samplePhase() {
	if !s.enabled {
		return
	}
	switch s.state {
	case slaveSignaling:
		if s.regs.flagH {
			s.state = slaveWaiting
		}
	case slaveWaiting:
		if s.rel.Count() > 0 {
			s.regs.flagH = false
			s.mh.relPend = true
			s.state = slaveSignaling
		}
	}
}

// masterV is the vertical master controller at tile 0.
type masterV struct {
	tile     int
	arr, rel *Line
	regs     *tileRegs
	mh       *masterH
	state    masterState
	scnt     int
	serial   bool
	backlog  int
	scntMax  int  // participating rows other than row 0
	row0Req  bool // whether row 0 participates (via MasterH's flag)
	relPend  bool
	drove    bool
	tolerant bool // clamp over-counts under fault injection (see masterH)
	// gated defers the release phase: on completion the barrier is
	// reported via episodeDone but the vertical release pulse waits for
	// an external trigger (the hierarchical network's global layer).
	gated bool
	// episodeDone fires once per completed barrier, before release.
	episodeDone func()
}

func (m *masterV) assertPhase() {
	if m.state == masterWaiting && m.relPend {
		m.rel.Assert()
		m.drove = true
	}
}

// samplePhase observes the cycle's samples and reports whether the
// controller's state changed.
func (m *masterV) samplePhase() (changed bool) {
	switch m.state {
	case masterAccounting:
		n := m.arr.Count()
		if m.serial {
			m.backlog += n
			if m.backlog > 0 {
				m.scnt++
				m.backlog--
				changed = true
			}
		} else if n != 0 {
			m.scnt += n
			changed = true
		}
		if m.scnt > m.scntMax {
			if !m.tolerant {
				panic(fmt.Sprintf("gline barrier: vertical master counted %d arrivals, expected at most %d", m.scnt, m.scntMax))
			}
			m.scnt = m.scntMax
		}
		if m.scnt == m.scntMax && (m.regs.flagH || !m.row0Req) {
			m.state = masterWaiting
			if !m.gated {
				m.relPend = true
			}
			if m.episodeDone != nil {
				m.episodeDone()
			}
			changed = true
		}
	case masterWaiting:
		if !m.drove {
			return false
		}
		// The release pulse was driven this cycle; reset. Row 0's
		// MasterH is released the same way SlaveV releases the others.
		m.drove = false
		m.relPend = false
		m.scnt = 0
		m.regs.flagH = false
		if m.mh.enabled {
			m.mh.relPend = true
		}
		m.state = masterAccounting
		changed = true
	}
	return changed
}
