// Package core implements the paper's contribution: a dedicated barrier
// network built from G-lines (global 1-bit wires that broadcast across one
// chip dimension in a single cycle) and the S-CSMA technique (the receiver
// of a line learns how many transmitters asserted it in the same cycle).
//
// The network is a tree of groups. A group is one arrival/release line
// pair with the two automata of the paper's Figure 4: a master on member 0
// and a slave on every other member. Members are tiles at the bottom level
// and lower groups above it.
//
//   - Slave: asserts the arrival line once its member has arrived (a
//     core's bar_reg write, or a lower group's completion flag); on the
//     release line's pulse it releases its member.
//   - Master: counts arrival signals with S-CSMA into Scnt and tracks its
//     own member (Mcnt at the bottom level). When every participating
//     member has arrived it raises its completion flag for the level
//     above, or, at the root, completes the barrier. On release it pulses
//     the release line and resets.
//
// A mesh within the transmitter limit (up to 7x7 with the paper's 6
// transmitters per line) is the paper's flat network: one group per row
// (MasterH/SlaveH) joined by one group over the rows (MasterV/SlaveV), so
// 2*(R+1) lines per barrier context. With simultaneous arrivals the dance
// takes exactly 4 cycles: horizontal gather, vertical gather, vertical
// release, horizontal release — the paper's ideal barrier latency.
//
// Beyond the paper's evaluated design, the package implements the features
// its future-work section sketches: multiple barrier contexts with
// time-division multiplexing of the wires, participant masks, per-toggle
// energy accounting, and cluster levels for meshes past the 7x7 electrical
// limit, each costing 2 more cycles.
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

// group is one S-CSMA line pair with its controllers: a master on member 0
// and a slave on every other member. Members are tiles at the bottom level
// (a row) and lower groups above it (the rows of a column, or the clusters
// of a larger region).
type group struct {
	arr, rel *Line
	tiles    []int    // bottom level: member core ids, master's first
	kids     []*group // upper levels: member groups, master's first
	own      *bool    // member 0's arrival bit (see slave.in)
	slaves   []slave  // slaves[i] is the slave on member i+1

	// The master's state.
	state   masterState
	scnt    int
	scntMax int  // participating members other than member 0
	ownReq  bool // member 0 participates
	mcnt    bool // bottom level: member 0's core arrival, latched
	backlog int  // serial signaling: arrivals queued at the receiver
	relPend bool // release requested by the level above
	drove   bool // asserted the release line this cycle
	enabled bool // some member participates
	// flag is the group's registered completion flag: the level above
	// sees it from the next cycle on.
	flag bool
}

// slave is the slave automaton on one member of a group.
type slave struct {
	// in is the member's arrival bit: its core's bar_reg at the bottom
	// level, its group's completion flag above.
	in    *bool
	state slaveState
}

// sampleMaster runs the master on the cycle's samples and reports whether
// its state changed. The root's completion is the barrier's: it requests
// its own release at once.
func (c *context) sampleMaster(g *group) (changed bool) {
	if !g.enabled {
		return false
	}
	switch g.state {
	case masterAccounting:
		n := g.arr.Count()
		if c.net.cfg.SerialSignaling {
			g.backlog += n
			if g.backlog > 0 {
				g.scnt++
				g.backlog--
				changed = true
			}
		} else if n != 0 {
			g.scnt += n
			changed = true
		}
		if g.scnt > g.scntMax {
			// With a fault injector wired, spurious assertions make an
			// over-count a modeled hardware fault, not a simulator bug.
			if !c.net.tolerant {
				panic(fmt.Sprintf("gline barrier: master of %s counted %d arrivals, expected at most %d", g.arr.name, g.scnt, g.scntMax))
			}
			g.scnt = g.scntMax
		}
		own := *g.own
		if g.kids == nil {
			if own && !g.mcnt {
				g.mcnt = true
				changed = true
			}
			own = g.mcnt
		}
		if g.scnt == g.scntMax && (own || !g.ownReq) {
			g.state = masterWaiting
			changed = true
			if g == c.mv {
				g.relPend = true
				c.onEpisode()
			} else {
				g.flag = true
			}
		}
	case masterWaiting:
		if !g.drove {
			return false
		}
		// The release pulse was driven this cycle; reset for the next
		// episode and release the master's own member.
		g.drove = false
		g.relPend = false
		g.scnt = 0
		g.mcnt = false
		g.state = masterAccounting
		changed = true
		c.releaseMember(g, 0)
	}
	return changed
}

// releaseMember passes a release to member i: a waiting core's bar_reg is
// cleared and the core released; a lower group's flag is cleared and its
// master pulses its own release line next cycle.
func (c *context) releaseMember(g *group, i int) {
	if g.kids == nil {
		if t := g.tiles[i]; c.barReg[t] {
			c.barReg[t] = false
			c.released = append(c.released, t)
		}
		return
	}
	k := g.kids[i]
	k.flag = false
	if k.enabled {
		k.relPend = true
	}
}
