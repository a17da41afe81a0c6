// Package trace is the simulator's span timeline. Components record
// complete spans (begin/end cycle pairs) and instant events on
// per-component tracks; an attached Timeline keeps the most recent events
// in a fixed ring and renders them as a Chrome trace-event file (export.go)
// or a post-mortem tail.
//
// The cost contract mirrors the rest of the cycle path (DESIGN.md §10/§11):
//
//   - Disabled tracing is one branch: every emit method tolerates a nil
//     *Timeline receiver, so components hold a plain possibly-nil field and
//     call unconditionally. No interface, no boxing, no allocation.
//   - Enabled tracing is allocation-free: events are fixed-size values
//     written into a preallocated ring slot. Formatting happens only at
//     export/dump time.
//   - A Timeline is single-writer, like a metrics.Registry: one simulated
//     system owns it. Parallel sweep replicas each attach their own.
package trace

import (
	"fmt"
	"strconv"
)

// Track identifies one timeline row: a component class plus an index.
// Tracks are encoded in a uint32 (class in the top byte) so a SpanEvent
// stays a small flat value.
type Track uint32

// Track classes. The zero Track (class 0) is "untracked" and renders as
// "untracked" — emitting on it is legal but usually a wiring bug.
const (
	classNone uint32 = iota
	classCore
	classLine
	classBarrier
	classRouter
	classEngine
)

// routerPortStride spaces router track ids so every (node, port) pair gets
// its own track; it must exceed the NoC's port count.
const routerPortStride = 8

const trackIDMask = 1<<24 - 1

func makeTrack(class uint32, id int) Track {
	return Track(class<<24 | uint32(id)&trackIDMask)
}

// CoreTrack is the track of core/tile i (CPU op handshakes and coherence
// transactions of that tile).
//
//glvet:cyclepath
func CoreTrack(i int) Track { return makeTrack(classCore, i) }

// LineTrack is the track of the G-line with the given timeline id (assigned
// by the network's SetTimeline traversal, mirroring fault-injector ids).
//
//glvet:cyclepath
func LineTrack(id int) Track { return makeTrack(classLine, id) }

// BarrierTrack is the track of one barrier context: episodes, their phase
// spans and protocol-level instants.
//
//glvet:cyclepath
func BarrierTrack(ctx int) Track { return makeTrack(classBarrier, ctx) }

// RouterTrack is the track of one NoC router output port: per-port flit
// occupancy spans.
//
//glvet:cyclepath
func RouterTrack(node, port int) Track {
	return makeTrack(classRouter, node*routerPortStride+port)
}

// EngineTrack is the single track of the event engine (fast-forward jumps).
//
//glvet:cyclepath
func EngineTrack() Track { return makeTrack(classEngine, 0) }

func (t Track) class() uint32 { return uint32(t) >> 24 }
func (t Track) id() int       { return int(uint32(t) & trackIDMask) }

// String renders the track name. Names follow the metric-name hygiene
// ^[a-z][a-z0-9._]*$ so they grep and export cleanly.
func (t Track) String() string {
	switch t.class() {
	case classCore:
		return "core." + strconv.Itoa(t.id())
	case classLine:
		return "gline." + strconv.Itoa(t.id())
	case classBarrier:
		return "barrier.ctx" + strconv.Itoa(t.id())
	case classRouter:
		return "router." + strconv.Itoa(t.id()/routerPortStride) + ".p" + strconv.Itoa(t.id()%routerPortStride)
	case classEngine:
		return "engine"
	}
	return "untracked"
}

// SpanEvent is one recorded timeline entry: a complete span when End>Start,
// an instant when End==Start. Name must be a package-level constant at the
// emit site (the spanname glvet rule), so the ring retains only static
// strings and the emit path never formats or allocates.
type SpanEvent struct {
	Start   uint64
	End     uint64
	Track   Track
	Name    string
	Episode uint64 // barrier episode ordinal, 0 when not episode-scoped
	Arg     uint64 // event-specific payload (flit count, core id, ...)
}

// Instant reports whether the event is an instant rather than a span.
func (e SpanEvent) Instant() bool { return e.End == e.Start }

// String renders the event as one post-mortem dump line.
func (e SpanEvent) String() string {
	if e.Instant() {
		return fmt.Sprintf("%10d %-14s %-22s ep=%d arg=%d", e.Start, e.Track, e.Name, e.Episode, e.Arg)
	}
	return fmt.Sprintf("%10d %-14s %-22s +%d ep=%d arg=%d", e.Start, e.Track, e.Name, e.End-e.Start, e.Episode, e.Arg)
}

// Timeline is a fixed-capacity ring of SpanEvents. All emit methods accept
// a nil receiver as the disabled state; accessors (Events, Tail, Len) are
// cold-path only.
type Timeline struct {
	events []SpanEvent
	next   int
	filled bool
	total  uint64
}

// NewTimeline builds a timeline holding up to capacity events; capacity<=0
// selects a default large enough for a small run's full history.
func NewTimeline(capacity int) *Timeline {
	if capacity <= 0 {
		capacity = 1 << 16
	}
	return &Timeline{events: make([]SpanEvent, capacity)}
}

// Span records a complete span. One branch when t is nil; allocation-free
// when enabled.
//
//glvet:cyclepath
func (t *Timeline) Span(track Track, name string, start, end, episode, arg uint64) {
	if t == nil {
		return
	}
	e := &t.events[t.next]
	e.Start = start
	e.End = end
	e.Track = track
	e.Name = name
	e.Episode = episode
	e.Arg = arg
	t.total++
	t.next++
	if t.next == len(t.events) {
		t.next = 0
		t.filled = true
	}
}

// Instant records a zero-duration event.
//
//glvet:cyclepath
func (t *Timeline) Instant(track Track, name string, cycle, episode, arg uint64) {
	t.Span(track, name, cycle, cycle, episode, arg)
}

// Len reports how many events are currently held.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	if t.filled {
		return len(t.events)
	}
	return t.next
}

// Total reports how many events were ever emitted (held + overwritten).
func (t *Timeline) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Dropped reports how many events the ring has overwritten.
func (t *Timeline) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.total - uint64(t.Len())
}

// Events returns the held events, oldest first.
func (t *Timeline) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	out := make([]SpanEvent, 0, t.Len())
	if t.filled {
		out = append(out, t.events[t.next:]...)
	}
	out = append(out, t.events[:t.next]...)
	return out
}

// Tail returns the most recent n events, oldest first — the post-mortem
// slice the hang watchdog dumps.
func (t *Timeline) Tail(n int) []SpanEvent {
	evs := t.Events()
	if len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}
