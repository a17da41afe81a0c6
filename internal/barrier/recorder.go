package barrier

import (
	"repro/internal/metrics"
)

// EpisodeRecorder turns software-barrier episodes into latency samples:
// per episode it observes the cycles from the last thread's arrival to the
// release (Latency) and from the first to the last arrival (Skew). Either
// histogram may be nil to skip that series. The recorder relies on the
// simulator's serialized program execution — barrier Wait calls never run
// concurrently — so it needs no locking.
type EpisodeRecorder struct {
	Latency *metrics.Histogram
	Skew    *metrics.Histogram

	arrived     int
	first, last uint64
}

// arrive notes one thread reaching the barrier at the given cycle.
func (r *EpisodeRecorder) arrive(now uint64) {
	if r == nil {
		return
	}
	if r.arrived == 0 {
		r.first = now
	}
	if now > r.last || r.arrived == 0 {
		r.last = now
	}
	r.arrived++
}

// complete closes the episode at the release cycle and resets for the next.
func (r *EpisodeRecorder) complete(now uint64) {
	if r == nil {
		return
	}
	if r.Latency != nil {
		r.Latency.Observe(now - r.last)
	}
	if r.Skew != nil {
		r.Skew.Observe(r.last - r.first)
	}
	r.arrived = 0
}

// Recordable is implemented by barriers that can report per-episode latency
// samples through an EpisodeRecorder.
type Recordable interface {
	SetRecorder(*EpisodeRecorder)
}

// SetRecorder attaches an episode recorder to the combining-tree barrier
// (CSW or DSW).
func (b *CombiningTree) SetRecorder(r *EpisodeRecorder) { b.rec = r }
