package trace

import (
	"regexp"
	"testing"
)

func TestTimelineWraparound(t *testing.T) {
	tl := NewTimeline(4)
	for i := uint64(1); i <= 6; i++ {
		tl.Instant(CoreTrack(0), "test.ev", i*10, i, i)
	}
	if got := tl.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	if got := tl.Total(); got != 6 {
		t.Fatalf("Total = %d, want 6", got)
	}
	if got := tl.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d, want 2", got)
	}
	evs := tl.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d, want 4", len(evs))
	}
	// Oldest first: events 3..6 survive.
	for i, e := range evs {
		want := uint64(i+3) * 10
		if e.Start != want {
			t.Errorf("event %d: Start = %d, want %d", i, e.Start, want)
		}
	}
}

func TestTimelinePartialAndTail(t *testing.T) {
	tl := NewTimeline(8)
	for i := uint64(0); i < 5; i++ {
		tl.Instant(CoreTrack(1), "test.ev", i, 0, 0)
	}
	if got := tl.Len(); got != 5 {
		t.Fatalf("Len = %d, want 5", got)
	}
	if got := tl.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	tail := tl.Tail(2)
	if len(tail) != 2 || tail[0].Start != 3 || tail[1].Start != 4 {
		t.Fatalf("Tail(2) = %v, want starts 3,4", tail)
	}
	if got := tl.Tail(100); len(got) != 5 {
		t.Fatalf("Tail(100) len = %d, want 5", len(got))
	}
}

// TestTimelineSpanFields checks a complete span keeps every field it was
// emitted with.
func TestTimelineSpanFields(t *testing.T) {
	tl := NewTimeline(8)
	tl.Span(RouterTrack(2, 3), "test.span", 100, 140, 7, 9)
	evs := tl.Events()
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	want := SpanEvent{Start: 100, End: 140, Track: RouterTrack(2, 3), Name: "test.span", Episode: 7, Arg: 9}
	if e := evs[0]; e != want {
		t.Fatalf("recorded span = %+v, want %+v", e, want)
	}
	if evs[0].Instant() {
		t.Fatal("span misclassified as instant")
	}
}

func TestNilTimelineIsSafe(t *testing.T) {
	var tl *Timeline
	tl.Span(CoreTrack(0), "test.span", 1, 2, 0, 0)
	tl.Instant(CoreTrack(0), "test.ev", 1, 0, 0)
	if tl.Len() != 0 || tl.Total() != 0 || tl.Dropped() != 0 {
		t.Fatal("nil timeline reports nonzero counts")
	}
	if evs := tl.Events(); evs != nil {
		t.Fatalf("nil timeline Events = %v", evs)
	}
	if tail := tl.Tail(4); len(tail) != 0 {
		t.Fatalf("nil timeline Tail = %v", tail)
	}
}

// trackNameRE is the hygiene shape every track name must render in — the
// same vocabulary the spanname rule enforces for span names.
var trackNameRE = regexp.MustCompile(`^[a-z][a-z0-9._]*$`)

func TestTrackString(t *testing.T) {
	cases := []struct {
		tr   Track
		want string
	}{
		{CoreTrack(3), "core.3"},
		{LineTrack(2), "gline.2"},
		{BarrierTrack(0), "barrier.ctx0"},
		{RouterTrack(3, 2), "router.3.p2"},
		{EngineTrack(), "engine"},
		{Track(0), "untracked"},
	}
	for _, c := range cases {
		if got := c.tr.String(); got != c.want {
			t.Errorf("Track %#x String = %q, want %q", uint32(c.tr), got, c.want)
		}
		if !trackNameRE.MatchString(c.tr.String()) {
			t.Errorf("track name %q breaks hygiene %s", c.tr, trackNameRE)
		}
	}
}

func TestSpanEventString(t *testing.T) {
	in := SpanEvent{Start: 5, End: 5, Track: CoreTrack(1), Name: "test.ev", Episode: 2, Arg: 3}
	if s := in.String(); !regexp.MustCompile(`test\.ev\s+ep=2 arg=3`).MatchString(s) {
		t.Errorf("instant String = %q", s)
	}
	sp := SpanEvent{Start: 5, End: 9, Track: CoreTrack(1), Name: "test.span"}
	if s := sp.String(); !regexp.MustCompile(`test\.span\s+\+4 ep=0 arg=0`).MatchString(s) {
		t.Errorf("span String = %q", s)
	}
}

// TestZeroAllocSpanDisabled pins the disabled-tracing cost contract: a nil
// timeline's emit path allocates nothing (it is one branch).
func TestZeroAllocSpanDisabled(t *testing.T) {
	var tl *Timeline
	track := CoreTrack(5)
	if n := testing.AllocsPerRun(1000, func() {
		tl.Span(track, "test.span", 10, 20, 1, 2)
		tl.Instant(track, "test.ev", 10, 1, 2)
	}); n != 0 {
		t.Fatalf("disabled emit allocates %v per run, want 0", n)
	}
}

// TestZeroAllocSpanEnabled pins the enabled-tracing cost contract: writing
// into the preallocated ring allocates nothing either.
func TestZeroAllocSpanEnabled(t *testing.T) {
	tl := NewTimeline(64)
	track := RouterTrack(1, 2)
	if n := testing.AllocsPerRun(1000, func() {
		tl.Span(track, "test.span", 10, 20, 1, 2)
		tl.Instant(track, "test.ev", 10, 1, 2)
	}); n != 0 {
		t.Fatalf("enabled emit allocates %v per run, want 0", n)
	}
}
