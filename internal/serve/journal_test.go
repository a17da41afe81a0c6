package serve

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestJournalRoundTrip: records survive a close/reopen cycle, terminal
// jobs are compacted away, and the id high-water mark is recovered.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, pending, maxID, torn, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 || maxID != 0 || torn != 0 {
		t.Fatalf("fresh journal: pending=%v maxID=%d torn=%d", pending, maxID, torn)
	}
	must := func(rec journalRecord) {
		t.Helper()
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	must(journalRecord{T: journalSubmitted, ID: "j1", Spec: "spec-one"})
	must(journalRecord{T: journalStarted, ID: "j1"})
	must(journalRecord{T: journalTerminal, ID: "j1", State: StateDone})
	must(journalRecord{T: journalSubmitted, ID: "j2", Spec: "spec-two"})
	must(journalRecord{T: journalSubmitted, ID: "j7", Spec: "spec-seven"})
	if j.Records() != 5 {
		t.Fatalf("records = %d, want 5", j.Records())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalRecord{T: journalStarted, ID: "j2"}); err == nil {
		t.Fatal("append after close succeeded")
	}

	j2, pending, maxID, torn, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if torn != 0 {
		t.Fatalf("torn = %d, want 0", torn)
	}
	if maxID != 7 {
		t.Fatalf("maxID = %d, want 7", maxID)
	}
	want := []PendingJob{{ID: "j2", Spec: "spec-two"}, {ID: "j7", Spec: "spec-seven"}}
	if len(pending) != len(want) {
		t.Fatalf("pending = %+v, want %+v", pending, want)
	}
	for i := range want {
		if pending[i] != want[i] {
			t.Fatalf("pending[%d] = %+v, want %+v", i, pending[i], want[i])
		}
	}
	// Compaction dropped the terminal job: the file holds the id mark plus
	// the two pending submissions.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != 3 {
		t.Fatalf("compacted journal has %d lines, want 3:\n%s", lines, raw)
	}
}

// TestJournalTornTail: a crash mid-append leaves a partial line; open
// tolerates it, reports it, and compaction scrubs it.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, _, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalRecord{T: journalSubmitted, ID: "j1", Spec: "spec-one"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	// Simulate the torn tail: half a frame, no newline discipline.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("deadbeef {\"t\":\"submi")
	f.Close()

	j2, pending, _, torn, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if torn != 1 {
		t.Fatalf("torn = %d, want 1", torn)
	}
	if len(pending) != 1 || pending[0].ID != "j1" {
		t.Fatalf("pending = %+v", pending)
	}
	// The compacted file is clean: reopening reports no torn lines.
	j3, _, _, torn, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j3.Close()
	if torn != 0 {
		t.Fatalf("torn after compaction = %d, want 0", torn)
	}
}

// TestJournalCorruptLineStopsTrust: a bit-flipped line in the middle
// invalidates everything after it — later records may be framing debris.
func TestJournalCorruptLineStopsTrust(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, _, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(journalRecord{T: journalSubmitted, ID: "j1", Spec: "spec-one"})
	j.Append(journalRecord{T: journalSubmitted, ID: "j2", Spec: "spec-two"})
	j.Append(journalRecord{T: journalTerminal, ID: "j1", State: StateDone})
	j.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the second line's JSON.
	lines := strings.SplitAfter(string(raw), "\n")
	lines[1] = strings.Replace(lines[1], "spec-two", "spec-tw0", 1)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, pending, _, torn, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	// Lines 2 and 3 are both dropped: j1 never saw its terminal record, so
	// it is (conservatively) pending again — re-execution is safe.
	if torn != 2 {
		t.Fatalf("torn = %d, want 2", torn)
	}
	if len(pending) != 1 || pending[0].ID != "j1" {
		t.Fatalf("pending = %+v, want j1 only", pending)
	}
}

// TestJournalTailWithoutRecord: a valid record followed by bytes that
// end in no complete line — 5 MiB of garbage past the line cap, or a whole
// record missing its newline — replays the record, counts the tail as one
// torn line, and compacts it away.
func TestJournalTailWithoutRecord(t *testing.T) {
	whole, err := journalLine(journalRecord{T: journalSubmitted, ID: "j2", Spec: "spec-two"})
	if err != nil {
		t.Fatal(err)
	}
	for name, tail := range map[string]string{
		"oversized":    strings.Repeat("x", 5<<20),
		"unterminated": strings.TrimSuffix(whole, "\n"),
	} {
		path := filepath.Join(t.TempDir(), "journal.wal")
		j, _, _, _, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Append(journalRecord{T: journalSubmitted, ID: "j1", Spec: "spec-one"}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(tail)
		f.Close()

		j2, pending, _, torn, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		j2.Close()
		if torn != 1 || len(pending) != 1 || pending[0] != (PendingJob{ID: "j1", Spec: "spec-one"}) {
			t.Fatalf("%s: pending=%+v torn=%d, want j1 and 1 torn line", name, pending, torn)
		}
		j3, _, _, torn, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		j3.Close()
		if torn != 0 {
			t.Fatalf("%s: torn after compaction = %d, want 0", name, torn)
		}
	}
}

// FuzzJournal feeds scanJournal the records ops encodes followed by
// arbitrary tail bytes, with long set to append 5 MiB of garbage (past
// maxJournalLine). No input may panic; every pending job must be a
// submitted record that parses; and when the tail holds no
// newline-terminated valid record, the pending jobs are exactly those the
// records leave, and a non-empty tail counts as torn.
func FuzzJournal(f *testing.F) {
	rec, err := journalLine(journalRecord{T: journalSubmitted, ID: "j9", Spec: "bench=SYNTH"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{0}, []byte(nil), true)
	f.Add([]byte{0, 1, 6, 2, 4}, []byte(`deadbeef {"t":"submi`), false)
	f.Add([]byte{0}, []byte(strings.TrimSuffix(rec, "\n")), false)
	f.Add([]byte{0, 2}, []byte("garbage\n"+rec), false)
	f.Add([]byte{0}, []byte(rec), false)
	f.Fuzz(func(t *testing.T, ops, tail []byte, long bool) {
		if long {
			tail = append(tail, bytes.Repeat([]byte("x"), 5<<20)...)
		}
		var data []byte
		var order []PendingJob
		seen, terminal := map[string]bool{}, map[string]bool{}
		for _, op := range ops {
			rec := journalRecord{ID: fmt.Sprintf("j%d", op>>2&7)}
			switch op & 3 {
			case 0:
				rec.T, rec.Spec = journalSubmitted, fmt.Sprintf("seed=%d", op>>5)
				if !seen[rec.ID] {
					seen[rec.ID] = true
					order = append(order, PendingJob{ID: rec.ID, Spec: rec.Spec})
				}
			case 1:
				rec.T = journalStarted
			case 2:
				rec.T, rec.State = journalTerminal, StateDone
				terminal[rec.ID] = terminal[rec.ID] || seen[rec.ID]
			case 3:
				rec.T = journalMark
			}
			line, err := journalLine(rec)
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, line...)
		}
		data = append(data, tail...)
		pending, _, torn, err := scanJournal(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("scan: %v", err)
		}

		submitted := map[PendingJob]bool{}
		for _, line := range strings.Split(string(data), "\n") {
			if rec, ok := parseJournalLine(line); ok && rec.T == journalSubmitted {
				submitted[PendingJob{ID: rec.ID, Spec: rec.Spec}] = true
			}
		}
		for _, p := range pending {
			if !submitted[p] {
				t.Fatalf("pending %+v was never submitted", p)
			}
		}

		lines := strings.Split(string(tail), "\n")
		for _, line := range lines[:len(lines)-1] {
			if _, ok := parseJournalLine(line); ok {
				return // a valid record in the tail may replay
			}
		}
		var want []PendingJob
		for _, p := range order {
			if !terminal[p.ID] {
				want = append(want, p)
			}
		}
		if !slices.Equal(pending, want) {
			t.Fatalf("pending %+v, want %+v", pending, want)
		}
		if len(tail) > 0 && torn == 0 {
			t.Fatalf("a %d-byte tail without a record counted no torn line", len(tail))
		}
	})
}

// TestServerJournalReplay: an abandoned server's unfinished jobs replay on
// the next server with ids preserved, the id sequence continues past them,
// and completed jobs stay completed.
func TestServerJournalReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "journal.wal")

	// Server A: one job finishes, one is still running when the "crash"
	// happens (we simply abandon A without draining).
	runnerA := newBlockingRunner(t)
	a := NewServer(Options{ConcurrentJobs: 2, CellWorkers: 1, Runner: runnerA.run})
	if _, err := a.AttachJournal(path); err != nil {
		t.Fatal(err)
	}
	j1, err := a.Submit("bench=SYNTH barrier=GL cores=8 tier=test")
	if err != nil {
		t.Fatal(err)
	}
	j2, err := a.Submit("bench=SYNTH barrier=CSW cores=8 tier=test")
	if err != nil {
		t.Fatal(err)
	}
	<-runnerA.started
	<-runnerA.started
	close(runnerA.release)
	waitTerminal(t, a, j1.id)
	waitTerminal(t, a, j2.id)

	// Both terminal: replay finds nothing pending.
	b := NewServer(Options{ConcurrentJobs: 1, CellWorkers: 1})
	replayed, err := b.AttachJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 0 {
		t.Fatalf("replayed = %d, want 0 (all jobs terminal)", replayed)
	}

	// Submit to B, then abandon it mid-run: C must replay exactly that job
	// with its id preserved and its result byte-identical to a clean run.
	runnerB := newBlockingRunner(t)
	b2 := NewServer(Options{ConcurrentJobs: 1, CellWorkers: 1, Runner: runnerB.run})
	if _, err := b2.AttachJournal(path); err != nil {
		t.Fatal(err)
	}
	jb, err := b2.Submit("bench=SYNTH barrier=GL cores=16 tier=test")
	if err != nil {
		t.Fatal(err)
	}
	if jb.id != "j3" {
		t.Fatalf("id after replayed high-water mark = %s, want j3", jb.id)
	}
	<-runnerB.started // the job is started (and journaled as such), now "crash"

	c := NewServer(Options{ConcurrentJobs: 1, CellWorkers: 1})
	replayed, err = c.AttachJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 1 {
		t.Fatalf("replayed = %d, want 1", replayed)
	}
	jc, ok := c.Job("j3")
	if !ok {
		t.Fatal("replayed job j3 missing")
	}
	st := waitTerminal(t, c, "j3")
	if st.State != StateDone {
		t.Fatalf("replayed job: %+v", st)
	}
	if st.Spec != "bench=SYNTH barrier=GL cores=16 tier=test" {
		t.Fatalf("replayed spec = %q", st.Spec)
	}
	_ = jc
	if got := c.Stats().Counters[MetricJournalReplayed]; got != 1 {
		t.Fatalf("%s = %d, want 1", MetricJournalReplayed, got)
	}
	// A fresh submission on C continues the sequence after the replayed id.
	j4, err := c.Submit("bench=SYNTH barrier=CSW cores=16 tier=test")
	if err != nil {
		t.Fatal(err)
	}
	if j4.id != "j4" {
		t.Fatalf("next id = %s, want j4", j4.id)
	}
	waitTerminal(t, c, j4.id)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// Drain closed the journal; the next open sees a fully terminal log.
	_, pending, _, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("pending after drained server = %+v", pending)
	}

	// Cleanup for the abandoned servers (their executors are blocked or
	// idle; cancel everything so goroutines unwind).
	close(runnerB.release)
	for _, s := range []*Server{a, b, b2} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		s.Drain(ctx)
		cancel()
	}
}

// TestJournalReplayBadSpec: a journaled spec that no longer parses is
// terminally failed in the journal (so it never replays again) instead of
// wedging recovery.
func TestJournalReplayBadSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	j, _, _, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Append(journalRecord{T: journalSubmitted, ID: "j1", Spec: "bench=NOPE nonsense"})
	j.Close()

	s := NewServer(Options{ConcurrentJobs: 1})
	replayed, err := s.AttachJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != 0 {
		t.Fatalf("replayed = %d, want 0", replayed)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Drain(ctx)

	_, pending, _, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Fatalf("bad-spec job still pending: %+v", pending)
	}
}
