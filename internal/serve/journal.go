// Crash-safe job journal: an append-only write-ahead log of job lifecycle
// records under the cache directory (or wherever -journal points). The
// journal is the Yu et al. move at the service layer — durable state kept
// off the fragile path — so a SIGKILL'd glsimd restarted with the same
// -journal replays every non-terminal job. Re-execution is safe because
// results are content-addressed: recovered cells resolve as byte-identical
// cache hits (with -cache-dir) or re-simulate to the same bytes.
//
// On-disk format: one record per line, "crc32hex json\n", where the CRC
// (IEEE) covers the JSON bytes. Appends are fsync'd. A torn tail — the
// partial last line a crash mid-append leaves — is tolerated on open:
// scanning stops at the first line whose CRC or framing fails, that lacks
// its newline, or that is longer than any record, and the journal is
// compacted (pending submissions only, temp file + rename) before
// reopening for append, so torn bytes never accumulate.
package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"encoding/json"
)

// Journal record types.
const (
	journalSubmitted = "submitted"
	journalStarted   = "started"
	journalTerminal  = "terminal"
	// journalMark carries the job-id high-water mark through compaction:
	// terminal jobs are dropped, but their ids must never be reissued (a
	// client holding an old job URL would silently watch a stranger).
	journalMark = "mark"
)

// journalRecord is one WAL line's payload.
type journalRecord struct {
	// T is the record type: submitted, started, terminal.
	T string `json:"t"`
	// ID is the job id the record describes.
	ID string `json:"id"`
	// Spec is the canonical job spec (submitted records only).
	Spec string `json:"spec,omitempty"`
	// State is the terminal state (terminal records only).
	State JobState `json:"state,omitempty"`
	// Err is the terminal error message, if any.
	Err string `json:"err,omitempty"`
}

// PendingJob is one journaled job that never reached a terminal state —
// the unit of restart recovery.
type PendingJob struct {
	ID   string
	Spec string
}

// Journal is the open write-ahead log. Appends are serialized and
// fsync'd; a Journal is safe for concurrent use.
type Journal struct {
	path string

	mu sync.Mutex
	//glvet:guardedby mu
	f *os.File
	//glvet:guardedby mu
	records uint64
}

// OpenJournal opens (creating if absent) the journal at path, replays its
// records, compacts it down to the pending submissions, and returns the
// journal ready for appends plus the recovery state: the pending jobs in
// submission order, the highest numeric job id seen (so the server's id
// sequence continues past recovered jobs), and how many torn/corrupt
// trailing lines were dropped.
func OpenJournal(path string) (j *Journal, pending []PendingJob, maxID int, torn int, err error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, 0, 0, fmt.Errorf("serve: journal: %w", err)
		}
	}
	if f, err := os.Open(path); err == nil {
		pending, maxID, torn, err = scanJournal(f)
		f.Close()
		if err != nil {
			return nil, nil, 0, 0, err
		}
	} else if !os.IsNotExist(err) {
		return nil, nil, 0, 0, fmt.Errorf("serve: journal: %w", err)
	}
	// Compact: rewrite only the pending submissions (temp file + rename),
	// dropping terminal jobs and any torn tail. A crash during compaction
	// leaves either the old or the new file — both are valid journals.
	tmp, err := os.CreateTemp(filepath.Dir(path), "journal-*.tmp")
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("serve: journal compact: %w", err)
	}
	recs := make([]journalRecord, 0, len(pending)+1)
	if maxID > 0 {
		recs = append(recs, journalRecord{T: journalMark, ID: fmt.Sprintf("j%d", maxID)})
	}
	for _, p := range pending {
		recs = append(recs, journalRecord{T: journalSubmitted, ID: p.ID, Spec: p.Spec})
	}
	for _, rec := range recs {
		line, err := journalLine(rec)
		if err == nil {
			_, err = tmp.WriteString(line)
		}
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return nil, nil, 0, 0, fmt.Errorf("serve: journal compact: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, nil, 0, 0, fmt.Errorf("serve: journal compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, nil, 0, 0, fmt.Errorf("serve: journal compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return nil, nil, 0, 0, fmt.Errorf("serve: journal compact: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, 0, 0, fmt.Errorf("serve: journal: %w", err)
	}
	return &Journal{path: path, f: f}, pending, maxID, torn, nil
}

// maxJournalLine caps a journal line. The longest record is a submitted
// one, whose canonical spec is no longer than the request body it came in
// plus its defaults, and bodies are capped at a quarter of this
// (maxSubmitBody), so a longer line is corrupt.
const maxJournalLine = 4 << 20

// scanJournal reads every valid record, stopping at the first torn or
// corrupt line.
func scanJournal(r io.Reader) (pending []PendingJob, maxID int, torn int, err error) {
	type jobLog struct {
		spec     string
		order    int
		terminal bool
	}
	jobs := map[string]*jobLog{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxJournalLine)
	sc.Split(scanRecordLines)
	valid := true
	for sc.Scan() {
		if !valid {
			// Records past the first bad line are unreachable: the bad line
			// may have swallowed framing, so nothing after it is trusted.
			torn++
			continue
		}
		line, terminated := strings.CutSuffix(sc.Text(), "\n")
		rec, ok := parseJournalLine(line)
		if !ok || !terminated {
			valid = false
			torn++
			continue
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(rec.ID, "j")); err == nil && n > maxID {
			maxID = n
		}
		switch rec.T {
		case journalSubmitted:
			if _, dup := jobs[rec.ID]; !dup {
				jobs[rec.ID] = &jobLog{spec: rec.Spec, order: len(order)}
				order = append(order, rec.ID)
			}
		case journalTerminal:
			if jl, ok := jobs[rec.ID]; ok {
				jl.terminal = true
			}
		}
	}
	if err := sc.Err(); errors.Is(err, bufio.ErrTooLong) {
		// A line past maxJournalLine is corrupt too. The scanner cannot
		// find the next line after it, so lines past it go uncounted.
		torn++
	} else if err != nil {
		return nil, 0, 0, fmt.Errorf("serve: journal scan: %w", err)
	}
	for _, id := range order {
		if jl := jobs[id]; !jl.terminal {
			pending = append(pending, PendingJob{ID: id, Spec: jl.spec})
		}
	}
	return pending, maxID, torn, nil
}

// scanRecordLines splits a journal into lines that keep their newline, so
// a last line a crash cut short can be told from a complete one.
func scanRecordLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// journalLine frames one record: crc32(json) in fixed-width hex, a space,
// the JSON, a newline.
func journalLine(rec journalRecord) (string, error) {
	raw, err := json.Marshal(rec)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%08x %s\n", crc32.ChecksumIEEE(raw), raw), nil
}

// parseJournalLine validates framing and CRC; ok is false for torn or
// corrupt lines.
func parseJournalLine(line string) (journalRecord, bool) {
	crcHex, raw, found := strings.Cut(line, " ")
	if !found || len(crcHex) != 8 {
		return journalRecord{}, false
	}
	want, err := strconv.ParseUint(crcHex, 16, 32)
	if err != nil {
		return journalRecord{}, false
	}
	if crc32.ChecksumIEEE([]byte(raw)) != uint32(want) {
		return journalRecord{}, false
	}
	var rec journalRecord
	if err := json.Unmarshal([]byte(raw), &rec); err != nil {
		return journalRecord{}, false
	}
	return rec, true
}

// Append writes one record and fsyncs. Errors degrade to best-effort:
// the caller logs/counts but never fails the job — a full disk must not
// take the queue down with it.
func (j *Journal) Append(rec journalRecord) error {
	if j == nil {
		return nil
	}
	line, err := journalLine(rec)
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("serve: journal is closed")
	}
	if _, err := j.f.WriteString(line); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.records++
	return nil
}

// Records returns how many records this process appended.
func (j *Journal) Records() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.records
}

// Close closes the underlying file; further appends fail.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Path returns the journal's file path.
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}
