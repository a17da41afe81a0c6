// Package sweep fans independent simulation runs across a bounded worker
// pool. Every experiment of the paper's evaluation is a grid of pure
// (workload × barrier kind × core count × config) cells: each cell builds
// its own sim.System, so cells share no state and can run on any number of
// goroutines without changing results.
//
// The contract callers rely on:
//
//   - Results come back in submission order, one per Spec, regardless of
//     which worker finished first: a parallel sweep renders byte-identical
//     tables to a sequential one.
//   - A failing cell (error or panic) never aborts the sweep; its Result
//     carries the error and every other cell still runs, unless FailFast
//     asks to cancel cells that have not started yet.
//   - Determinism is checkable: each cell's Report carries a fingerprint
//     (sim.Report.Fingerprint) hashed over its final statistics.
package sweep

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Spec is one independent cell of a sweep: a label for error reporting and
// a self-contained run building its own fresh system. Run must return soon
// after ctx ends; a simulation does so by polling it (engine.Engine.Stop).
type Spec struct {
	Label string
	Run   func(ctx context.Context) (*sim.Report, error)
}

// Options configure how a sweep executes. The zero value runs one worker
// per available CPU and never cancels.
type Options struct {
	// Jobs is the worker-goroutine count; <= 0 means GOMAXPROCS.
	Jobs int
	// FailFast cancels cells that have not started once any cell fails.
	// Canceled cells report ErrCanceled.
	FailFast bool
	// ArtifactDir, when non-empty, writes each successful cell's report as
	// an indented-JSON file <dir>/<index>_<label>.json (the label sanitized
	// to filename-safe characters). The directory is created if missing; a
	// write failure is recorded on the cell's Err without stopping others.
	ArtifactDir string
	// Timeout bounds each cell's wall-clock run time; 0 means unbounded.
	// The deadline ends the cell's context, and the cell records
	// ErrTimeout.
	Timeout time.Duration
	// Ctx, when non-nil, aborts the sweep: cells that have not started when
	// the context is canceled record ErrAborted, and so does a cell in
	// flight, whose own context ends with it. A nil Ctx is
	// context.Background().
	Ctx context.Context
}

// ctx resolves the effective context.
func (o Options) ctx() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}

// jobs resolves the effective worker count.
func (o Options) jobs() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Result is one cell's outcome, at the same index as its Spec.
type Result struct {
	Label  string
	Report *sim.Report
	Err    error
}

// Fingerprint returns the cell's determinism fingerprint, or "" for a
// failed cell.
func (r Result) Fingerprint() string {
	if r.Report == nil {
		return ""
	}
	return r.Report.Fingerprint()
}

// ErrCanceled marks cells skipped under FailFast after an earlier failure.
var ErrCanceled = errors.New("sweep: canceled after earlier failure")

// ErrTimeout marks cells stopped after exceeding Options.Timeout.
var ErrTimeout = errors.New("sweep: cell exceeded timeout")

// ErrAborted marks cells skipped or stopped because Options.Ctx was
// canceled (a job abort or server drain).
var ErrAborted = errors.New("sweep: aborted by context")

// Run executes every spec on opts.jobs() workers and returns one Result
// per spec, in submission order, once every cell has returned. With
// FailFast off, every cell runs to completion; with FailFast on, cells
// that have not yet started when a failure lands are marked ErrCanceled.
// A panic inside a cell is recovered into that cell's Err.
func Run(opts Options, specs []Spec) []Result {
	results := make([]Result, len(specs))
	if opts.ArtifactDir != "" {
		if err := os.MkdirAll(opts.ArtifactDir, 0o755); err != nil {
			for i := range results {
				results[i].Label = specs[i].Label
				results[i].Err = fmt.Errorf("sweep: artifact dir: %w", err)
			}
			return results
		}
	}
	ctx := opts.ctx()
	var failed atomic.Bool
	runOne := func(i int) {
		r := &results[i]
		r.Label = specs[i].Label
		if err := ctx.Err(); err != nil {
			r.Err = fmt.Errorf("%w: %v", ErrAborted, err)
			return
		}
		if opts.FailFast && failed.Load() {
			r.Err = ErrCanceled
			return
		}
		r.Report, r.Err = runCell(ctx, specs[i].Run, opts.Timeout)
		if r.Err == nil && opts.ArtifactDir != "" && r.Report != nil {
			r.Err = writeArtifact(opts.ArtifactDir, i, r.Label, r.Report)
		}
		if r.Err != nil {
			if r.Label != "" {
				r.Err = fmt.Errorf("%s: %w", r.Label, r.Err)
			}
			failed.Store(true)
		}
	}

	n := opts.jobs()
	if n > len(specs) {
		n = len(specs)
	}
	if n <= 1 {
		// Strictly sequential, in submission order: the reference
		// execution that parallel runs must match bit-for-bit.
		for i := range specs {
			runOne(i)
		}
		return results
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				runOne(i)
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// writeArtifact serializes one cell's report to <dir>/<index>_<label>.json.
// Workers call it concurrently, which is safe: every cell owns its own file.
func writeArtifact(dir string, index int, label string, rep *sim.Report) error {
	raw, err := rep.JSON()
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	name := fmt.Sprintf("%03d_%s.json", index, sanitizeLabel(label))
	if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	return nil
}

// sanitizeLabel maps a human-facing cell label to a filename-safe slug.
// Sanitization is lossy — "a/b" and "a:b" both map to "a-b", and long
// labels truncate — so whenever information was dropped the slug carries
// an 8-hex-digit hash of the raw label: two distinct labels can never
// silently share an artifact filename, no matter which sweep (and hence
// which index) they run under.
func sanitizeLabel(label string) string {
	if label == "" {
		return "cell"
	}
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		case r == '.', r == '-', r == '_':
			return r
		default:
			return '-'
		}
	}, label)
	const maxLen = 80
	lossy := mapped != label
	if len(mapped) > maxLen {
		mapped = mapped[:maxLen]
		lossy = true
	}
	if lossy {
		h := fnv.New32a()
		h.Write([]byte(label))
		mapped = fmt.Sprintf("%s-%08x", mapped, h.Sum32())
	}
	return mapped
}

// protect runs one cell, converting a panic into an error so a bad cell
// cannot take down the whole sweep.
func protect(ctx context.Context, run func(context.Context) (*sim.Report, error)) (rep *sim.Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("run panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return run(ctx)
}

// runCell runs one cell on the calling worker under its own context: ctx,
// bounded by timeout when one is set. A cell whose context ended before it
// returned records ErrAborted (ctx ended) or ErrTimeout (its deadline
// passed), whatever it returned.
func runCell(ctx context.Context, run func(context.Context) (*sim.Report, error), timeout time.Duration) (*sim.Report, error) {
	cellCtx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		cellCtx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	rep, err := protect(cellCtx, run)
	switch {
	case ctx.Err() != nil:
		return nil, fmt.Errorf("%w: %v", ErrAborted, context.Cause(ctx))
	case cellCtx.Err() != nil:
		return nil, fmt.Errorf("%w (%v)", ErrTimeout, timeout)
	}
	return rep, err
}

// Errs joins the errors of all failed cells (nil when every cell
// succeeded), preserving submission order — the aggregate an experiment
// returns alongside its fully rendered table.
func Errs(results []Result) error {
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, r.Err)
		}
	}
	return errors.Join(errs...)
}

// Failed counts cells that did not produce a report.
func Failed(results []Result) int {
	n := 0
	for _, r := range results {
		if r.Err != nil {
			n++
		}
	}
	return n
}
