package chaos

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fault"
)

// Reproducer is one corpus entry: a minimized fault plan pinned to the
// oracle verdict it deterministically trips. The on-disk format is a
// .repro file (see ParseRepro):
//
//	# chaos campaign seed=7, minimized from 3 atoms in 41 runs
//	plan: seed=9,recovery.off,@100-200:gl.drop:-1:0
//	oracle: liveness/no-progress
//	cores: 16
//	iters: 8
//	budget: 4000000
//	stall: 100000
//
// cores/iters/budget/stall are optional and default to the chaos run
// defaults; plan and oracle are required.
type Reproducer struct {
	// Name is the corpus file's base name (without the .repro suffix).
	Name string `json:"name"`
	// Note is free-text provenance, written as comment lines.
	Note string `json:"note,omitempty"`
	// Plan is the minimized fault plan in fault.ParsePlan syntax.
	Plan string `json:"plan"`
	// Verdict is the pinned oracle/kind the plan must trip on replay.
	Verdict Violation `json:"verdict"`
	// Run shape (zero fields use the chaos defaults).
	Cores       int    `json:"cores,omitempty"`
	Iters       int    `json:"iters,omitempty"`
	CycleBudget uint64 `json:"budget,omitempty"`
	StallLimit  uint64 `json:"stall,omitempty"`
}

// reproSuffix is the corpus file extension.
const reproSuffix = ".repro"

// runConfig builds the replay RunConfig (all oracles armed: a reproducer
// must not trip anything beyond its pinned verdict's oracle surface).
func (r Reproducer) runConfig() RunConfig {
	return RunConfig{
		Cores:       r.Cores,
		Iters:       r.Iters,
		CycleBudget: r.CycleBudget,
		StallLimit:  r.StallLimit,
	}
}

// Replay runs the reproducer and checks its pinned verdict: the plan must
// still trip the same oracle/kind. It returns the outcome alongside a
// non-nil error when the verdict drifted — the regression signal the
// corpus exists for — or when the entry cannot build a system at all.
func (r Reproducer) Replay() (Outcome, error) {
	plan, err := fault.ParsePlan(r.Plan)
	if err != nil {
		return Outcome{}, fmt.Errorf("chaos: corpus %q: %w", r.Name, err)
	}
	out, err := runPlan(context.TODO(), r.runConfig(), plan)
	if err == nil {
		err = out.Pinned(r.Verdict)
	}
	if err != nil {
		return out, fmt.Errorf("chaos: corpus %q: %w", r.Name, err)
	}
	return out, nil
}

// String renders the reproducer in .repro syntax.
func (r Reproducer) String() string {
	return FormatRepro(r.Note, [][2]string{
		{"plan", r.Plan},
		{"oracle", r.Verdict.Key()},
		{"cores", strconv.Itoa(r.Cores)},
		{"iters", strconv.Itoa(r.Iters)},
		{"budget", strconv.FormatUint(r.CycleBudget, 10)},
		{"stall", strconv.FormatUint(r.StallLimit, 10)},
	})
}

// WriteCorpus checks that the entry parses back, then saves it as
// <dir>/<name>.repro, creating dir if needed, and returns the file path.
func WriteCorpus(dir string, r Reproducer) (string, error) {
	if _, err := ParseReproducer(r.Name, r.String()); err != nil {
		return "", err
	}
	return WriteRepro(dir, r.Name, r.String())
}

// ParseReproducer parses one corpus file's contents.
func ParseReproducer(name, text string) (Reproducer, error) {
	r := Reproducer{Name: name}
	note, err := ParseRepro(text, func(key, val string) (err error) {
		switch key {
		case "plan":
			r.Plan = val
			_, err = fault.ParsePlan(val)
		case "oracle":
			r.Verdict, err = ParseVerdict(val, OracleSafety, OracleLiveness, OracleConservation)
		case "cores":
			r.Cores, err = ParseCount(val)
		case "iters":
			r.Iters, err = ParseCount(val)
		case "budget":
			r.CycleBudget, err = strconv.ParseUint(val, 10, 64)
		case "stall":
			r.StallLimit, err = strconv.ParseUint(val, 10, 64)
		default:
			err = errors.New("unknown key")
		}
		return err
	})
	r.Note = note
	switch {
	case err != nil:
	case r.Plan == "":
		err = errors.New("missing plan")
	case r.Verdict.Oracle == "":
		err = errors.New("missing oracle")
	}
	if err != nil {
		return r, fmt.Errorf("chaos: corpus %q: %w", name, err)
	}
	return r, nil
}

// ParseCount parses a non-negative count of a corpus entry: a run shape
// (cores, iterations) or an attempt bound.
func ParseCount(s string) (int, error) {
	n, err := strconv.ParseUint(s, 10, 31)
	return int(n), err
}

// LoadCorpus reads every *.repro file under dir, sorted by name. A missing
// directory is an empty corpus, not an error.
func LoadCorpus(dir string) ([]Reproducer, error) {
	return LoadRepros(dir, ParseReproducer)
}

// ParseRepro reads a .repro file, the corpus format of both chaos layers:
// '#' lines are notes, joined with newlines into the returned note; blank
// lines are skipped; every other line must be "key: value" and is passed
// to set in file order. An error names the offending line.
func ParseRepro(text string, set func(key, val string) error) (note string, err error) {
	var notes []string
	for ln, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "#"); ok {
			notes = append(notes, strings.TrimSpace(rest))
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return "", fmt.Errorf("line %d: want key: value, got %q", ln+1, line)
		}
		key = strings.TrimSpace(key)
		if err := set(key, strings.TrimSpace(val)); err != nil {
			return "", fmt.Errorf("line %d: %s: %w", ln+1, key, err)
		}
	}
	return strings.Join(notes, "\n"), nil
}

// FormatRepro renders a .repro file that ParseRepro reads back: each note
// line as a '#' line, then each key/value pair in order as a "key: value"
// line. A pair whose value is "" or "0" is left out — every optional
// field defaults to zero.
func FormatRepro(note string, fields [][2]string) string {
	var b strings.Builder
	if note != "" {
		for _, line := range strings.Split(note, "\n") {
			b.WriteString(strings.TrimSpace("# "+line) + "\n")
		}
	}
	for _, f := range fields {
		if f[1] != "" && f[1] != "0" {
			fmt.Fprintf(&b, "%s: %s\n", f[0], f[1])
		}
	}
	return b.String()
}

// LoadRepros parses every *.repro file under dir with parse, in name
// order (the name is the file's base name without the suffix). A missing
// directory is an empty corpus, not an error.
func LoadRepros[R any](dir string, parse func(name, text string) (R, error)) ([]R, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("chaos: corpus: %w", err)
	}
	var names []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), reproSuffix); ok && !e.IsDir() {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var out []R
	for _, name := range names {
		raw, err := os.ReadFile(filepath.Join(dir, name+reproSuffix))
		if err != nil {
			return nil, fmt.Errorf("chaos: corpus: %w", err)
		}
		r, err := parse(name, string(raw))
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// WriteRepro saves text as <dir>/<name>.repro, creating dir if needed, and
// returns the file path.
func WriteRepro(dir, name, text string) (string, error) {
	if name == "" {
		return "", errors.New("chaos: corpus entry needs a name")
	}
	path := filepath.Join(dir, name+reproSuffix)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("chaos: corpus: %w", err)
	}
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		return "", fmt.Errorf("chaos: corpus: %w", err)
	}
	return path, nil
}
