package hostchaos

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/chaos"
	"repro/internal/serve"
	"repro/internal/serve/hostfault"
)

// Reproducer is one corpus entry: a minimized host-fault plan pinned to
// the behavior it deterministically produces. Two kinds of pin exist:
//
//   - oracle: <oracle>/<kind> — the plan trips that violation (a true
//     finding; none are expected while the self-healing machinery holds).
//   - expect: quarantine — the plan exhausts some cell's attempts so the
//     run quarantines at least one cell and fails at least one job, while
//     every oracle stays green (the pinned self-healing behavior).
//
// The on-disk format is a .repro file (see chaos.ParseRepro):
//
//	# poison cell: every attempt at every cell fails
//	plan: seed=1,exec.fail#3
//	expect: quarantine
//	attempts: 3
//
// attempts is optional and defaults to the run default; plan and exactly
// one of oracle/expect are required.
type Reproducer struct {
	// Name is the corpus file's base name (without the .repro suffix).
	Name string `json:"name"`
	// Note is free-text provenance, written as comment lines.
	Note string `json:"note,omitempty"`
	// Plan is the minimized host-fault plan in hostfault.ParsePlan syntax.
	Plan string `json:"plan"`
	// Verdict is the pinned oracle/kind (zero when Expect is set).
	Verdict chaos.Violation `json:"verdict,omitempty"`
	// Expect is the pinned self-healing behavior ("quarantine"), mutually
	// exclusive with Verdict.
	Expect string `json:"expect,omitempty"`
	// Attempts is the per-cell attempt bound (0 = run default).
	Attempts int `json:"attempts,omitempty"`
}

// ExpectQuarantine pins self-healing behavior: quarantined cells, failed
// jobs, green oracles.
const ExpectQuarantine = "quarantine"

// runConfig builds the replay RunConfig.
func (r Reproducer) runConfig() RunConfig {
	return RunConfig{CellAttempts: r.Attempts}
}

// Replay runs the reproducer against a fresh fault-free baseline and
// checks its pin. A non-nil error is the regression signal the corpus
// exists for: the plan no longer produces what it was committed for.
func (r Reproducer) Replay() (*Outcome, error) {
	plan, err := hostfault.ParsePlan(r.Plan)
	if err != nil {
		return nil, fmt.Errorf("hostchaos: corpus %q: %w", r.Name, err)
	}
	cfg := r.runConfig()
	baseline, err := Baseline(cfg)
	if err != nil {
		return nil, fmt.Errorf("hostchaos: corpus %q: %w", r.Name, err)
	}
	out, err := RunPlan(cfg, plan)
	if err != nil {
		return nil, fmt.Errorf("hostchaos: corpus %q: %w", r.Name, err)
	}
	Check(cfg, out, baseline)
	if r.Expect == ExpectQuarantine {
		if v := out.Tripped(); v != nil {
			return out, fmt.Errorf("hostchaos: corpus %q: oracles must stay green under quarantine, tripped %s", r.Name, v)
		}
		if q := out.Counters[serve.MetricCellsQuarantined]; q == 0 {
			return out, fmt.Errorf("hostchaos: corpus %q: plan no longer quarantines any cell", r.Name)
		}
		failed := 0
		for _, j := range out.Jobs {
			if j.State == serve.StateFailed {
				failed++
			}
		}
		if failed == 0 {
			return out, fmt.Errorf("hostchaos: corpus %q: quarantine without a failed job", r.Name)
		}
		return out, nil
	}
	if err := out.Pinned(r.Verdict); err != nil {
		return out, fmt.Errorf("hostchaos: corpus %q: %w", r.Name, err)
	}
	return out, nil
}

// String renders the reproducer in .repro syntax.
func (r Reproducer) String() string {
	oracle := ""
	if r.Verdict.Oracle != "" {
		oracle = r.Verdict.Key()
	}
	return chaos.FormatRepro(r.Note, [][2]string{
		{"plan", r.Plan},
		{"oracle", oracle},
		{"expect", r.Expect},
		{"attempts", strconv.Itoa(r.Attempts)},
	})
}

// WriteCorpus checks that the entry parses back, then saves it as
// <dir>/<name>.repro, creating dir if needed, and returns the file path.
func WriteCorpus(dir string, r Reproducer) (string, error) {
	if _, err := ParseReproducer(r.Name, r.String()); err != nil {
		return "", err
	}
	return chaos.WriteRepro(dir, r.Name, r.String())
}

// ParseReproducer parses one corpus file's contents.
func ParseReproducer(name, text string) (Reproducer, error) {
	r := Reproducer{Name: name}
	note, err := chaos.ParseRepro(text, func(key, val string) (err error) {
		switch key {
		case "plan":
			r.Plan = val
			_, err = hostfault.ParsePlan(val)
		case "oracle":
			r.Verdict, err = chaos.ParseVerdict(val, OracleAccounting, OracleMonotonic, OracleIdentity, OracleConservation)
		case "expect":
			r.Expect = val
			if val != ExpectQuarantine {
				err = errors.New("unknown expectation")
			}
		case "attempts":
			r.Attempts, err = chaos.ParseCount(val)
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
	case r.Expect == "" && r.Verdict.Oracle == "":
		err = errors.New("needs an oracle or expect pin")
	case r.Expect != "" && r.Verdict.Oracle != "":
		err = errors.New("oracle and expect pins are mutually exclusive")
	}
	if err != nil {
		return r, fmt.Errorf("hostchaos: corpus %q: %w", name, err)
	}
	return r, nil
}

// LoadCorpus reads every *.repro file under dir, sorted by name. A missing
// directory is an empty corpus, not an error.
func LoadCorpus(dir string) ([]Reproducer, error) {
	return chaos.LoadRepros(dir, ParseReproducer)
}
