package hostchaos

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/hostfault"
)

// Violation is one oracle trip: which invariant broke, the failure kind
// within it, and a human-readable detail.
type Violation struct {
	Oracle string `json:"oracle"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

// Key is the stable oracle/kind identity a corpus entry pins.
func (v Violation) Key() string { return v.Oracle + "/" + v.Kind }

func (v Violation) String() string { return v.Key() + ": " + v.Detail }

// Oracle names.
const (
	// OracleAccounting: no lost, duplicated or non-terminal jobs, and
	// every job counted once under its terminal state.
	OracleAccounting = "accounting"
	// OracleMonotonic: terminal states never change.
	OracleMonotonic = "monotonic"
	// OracleIdentity: result bytes match the fault-free baseline.
	OracleIdentity = "identity"
	// OracleConservation: injected faults reconcile with the retry,
	// quarantine and spill metrics.
	OracleConservation = "conservation"
)

// checkOutcome runs every oracle; violations come back in oracle order so
// a run's first trip is deterministic.
func checkOutcome(cfg RunConfig, out *Outcome, baseline map[string][]byte) []Violation {
	var vs []Violation
	vs = append(vs, checkAccounting(cfg, out)...)
	vs = append(vs, checkMonotonic(out)...)
	vs = append(vs, checkIdentity(out, baseline)...)
	vs = append(vs, checkConservation(cfg, out)...)
	return vs
}

func checkAccounting(cfg RunConfig, out *Outcome) []Violation {
	var vs []Violation
	if len(out.Jobs) != len(cfg.Specs) {
		vs = append(vs, Violation{OracleAccounting, "lost-job",
			fmt.Sprintf("submitted %d jobs, observed %d", len(cfg.Specs), len(out.Jobs))})
	}
	seen := map[string]bool{}
	for _, j := range out.Jobs {
		if seen[j.ID] {
			vs = append(vs, Violation{OracleAccounting, "duplicate-job",
				fmt.Sprintf("job %s observed twice", j.ID)})
		}
		seen[j.ID] = true
		switch j.State {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
		default:
			vs = append(vs, Violation{OracleAccounting, "non-terminal",
				fmt.Sprintf("job %s ended the run in state %s", j.ID, j.State)})
		}
	}
	c := out.Counters
	if ended := c[serve.MetricJobsDone] + c[serve.MetricJobsFailed] + c[serve.MetricJobsCanceled]; ended != c[serve.MetricJobsSubmitted] {
		vs = append(vs, Violation{OracleAccounting, "job-miscount",
			fmt.Sprintf("done %d + failed %d + canceled %d != submitted %d",
				c[serve.MetricJobsDone], c[serve.MetricJobsFailed], c[serve.MetricJobsCanceled], c[serve.MetricJobsSubmitted])})
	}
	return vs
}

func checkMonotonic(out *Outcome) []Violation {
	var vs []Violation
	if len(out.JobsRecheck) != len(out.Jobs) {
		return append(vs, Violation{OracleMonotonic, "vanished",
			fmt.Sprintf("%d jobs at finish, %d on recheck", len(out.Jobs), len(out.JobsRecheck))})
	}
	for i, j := range out.Jobs {
		if again := out.JobsRecheck[i]; again.State != j.State {
			vs = append(vs, Violation{OracleMonotonic, "state-change",
				fmt.Sprintf("job %s moved %s -> %s after reaching a terminal state", j.ID, j.State, again.State)})
		}
	}
	return vs
}

func checkIdentity(out *Outcome, baseline map[string][]byte) []Violation {
	var vs []Violation
	for _, fp := range sortedKeys(out.CellBytes) {
		want, ok := baseline[fp]
		if !ok {
			vs = append(vs, Violation{OracleIdentity, "unknown-cell",
				fmt.Sprintf("cell %s produced bytes but is absent from the fault-free baseline", fp)})
			continue
		}
		if !bytes.Equal(out.CellBytes[fp], want) {
			vs = append(vs, Violation{OracleIdentity, "byte-divergence",
				fmt.Sprintf("cell %s bytes differ from the fault-free baseline (%d vs %d bytes)",
					fp, len(out.CellBytes[fp]), len(want))})
		}
	}
	return vs
}

// checkConservation reconciles the fired ledger against the server's
// self-healing metrics. With an ample job retry budget and no client
// cancellation (both guaranteed by RunPlan), every injected executor fault
// is exactly one failed attempt, and every failed attempt is followed by
// exactly one retry or one quarantine entry:
//
//	fired(exec.panic) + fired(exec.fail) == cell.retries + cells.quarantined
//	fired(exec.panic)                    == cell.panics
//	fired(spill.writefail) + fired(spill.renamefail) == spill.errors
func checkConservation(cfg RunConfig, out *Outcome) []Violation {
	var vs []Violation
	fired := func(s hostfault.Site) uint64 { return out.Fired[s.String()] }
	failures := fired(hostfault.ExecPanic) + fired(hostfault.ExecFail)
	absorbed := out.Counters[serve.MetricCellRetries] + out.Counters[serve.MetricCellsQuarantined]
	if failures != absorbed {
		vs = append(vs, Violation{OracleConservation, "exec-leak",
			fmt.Sprintf("injected %d executor faults but %d retries + quarantines", failures, absorbed)})
	}
	if got := out.Counters[serve.MetricCellPanics]; got != fired(hostfault.ExecPanic) {
		vs = append(vs, Violation{OracleConservation, "panic-miscount",
			fmt.Sprintf("injected %d panics, recover guard counted %d", fired(hostfault.ExecPanic), got)})
	}
	spills := fired(hostfault.SpillWriteFail) + fired(hostfault.SpillRenameFail)
	if got := out.Counters[serve.MetricSpillErrors]; got != spills {
		vs = append(vs, Violation{OracleConservation, "spill-miscount",
			fmt.Sprintf("injected %d spill write faults, cache degraded through %d", spills, got)})
	}
	return vs
}

// sortedKeys returns the map's keys in sorted order (deterministic oracle
// output regardless of map iteration).
func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// contextWithTimeout wraps context.WithTimeout on Background.
func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}
