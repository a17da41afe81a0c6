package hostchaos

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/chaos"
	"repro/internal/serve"
	"repro/internal/serve/hostfault"
)

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

// trip builds one violation of oracle/kind with a formatted detail.
func trip(oracle, kind, format string, args ...any) chaos.Violation {
	return chaos.Violation{Oracle: oracle, Kind: kind, Detail: fmt.Sprintf(format, args...)}
}

// checkOutcome runs every oracle; violations come back in oracle order so
// a run's first trip is deterministic.
func checkOutcome(cfg RunConfig, out *Outcome, baseline map[string][]byte) []chaos.Violation {
	var vs []chaos.Violation
	vs = append(vs, checkAccounting(cfg, out)...)
	vs = append(vs, checkMonotonic(out)...)
	vs = append(vs, checkIdentity(out, baseline)...)
	vs = append(vs, checkConservation(cfg, out)...)
	return vs
}

func checkAccounting(cfg RunConfig, out *Outcome) []chaos.Violation {
	var vs []chaos.Violation
	if len(out.Jobs) != len(cfg.Specs) {
		vs = append(vs, trip(OracleAccounting, "lost-job",
			"submitted %d jobs, observed %d", len(cfg.Specs), len(out.Jobs)))
	}
	seen := map[string]bool{}
	for _, j := range out.Jobs {
		if seen[j.ID] {
			vs = append(vs, trip(OracleAccounting, "duplicate-job", "job %s observed twice", j.ID))
		}
		seen[j.ID] = true
		switch j.State {
		case serve.StateDone, serve.StateFailed, serve.StateCanceled:
		default:
			vs = append(vs, trip(OracleAccounting, "non-terminal",
				"job %s ended the run in state %s", j.ID, j.State))
		}
	}
	c := out.Counters
	if ended := c[serve.MetricJobsDone] + c[serve.MetricJobsFailed] + c[serve.MetricJobsCanceled]; ended != c[serve.MetricJobsSubmitted] {
		vs = append(vs, trip(OracleAccounting, "job-miscount", "done %d + failed %d + canceled %d != submitted %d",
			c[serve.MetricJobsDone], c[serve.MetricJobsFailed], c[serve.MetricJobsCanceled], c[serve.MetricJobsSubmitted]))
	}
	return vs
}

func checkMonotonic(out *Outcome) []chaos.Violation {
	var vs []chaos.Violation
	if len(out.JobsRecheck) != len(out.Jobs) {
		return append(vs, trip(OracleMonotonic, "vanished",
			"%d jobs at finish, %d on recheck", len(out.Jobs), len(out.JobsRecheck)))
	}
	for i, j := range out.Jobs {
		if again := out.JobsRecheck[i]; again.State != j.State {
			vs = append(vs, trip(OracleMonotonic, "state-change",
				"job %s moved %s -> %s after reaching a terminal state", j.ID, j.State, again.State))
		}
	}
	return vs
}

func checkIdentity(out *Outcome, baseline map[string][]byte) []chaos.Violation {
	var vs []chaos.Violation
	for _, fp := range sortedKeys(out.CellBytes) {
		want, ok := baseline[fp]
		if !ok {
			vs = append(vs, trip(OracleIdentity, "unknown-cell",
				"cell %s produced bytes but is absent from the fault-free baseline", fp))
			continue
		}
		if !bytes.Equal(out.CellBytes[fp], want) {
			vs = append(vs, trip(OracleIdentity, "byte-divergence",
				"cell %s bytes differ from the fault-free baseline (%d vs %d bytes)", fp, len(out.CellBytes[fp]), len(want)))
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
func checkConservation(cfg RunConfig, out *Outcome) []chaos.Violation {
	var vs []chaos.Violation
	fired := func(s hostfault.Site) uint64 { return out.Fired[s.String()] }
	failures := fired(hostfault.ExecPanic) + fired(hostfault.ExecFail)
	absorbed := out.Counters[serve.MetricCellRetries] + out.Counters[serve.MetricCellsQuarantined]
	if failures != absorbed {
		vs = append(vs, trip(OracleConservation, "exec-leak",
			"injected %d executor faults but %d retries + quarantines", failures, absorbed))
	}
	if got := out.Counters[serve.MetricCellPanics]; got != fired(hostfault.ExecPanic) {
		vs = append(vs, trip(OracleConservation, "panic-miscount",
			"injected %d panics, recover guard counted %d", fired(hostfault.ExecPanic), got))
	}
	spills := fired(hostfault.SpillWriteFail) + fired(hostfault.SpillRenameFail)
	if got := out.Counters[serve.MetricSpillErrors]; got != spills {
		vs = append(vs, trip(OracleConservation, "spill-miscount",
			"injected %d spill write faults, cache degraded through %d", spills, got))
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
