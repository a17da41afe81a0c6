// Package serve turns the one-shot simulator CLI into a long-running
// simulation-as-a-service: an HTTP/JSON job server that expands sweep-grid
// job specs into independent cells, schedules them on the bounded
// internal/sweep pool, streams progress, and serves results out of a
// content-addressed cache keyed by the cells' input fingerprints
// (sim.InputSpec.Fingerprint) — identical cells, common when many clients
// sweep overlapping grids, cost one simulation ever.
//
// The job spec grammar follows the fault.ParsePlan house style: a flat
// directive list with a canonical String() round-trip. Directives are
// whitespace-separated key=value pairs (values may contain '=' and ',',
// so a fault plan embeds verbatim); bench, barrier, cores and seed accept
// '|'-separated alternatives that expand into the cross-product grid:
//
//	bench=SYNTH|KERN2 barrier=GL|CSW cores=16|32 tier=test
//
// expands to 8 cells. Unset directives default to bench=SYNTH barrier=GL
// cores=32 seed=0 tier=test threads=<cores> max_cycles=4000000000.
package serve

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/barrier"
	"repro/internal/config"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

// DefaultMaxCycles is the per-cell cycle budget when a spec does not set
// max_cycles; it matches the CLI harness default (the paper-scale OCEAN
// run, the largest cell, needs ~75M cycles).
const DefaultMaxCycles = 4_000_000_000

// MaxGridCells bounds a single job's cross-product expansion; a spec
// expanding past it is rejected at parse time.
const MaxGridCells = 1024

// JobSpec is one parsed job: a grid of simulation cells. The zero value
// is not useful; build with ParseJobSpec.
type JobSpec struct {
	// Bench, Barrier, Cores and Seeds are the grid axes, each at least one
	// entry, deduplicated, in spec order.
	Bench   []string
	Barrier []barrier.Kind
	Cores   []int
	Seeds   []int64
	// Tier is the input-scale tier shared by every cell.
	Tier workload.Tier
	// Threads is the per-cell thread count; 0 means all cores of the cell.
	Threads int
	// MaxCycles is the per-cell cycle budget.
	MaxCycles uint64
	// Faults is the shared fault plan (nil = no injection).
	Faults *fault.Plan
}

// Cell is one fully resolved simulation of a job grid: the unit of
// execution, caching and fingerprinting.
type Cell struct {
	Bench     string
	Barrier   barrier.Kind
	Cores     int
	Seed      int64
	Tier      workload.Tier
	Threads   int // resolved: never 0
	MaxCycles uint64
	Faults    *fault.Plan
}

// Label renders the cell's human-facing name, stable across processes.
func (c Cell) Label() string {
	l := fmt.Sprintf("%s/%s/%d", c.Bench, c.Barrier, c.Cores)
	if c.Seed != 0 {
		l += fmt.Sprintf("/seed%d", c.Seed)
	}
	return l
}

// Input returns the canonicalized input spec the cell's fingerprint (and
// hence its cache identity) derives from.
func (c Cell) Input() sim.InputSpec {
	cfg := config.Default(c.Cores)
	cfg.WorkloadSeed = c.Seed
	cfg.Faults = c.Faults
	if c.Bench == "PIPE" {
		// The pipeline workload runs two concurrent barrier groups; mirror
		// the CLI harness.
		cfg.GLContexts = 2
	}
	return sim.InputSpec{
		Config:    cfg,
		Bench:     c.Bench,
		Tier:      string(c.Tier),
		Barrier:   string(c.Barrier),
		Threads:   c.Threads,
		MaxCycles: c.MaxCycles,
	}
}

// Fingerprint returns the cell's 64-bit content address (16 hex digits).
func (c Cell) Fingerprint() string { return c.Input().Fingerprint() }

// ParseJobSpec parses and validates the job grammar. Every cell of the
// expanded grid is validated eagerly — a bad spec is rejected at submit
// time, never discovered mid-sweep.
func ParseJobSpec(s string) (*JobSpec, error) {
	spec := &JobSpec{
		Tier:      workload.TierTest,
		MaxCycles: DefaultMaxCycles,
	}
	seenBench, seenBarrier := map[string]bool{}, map[barrier.Kind]bool{}
	seenCores, seenSeeds := map[int]bool{}, map[int64]bool{}
	var err error
	for _, tok := range strings.Fields(s) {
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fmt.Errorf("serve: directive %q is not key=value", tok)
		}
		switch key {
		case "bench":
			for b, rest := nextAlt(val); b != ""; b, rest = nextAlt(rest) {
				if spec.Bench, err = addAlt(spec.Bench, seenBench, key, b); err != nil {
					return nil, err
				}
			}
		case "barrier":
			for b, rest := nextAlt(val); b != ""; b, rest = nextAlt(rest) {
				kind, err := barrier.ParseKind(b)
				if err != nil {
					return nil, fmt.Errorf("serve: %v", err)
				}
				if spec.Barrier, err = addAlt(spec.Barrier, seenBarrier, key, kind); err != nil {
					return nil, err
				}
			}
		case "cores":
			for c, rest := nextAlt(val); c != ""; c, rest = nextAlt(rest) {
				n, err := strconv.Atoi(c)
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("serve: bad cores value %q", c)
				}
				if n > config.MaxCores {
					// Rejected before validate factors the mesh, which
					// takes time growing with n.
					return nil, fmt.Errorf("serve: cores=%d exceeds the %d-core limit", n, config.MaxCores)
				}
				if spec.Cores, err = addAlt(spec.Cores, seenCores, key, n); err != nil {
					return nil, err
				}
			}
		case "seed":
			for c, rest := nextAlt(val); c != ""; c, rest = nextAlt(rest) {
				n, err := strconv.ParseInt(c, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("serve: bad seed value %q", c)
				}
				if spec.Seeds, err = addAlt(spec.Seeds, seenSeeds, key, n); err != nil {
					return nil, err
				}
			}
		case "tier":
			tier, err := workload.ParseTier(val)
			if err != nil {
				return nil, fmt.Errorf("serve: %v", err)
			}
			spec.Tier = tier
		case "threads":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("serve: bad threads value %q", val)
			}
			spec.Threads = n
		case "max_cycles":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("serve: bad max_cycles value %q", val)
			}
			spec.MaxCycles = n
		case "faults":
			plan, err := fault.ParsePlan(val)
			if err != nil {
				return nil, fmt.Errorf("serve: %v", err)
			}
			spec.Faults = plan
		default:
			return nil, fmt.Errorf("serve: unknown directive %q", key)
		}
	}
	spec.applyDefaults()
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

func (s *JobSpec) applyDefaults() {
	if len(s.Bench) == 0 {
		s.Bench = []string{"SYNTH"}
	}
	if len(s.Barrier) == 0 {
		s.Barrier = []barrier.Kind{barrier.KindGL}
	}
	if len(s.Cores) == 0 {
		s.Cores = []int{32}
	}
	if len(s.Seeds) == 0 {
		s.Seeds = []int64{0}
	}
}

// validate checks every expanded cell against the workload registry and
// the machine configuration's own Validate.
func (s *JobSpec) validate() error {
	n := len(s.Bench) * len(s.Barrier) * len(s.Cores) * len(s.Seeds)
	if n > MaxGridCells {
		return fmt.Errorf("serve: grid expands to %d cells, limit %d", n, MaxGridCells)
	}
	for _, b := range s.Bench {
		if _, err := workload.ByName(b, s.Tier); err != nil {
			return fmt.Errorf("serve: %v", err)
		}
	}
	for _, c := range s.Cores {
		if err := config.Default(c).Validate(); err != nil {
			return fmt.Errorf("serve: cores=%d: %v", c, err)
		}
		if s.Threads > c {
			return fmt.Errorf("serve: threads=%d exceeds cores=%d", s.Threads, c)
		}
	}
	return nil
}

// Cells expands the grid in deterministic order: bench (outer), barrier,
// cores, seed (inner).
func (s *JobSpec) Cells() []Cell {
	var cells []Cell
	for _, b := range s.Bench {
		for _, k := range s.Barrier {
			for _, c := range s.Cores {
				for _, seed := range s.Seeds {
					threads := s.Threads
					if threads == 0 {
						threads = c
					}
					cells = append(cells, Cell{
						Bench:     b,
						Barrier:   k,
						Cores:     c,
						Seed:      seed,
						Tier:      s.Tier,
						Threads:   threads,
						MaxCycles: s.MaxCycles,
						Faults:    s.Faults,
					})
				}
			}
		}
	}
	return cells
}

// String renders the spec back into canonical grammar; ParseJobSpec of
// the result reproduces an equivalent spec (grid axes sorted, defaults
// elided), so String is the job-level canonicalization the way
// fault.Plan.String is the plan-level one.
func (s *JobSpec) String() string {
	bench := append([]string(nil), s.Bench...)
	sort.Strings(bench)
	kinds := make([]string, len(s.Barrier))
	for i, k := range s.Barrier {
		kinds[i] = string(k)
	}
	sort.Strings(kinds)
	cores := append([]int(nil), s.Cores...)
	sort.Ints(cores)
	coreStrs := make([]string, len(cores))
	for i, c := range cores {
		coreStrs[i] = strconv.Itoa(c)
	}
	seeds := append([]int64(nil), s.Seeds...)
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })

	toks := []string{
		"bench=" + strings.Join(bench, "|"),
		"barrier=" + strings.Join(kinds, "|"),
		"cores=" + strings.Join(coreStrs, "|"),
		"tier=" + string(s.Tier),
	}
	if len(seeds) != 1 || seeds[0] != 0 {
		seedStrs := make([]string, len(seeds))
		for i, v := range seeds {
			seedStrs[i] = strconv.FormatInt(v, 10)
		}
		toks = append(toks, "seed="+strings.Join(seedStrs, "|"))
	}
	if s.Threads != 0 {
		toks = append(toks, fmt.Sprintf("threads=%d", s.Threads))
	}
	if s.MaxCycles != DefaultMaxCycles {
		toks = append(toks, fmt.Sprintf("max_cycles=%d", s.MaxCycles))
	}
	if s.Faults != nil {
		toks = append(toks, "faults="+s.Faults.String())
	}
	return strings.Join(toks, " ")
}

// nextAlt returns the first non-empty '|'-separated alternative of v and
// what follows it, or two empty strings once none is left. Taking
// alternatives one at a time lets an overlong axis fail before the rest
// of it is split.
func nextAlt(v string) (alt, rest string) {
	for v != "" {
		if alt, v, _ = strings.Cut(v, "|"); alt != "" {
			return alt, v
		}
	}
	return "", ""
}

// addAlt appends v to a grid axis unless seen already holds it. An axis
// with more than MaxGridCells distinct values cannot fit any grid, so it
// is rejected as soon as it has one more, while the spec is parsed: a
// spec of any length parses in time linear in its length.
func addAlt[T comparable](axis []T, seen map[T]bool, key string, v T) ([]T, error) {
	if seen[v] {
		return axis, nil
	}
	if len(axis) == MaxGridCells {
		return nil, fmt.Errorf("serve: %s has more than %d distinct values, the grid cell limit", key, MaxGridCells)
	}
	seen[v] = true
	return append(axis, v), nil
}
