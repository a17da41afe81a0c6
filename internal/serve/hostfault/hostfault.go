// Package hostfault is the job server's deterministic host-fault
// injection layer: the internal/fault idea lifted one level up, from the
// simulated substrate to the host process serving it. A Plan describes
// which host failures to inject — executor panics, failing or corrupting
// disk-spill I/O, queue stalls — and an Injector compiled from the plan
// answers the server's questions ("does this run attempt panic?", "does
// this spill write fail?").
//
// Decisions are a pure function of (seed, site, key, opportunity index)
// through internal/fault's splitmix-style hash, fault.Mix, where the key
// is a stable identity (a cell fingerprint, a spill path, a job id) and
// the opportunity index counts that key's visits to the site. Same plan,
// same call pattern per key: same faults — which is what lets the
// hostchaos campaign replay a finding and lets a quarantine reproducer be
// committed to a corpus. Per-key opportunity counters make decisions
// independent of interleaving across keys, mirroring the
// order-independence contract of fault.Plan under parallel sweeps.
//
// A nil *Injector is the canonical "host faults disabled" value: every
// method is nil-safe and answers "no fault".
package hostfault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"repro/internal/fault"
)

// Site identifies one class of injectable host fault.
type Site uint8

// The host-fault sites, covering the executor path, the cache's disk
// spill and the job queue.
const (
	// ExecPanic panics the cell executor mid-attempt; the server's panic
	// guard must convert it into a retryable error.
	ExecPanic Site = iota
	// ExecFail makes the cell executor return an injected error.
	ExecFail
	// ExecSlow stalls the cell executor for Plan.SlowMillis before it runs.
	ExecSlow
	// SpillWriteFail fails the disk-spill temp-file write.
	SpillWriteFail
	// SpillRenameFail fails the spill's publishing rename.
	SpillRenameFail
	// SpillReadFail fails a disk-spill read (a cache disk hit becomes a
	// miss).
	SpillReadFail
	// SpillCorrupt corrupts the bytes read back from a disk spill; the
	// cache must reject them instead of serving garbage.
	SpillCorrupt
	// QueueStall stalls an executor for Plan.SlowMillis after it dequeues
	// a job, before the job runs.
	QueueStall

	// NumSites is the number of host-fault sites.
	NumSites
)

// siteNames maps sites to their plan-syntax keys.
var siteNames = [NumSites]string{
	ExecPanic:       "exec.panic",
	ExecFail:        "exec.fail",
	ExecSlow:        "exec.slow",
	SpillWriteFail:  "spill.writefail",
	SpillRenameFail: "spill.renamefail",
	SpillReadFail:   "spill.readfail",
	SpillCorrupt:    "spill.corrupt",
	QueueStall:      "queue.stall",
}

// String returns the site's plan-syntax key.
func (s Site) String() string {
	if s < NumSites {
		return siteNames[s]
	}
	return fmt.Sprintf("hostsite(%d)", uint8(s))
}

// siteByName resolves a plan-syntax key to its site.
func siteByName(name string) (Site, bool) {
	for s := Site(0); s < NumSites; s++ {
		if siteNames[s] == name {
			return s, true
		}
	}
	return 0, false
}

// DefaultSlowMillis is the stall duration of ExecSlow and QueueStall when
// the plan does not set one.
const DefaultSlowMillis = 5

// Plan is a complete host-fault schedule. The zero value is a valid empty
// plan injecting nothing.
type Plan struct {
	// Seed drives every rate decision; same seed, same plan, same faults.
	Seed uint64
	// Rates holds the per-opportunity fault probability of each site.
	Rates [NumSites]float64
	// First makes the first N opportunities of each key at a site fire
	// deterministically — "the first 3 attempts of every cell panic" is
	// First[ExecPanic] = 3. Rate decisions apply from opportunity N on.
	First [NumSites]int
	// SlowMillis is the ExecSlow/QueueStall stall length (0 selects
	// DefaultSlowMillis).
	SlowMillis int
}

// Validate checks the plan for internal consistency.
func (p *Plan) Validate() error {
	for s := Site(0); s < NumSites; s++ {
		r := p.Rates[s]
		if math.IsNaN(r) || r < 0 || r > 1 {
			return fmt.Errorf("hostfault: rate %g for %s outside [0,1]", r, s)
		}
		if p.First[s] < 0 {
			return fmt.Errorf("hostfault: first count %d for %s negative", p.First[s], s)
		}
	}
	if p.SlowMillis < 0 {
		return fmt.Errorf("hostfault: slow.ms must be >= 0, got %d", p.SlowMillis)
	}
	return nil
}

// Empty reports whether the plan schedules no faults at all.
func (p *Plan) Empty() bool {
	for s := Site(0); s < NumSites; s++ {
		if p.Rates[s] > 0 || p.First[s] > 0 {
			return false
		}
	}
	return true
}

// ParsePlan parses the host-fault plan syntax: a comma-separated list of
// directives, in the fault.ParsePlan house style. An empty string yields
// a nil plan (host faults disabled).
//
//	seed=N            hash seed (default 1)
//	<site>=<rate>     per-opportunity rate, e.g. exec.panic=0.2
//	<site>#<n>        first n opportunities of every key fire, e.g. exec.fail#2
//	slow.ms=N         ExecSlow/QueueStall stall length in milliseconds
//
// Example: "seed=7,exec.panic#2,spill.readfail=0.5,slow.ms=1"
func ParsePlan(s string) (*Plan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	p := &Plan{Seed: 1}
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if name, count, ok := strings.Cut(tok, "#"); ok {
			site, isSite := siteByName(name)
			if !isSite {
				return nil, fmt.Errorf("hostfault: unknown site %q", name)
			}
			n, err := strconv.Atoi(count)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("hostfault: first count for %s: %q", name, count)
			}
			p.First[site] = n
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return nil, fmt.Errorf("hostfault: directive %q is not key=value, site#n or site", tok)
		}
		if site, isSite := siteByName(key); isSite {
			rate, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("hostfault: rate for %s: %v", key, err)
			}
			p.Rates[site] = rate
			continue
		}
		switch key {
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("hostfault: seed: %v", err)
			}
			p.Seed = n
		case "slow.ms":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("hostfault: slow.ms: %v", err)
			}
			p.SlowMillis = n
		default:
			return nil, fmt.Errorf("hostfault: unknown directive %q", key)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// String renders the plan back into ParsePlan syntax: seed first, then
// rates and first-counts in site order, then slow.ms when set. ParsePlan
// of the result reproduces the plan.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	return p.render(p.Atoms())
}

// Atoms decomposes the plan into independently removable directives (the
// shrink units): one atom per active site setting. seed and slow.ms are
// carrier state, not atoms.
func (p *Plan) Atoms() []string {
	var atoms []string
	for s := Site(0); s < NumSites; s++ {
		if p.Rates[s] > 0 {
			atoms = append(atoms, fmt.Sprintf("%s=%s", s, strconv.FormatFloat(p.Rates[s], 'g', -1, 64)))
		}
		if p.First[s] > 0 {
			atoms = append(atoms, fmt.Sprintf("%s#%d", s, p.First[s]))
		}
	}
	return atoms
}

// FromAtoms rebuilds a plan from a subset of Atoms, keeping this plan's
// seed and slow.ms.
func (p *Plan) FromAtoms(atoms []string) (*Plan, error) {
	return ParsePlan(p.render(atoms))
}

// render joins atoms between this plan's seed and slow.ms directives.
func (p *Plan) render(atoms []string) string {
	toks := append([]string{fmt.Sprintf("seed=%d", p.Seed)}, atoms...)
	if p.SlowMillis > 0 {
		toks = append(toks, fmt.Sprintf("slow.ms=%d", p.SlowMillis))
	}
	return strings.Join(toks, ",")
}

// Injector answers the server's host-fault questions for one compiled
// plan. Safe for concurrent use: decisions are keyed by (site, key) with
// a per-pair opportunity counter, so interleaving across keys cannot
// change any key's fault schedule.
type Injector struct {
	seed      uint64
	threshold [NumSites]uint64
	first     [NumSites]int
	slowMs    int

	mu sync.Mutex
	// seen counts opportunities per (site, key).
	//glvet:guardedby mu
	seen map[injKey]int
	// fired counts injected faults per site — the conservation ledger the
	// hostchaos oracles reconcile server metrics against.
	//glvet:guardedby mu
	fired [NumSites]uint64
}

type injKey struct {
	site Site
	key  string
}

// NewInjector compiles a plan. A nil or empty plan yields a nil injector
// (host faults disabled).
func NewInjector(p *Plan) *Injector {
	if p == nil || p.Empty() {
		return nil
	}
	j := &Injector{
		seed:   p.Seed,
		first:  p.First,
		slowMs: p.SlowMillis,
		seen:   make(map[injKey]int),
	}
	if j.slowMs == 0 {
		j.slowMs = DefaultSlowMillis
	}
	for s := Site(0); s < NumSites; s++ {
		j.threshold[s] = fault.RateToThreshold(p.Rates[s])
	}
	return j
}

// hashKey folds a string key into the decision hash (FNV-1a then
// fault.Mix).
func hashKey(key string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return fault.Mix(h)
}

// Hit decides — and consumes — one fault opportunity for site s at key.
// The first Plan.First[s] opportunities of each key fire
// deterministically; later ones fire at the site's rate, hashed from
// (seed, site, key, opportunity index).
func (j *Injector) Hit(s Site, key string) bool {
	if j == nil {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	k := injKey{site: s, key: key}
	n := j.seen[k]
	j.seen[k] = n + 1
	hit := n < j.first[s]
	if !hit && j.threshold[s] != 0 {
		hit = fault.Mix(j.seed^(uint64(s)+1)*0x9e3779b97f4a7c15^hashKey(key)^fault.Mix(uint64(n))) < j.threshold[s]
	}
	if hit {
		j.fired[s]++
	}
	return hit
}

// SlowMillis returns the stall length for ExecSlow/QueueStall hits.
func (j *Injector) SlowMillis() int {
	if j == nil {
		return 0
	}
	return j.slowMs
}

// Corrupt deterministically mangles spill bytes for a SpillCorrupt hit:
// the content is damaged (first byte flipped, tail truncated) but the
// mutation is a pure function of the input, so replays corrupt
// identically.
func Corrupt(b []byte) []byte {
	if len(b) == 0 {
		return []byte{0xff}
	}
	out := append([]byte(nil), b[:len(b)-len(b)/4]...)
	out[0] ^= 0xff
	return out
}

// Fired returns how many faults site s has injected.
func (j *Injector) Fired(s Site) uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.fired[s]
}

// FiredTotal returns the total injected-fault count across sites.
func (j *Injector) FiredTotal() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var n uint64
	for s := Site(0); s < NumSites; s++ {
		n += j.fired[s]
	}
	return n
}

// FiredBySite snapshots the per-site ledger as site-name keys in sorted
// order — the shape hostchaos reports embed.
func (j *Injector) FiredBySite() map[string]uint64 {
	out := make(map[string]uint64)
	if j == nil {
		return out
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	for s := Site(0); s < NumSites; s++ {
		if j.fired[s] > 0 {
			out[s.String()] = j.fired[s]
		}
	}
	return out
}

// FiredSummary renders the ledger as a stable one-line summary in site
// order.
func (j *Injector) FiredSummary() string {
	if j == nil {
		return ""
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var toks []string
	for s := Site(0); s < NumSites; s++ {
		if j.fired[s] > 0 {
			toks = append(toks, fmt.Sprintf("%s=%d", s, j.fired[s]))
		}
	}
	return strings.Join(toks, ",")
}
