// Package fault is the simulator's deterministic fault-injection subsystem.
//
// A Plan describes which faults to inject — per-site rates plus explicit
// cycle-windowed events — and an Injector built from the plan answers the
// substrate's hot-path questions ("is this G-line sample perturbed this
// cycle?", "is this mesh link down?"). Decisions are a pure function of
// (seed, site, cycle, location) through a splitmix-style hash, so a faulty
// run is exactly as reproducible as a clean one: same seed and plan mean
// the same faults on the same cycles, regardless of sweep parallelism or
// call ordering. That property is what lets Report.Fingerprint pin faulty
// runs in tests.
//
// Every hook is a no-op returning its input unchanged when the relevant
// site has no rate and no events, so a wired-but-empty injector leaves a
// run bit-identical to an uninstrumented one (see the zero-fault golden
// guard test).
package fault

import (
	"fmt"
	"math"

	"repro/internal/metrics"
)

// Site identifies one class of injectable fault.
type Site uint8

// The fault sites, covering the G-line barrier network, the data NoC and
// the L1 spin-watch wakeup path.
const (
	// GLDrop loses one transmitter's assertion on a G-line for one cycle
	// (transient bit-drop): the receiver counts one fewer arrival.
	GLDrop Site = iota
	// GLSpurious adds one phantom assertion to a G-line sample.
	GLSpurious
	// SCSMAMiscount perturbs the S-CSMA count by ±K (Plan.MiscountK).
	SCSMAMiscount
	// NoCCorrupt corrupts a packet's flits on a mesh link; the link-level
	// CRC catches it and the packet is retransmitted, costing an extra
	// serialization of the packet on that link.
	NoCCorrupt
	// NoCLinkDown takes a mesh link down for the cycle (transient outage):
	// the output port cannot start a transmission.
	NoCLinkDown
	// WatchDrop loses an L1 spin-watch wakeup; the core's periodic
	// re-check recovers it after Plan.WatchRecheckCycles.
	WatchDrop
	// WatchDelay delays an L1 spin-watch wakeup by Plan.WatchDelayCycles.
	WatchDelay
	// GLStuckLow holds a G-line at 0 (samples read no assertions).
	// Event-only: stuck-at faults are windows, not rates.
	GLStuckLow
	// GLStuckHigh holds a G-line at 1 (samples read at least one
	// assertion). Event-only.
	GLStuckHigh

	// NumSites is the number of fault sites.
	NumSites
)

// siteNames maps sites to their plan-syntax keys.
var siteNames = [NumSites]string{
	GLDrop:        "gl.drop",
	GLSpurious:    "gl.spurious",
	SCSMAMiscount: "scsma.miscount",
	NoCCorrupt:    "noc.corrupt",
	NoCLinkDown:   "noc.linkdown",
	WatchDrop:     "watch.drop",
	WatchDelay:    "watch.delay",
	GLStuckLow:    "gl.stucklow",
	GLStuckHigh:   "gl.stuckhigh",
}

// String returns the site's plan-syntax key.
func (s Site) String() string {
	if s < NumSites {
		return siteNames[s]
	}
	return fmt.Sprintf("site(%d)", uint8(s))
}

// eventOnly reports whether the site only makes sense as a cycle window
// (stuck-at faults), not as a per-opportunity rate.
func (s Site) eventOnly() bool { return s == GLStuckLow || s == GLStuckHigh }

// EventOnly reports whether the site can only be scheduled as a cycle
// window (stuck-at faults), never as a per-opportunity rate. Plan
// generators (internal/chaos) use it to pick a legal temporal shape.
func (s Site) EventOnly() bool { return s.eventOnly() }

// Event is one explicitly scheduled fault: site s active over cycles
// [From, Until] at location Loc (-1 matches every location). For stuck-at
// sites the window is the stuck period; for transient sites each in-window
// opportunity fires.
type Event struct {
	Site Site
	// From and Until bound the active cycle window, inclusive.
	From, Until uint64
	// Loc restricts the event to one location (a G-line id, or a mesh
	// node*8+port code); -1 matches any location.
	Loc int64
	// K overrides Plan.MiscountK for SCSMAMiscount events (0 = default).
	K int
}

// Recovery configures the recovering barrier protocol layered over the
// G-line network when faults are enabled (see core.Recovering).
type Recovery struct {
	// Disabled turns the recovery layer off: faults are still injected but
	// the bare protocol runs unguarded (to demonstrate the deadlock the
	// guard prevents).
	Disabled bool
	// Timeout is the number of cycles an episode (first arrival to full
	// release) may stay open before the guard re-arms the controllers and
	// retries. 0 selects DefaultTimeout.
	Timeout uint64
	// MaxRetries bounds hardware retries per episode before the guard
	// escalates to the software fallback. 0 selects DefaultMaxRetries.
	MaxRetries int
	// FallbackPenalty is the per-core release latency of the software
	// fallback barrier (modeling a DSW episode). 0 selects
	// DefaultFallbackPenalty.
	FallbackPenalty uint64
	// StickyAfter is the number of consecutive fallback episodes after
	// which a context stops retrying the hardware and stays on the
	// software fallback. 0 selects DefaultStickyAfter; negative disables
	// stickiness.
	StickyAfter int
}

// Recovery defaults; chosen so a healthy barrier never trips the guard
// (episode skew in every shipped workload is far below the timeout) while
// a wedged one recovers ~25x faster than the engine's stall watchdog.
const (
	DefaultTimeout         = 200_000
	DefaultMaxRetries      = 4
	DefaultFallbackPenalty = 1_500
	DefaultStickyAfter     = 8
)

// WithDefaults returns the recovery config with zero fields replaced by
// the package defaults.
func (r Recovery) WithDefaults() Recovery {
	if r.Timeout == 0 {
		r.Timeout = DefaultTimeout
	}
	if r.MaxRetries == 0 {
		r.MaxRetries = DefaultMaxRetries
	}
	if r.FallbackPenalty == 0 {
		r.FallbackPenalty = DefaultFallbackPenalty
	}
	if r.StickyAfter == 0 {
		r.StickyAfter = DefaultStickyAfter
	}
	return r
}

// Plan is a complete, self-contained fault schedule. The zero value is a
// valid empty plan: wired into a system it injects nothing and changes no
// behavior.
type Plan struct {
	// Seed drives every rate decision; same seed, same plan, same faults.
	Seed uint64
	// Rates holds the per-opportunity fault probability of each site.
	Rates [NumSites]float64
	// Events are explicitly scheduled faults and stuck-at windows.
	Events []Event
	// MiscountK is the S-CSMA miscount magnitude (default 1).
	MiscountK int
	// WatchDelayCycles is the WatchDelay perturbation (default 64).
	WatchDelayCycles uint64
	// WatchRecheckCycles is the spin re-check period recovering a dropped
	// watch wakeup (default 2048).
	WatchRecheckCycles uint64
	// Recovery configures the recovering barrier protocol.
	Recovery Recovery
}

// Validate checks the plan for internal consistency.
func (p *Plan) Validate() error {
	for s := Site(0); s < NumSites; s++ {
		r := p.Rates[s]
		if math.IsNaN(r) || r < 0 || r > 1 {
			return fmt.Errorf("fault: rate %g for %s outside [0,1]", r, s)
		}
		if r > 0 && s.eventOnly() {
			return fmt.Errorf("fault: %s is event-only (use @from-until:%s)", s, s)
		}
	}
	for i, e := range p.Events {
		if e.Site >= NumSites {
			return fmt.Errorf("fault: event %d has invalid site %d", i, e.Site)
		}
		if e.Until < e.From {
			return fmt.Errorf("fault: event %d window [%d,%d] inverted", i, e.From, e.Until)
		}
		if e.K < 0 {
			return fmt.Errorf("fault: event %d has negative K", i)
		}
	}
	if p.MiscountK < 0 {
		return fmt.Errorf("fault: MiscountK must be >=0, got %d", p.MiscountK)
	}
	if p.Recovery.Timeout > 0 && p.Recovery.Timeout < 64 {
		return fmt.Errorf("fault: recovery timeout %d is below the hardware dance length", p.Recovery.Timeout)
	}
	return nil
}

// Empty reports whether the plan schedules no faults at all.
func (p *Plan) Empty() bool {
	for _, r := range p.Rates {
		if r > 0 {
			return false
		}
	}
	return len(p.Events) == 0
}

// Metric names registered by the injector (glvet:metricname requires every
// registration to go through a package-level const).
const (
	// MetricInjected counts every injected fault.
	MetricInjected = "fault.injected"
	// MetricInjectedPrefix is the per-site counter family; the full names
	// are MetricInjectedPrefix + Site.String().
	MetricInjectedPrefix = "fault.injected."
)

// Injector answers the substrate's fault questions for one simulated
// system. It is not safe for concurrent use; every system owns its own
// (sweeps build one injector per cell from the shared plan).
type Injector struct {
	seed      uint64
	threshold [NumSites]uint64 // rate scaled to 2^64; 0 = never
	events    [NumSites][]Event
	active    [NumSites]bool // site has a rate or events

	glActive    bool // any G-line site live (single branch on the hot path)
	nocActive   bool
	watchActive bool

	miscountK    int
	watchDelay   uint64
	watchRecheck uint64

	total   *metrics.Counter
	bySite  [NumSites]*metrics.Counter
	plan    *Plan
	nextLoc uint64
}

// NewInjector compiles a plan. A nil plan yields a nil injector (the
// canonical "faults disabled" representation).
func NewInjector(p *Plan) *Injector {
	if p == nil {
		return nil
	}
	j := &Injector{
		seed:         p.Seed,
		miscountK:    p.MiscountK,
		watchDelay:   p.WatchDelayCycles,
		watchRecheck: p.WatchRecheckCycles,
		plan:         p,
	}
	if j.miscountK == 0 {
		j.miscountK = 1
	}
	if j.watchDelay == 0 {
		j.watchDelay = 64
	}
	if j.watchRecheck == 0 {
		j.watchRecheck = 2048
	}
	for s := Site(0); s < NumSites; s++ {
		j.threshold[s] = RateToThreshold(p.Rates[s])
	}
	for _, e := range p.Events {
		j.events[e.Site] = append(j.events[e.Site], e)
	}
	for s := Site(0); s < NumSites; s++ {
		j.active[s] = j.threshold[s] != 0 || len(j.events[s]) > 0
	}
	j.glActive = j.active[GLDrop] || j.active[GLSpurious] || j.active[SCSMAMiscount] ||
		j.active[GLStuckLow] || j.active[GLStuckHigh]
	j.nocActive = j.active[NoCCorrupt] || j.active[NoCLinkDown]
	j.watchActive = j.active[WatchDrop] || j.active[WatchDelay]
	j.Bind(metrics.NewRegistry())
	return j
}

// Plan returns the plan the injector was compiled from.
func (j *Injector) Plan() *Plan { return j.plan }

// Bind re-homes the injector's fault counters into reg (the system-level
// registry), so injected-fault counts appear in the run report. Counts
// recorded before Bind are discarded.
func (j *Injector) Bind(reg *metrics.Registry) {
	j.total = reg.Counter(MetricInjected)
	for s := Site(0); s < NumSites; s++ {
		j.bySite[s] = reg.Counter(MetricInjectedPrefix + s.String())
	}
}

// RateToThreshold scales a probability to a uint64 comparison threshold:
// a hash below it is a hit.
func RateToThreshold(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return ^uint64(0)
	}
	return uint64(rate * float64(1<<63) * 2)
}

// Mix is a splitmix64-style avalanche hash: the stateless random oracle
// behind every rate decision, here and in the job server's host faults.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hit decides whether site s fires at (cycle, loc): an in-window event
// always fires; otherwise the rate threshold is compared against the
// hashed coordinates.
func (j *Injector) hit(s Site, cycle, loc uint64) bool {
	for _, e := range j.events[s] {
		if cycle >= e.From && cycle <= e.Until && (e.Loc < 0 || uint64(e.Loc) == loc) {
			return true
		}
	}
	t := j.threshold[s]
	return t != 0 && Mix(j.seed^(uint64(s)+1)*0x9e3779b97f4a7c15^Mix(cycle)^Mix(loc^0xd1b54a32d192ed03)) < t
}

// eventK returns the miscount magnitude for (cycle, loc), honoring a
// matching event's K override.
func (j *Injector) eventK(cycle, loc uint64) int {
	for _, e := range j.events[SCSMAMiscount] {
		if e.K > 0 && cycle >= e.From && cycle <= e.Until && (e.Loc < 0 || uint64(e.Loc) == loc) {
			return e.K
		}
	}
	return j.miscountK
}

// record counts one injected fault.
func (j *Injector) record(s Site) {
	j.total.Inc()
	j.bySite[s].Inc()
}

// GLActive reports whether any G-line fault site is live; lines skip the
// sampling hook entirely otherwise.
func (j *Injector) GLActive() bool { return j != nil && j.glActive }

// SampleLine perturbs the S-CSMA sample of G-line `line` for this cycle:
// n transmitters actually asserted, and the returned count is what the
// receiver observes. Applies stuck-at windows, transient drops, spurious
// assertions and S-CSMA miscounts, in that order.
func (j *Injector) SampleLine(line, cycle uint64, n int) int {
	if !j.glActive {
		return n
	}
	if j.active[GLStuckLow] && j.hit(GLStuckLow, cycle, line) {
		if n != 0 {
			j.record(GLStuckLow)
		}
		return 0
	}
	if j.active[GLStuckHigh] && j.hit(GLStuckHigh, cycle, line) {
		if n == 0 {
			j.record(GLStuckHigh)
		}
		if n < 1 {
			n = 1
		}
		return n
	}
	if n > 0 && j.active[GLDrop] && j.hit(GLDrop, cycle, line) {
		j.record(GLDrop)
		n--
	}
	if j.active[GLSpurious] && j.hit(GLSpurious, cycle, line) {
		j.record(GLSpurious)
		n++
	}
	if n > 0 && j.active[SCSMAMiscount] && j.hit(SCSMAMiscount, cycle, line) {
		j.record(SCSMAMiscount)
		k := j.eventK(cycle, line)
		// The hash's next bit picks the direction; undercounts clamp at 0.
		if Mix(j.seed^cycle^line^0xa0761d6478bd642f)&1 == 0 {
			n += k
		} else if n -= k; n < 0 {
			n = 0
		}
	}
	return n
}

// nocLoc packs a mesh (node, port) into one location code.
func nocLoc(node, port int) uint64 { return uint64(node)<<3 | uint64(port) }

// LinkDown reports whether the mesh output port (node, port) is down this
// cycle; a down link cannot start a transmission.
func (j *Injector) LinkDown(cycle uint64, node, port int) bool {
	if j == nil || !j.active[NoCLinkDown] {
		return false
	}
	if j.hit(NoCLinkDown, cycle, nocLoc(node, port)) {
		j.record(NoCLinkDown)
		return true
	}
	return false
}

// Corrupt reports whether the packet starting transmission on (node, port)
// this cycle is corrupted in flight; the caller models one link-level
// retransmission.
func (j *Injector) Corrupt(cycle uint64, node, port int) bool {
	if j == nil || !j.active[NoCCorrupt] {
		return false
	}
	if j.hit(NoCCorrupt, cycle, nocLoc(node, port)) {
		j.record(NoCCorrupt)
		return true
	}
	return false
}

// WatchPerturb returns the extra delay applied to an L1 spin-watch wakeup
// on `tile` fired at `cycle`: 0 when the wakeup is clean, the re-check
// period when it is dropped, or the delay window when it is delayed.
func (j *Injector) WatchPerturb(cycle uint64, tile int) uint64 {
	if j == nil || !j.watchActive {
		return 0
	}
	loc := uint64(tile)
	if j.active[WatchDrop] && j.hit(WatchDrop, cycle, loc) {
		j.record(WatchDrop)
		return j.watchRecheck
	}
	if j.active[WatchDelay] && j.hit(WatchDelay, cycle, loc) {
		j.record(WatchDelay)
		return j.watchDelay
	}
	return 0
}
