package chaos

import (
	"context"
	"repro/internal/fault"
)

// ShrinkStats summarizes one minimization: how many candidate runs it
// spent and how far the plan shrank.
type ShrinkStats struct {
	Runs      int `json:"runs"`
	FromAtoms int `json:"from_atoms"`
	ToAtoms   int `json:"to_atoms"`
}

// atom is one removable ingredient of a fault plan: either a per-site rate
// directive or one scheduled event. ddmin minimizes over the atom set; the
// plan's scalar knobs (seed, recovery config, miscount magnitudes) are
// preserved verbatim so the failure stays the same failure.
type atom struct {
	site  fault.Site
	rate  float64      // > 0: rate atom
	event *fault.Event // non-nil: event atom
}

// atomsOf decomposes a plan into its removable ingredients.
func atomsOf(p *fault.Plan) []atom {
	var out []atom
	for s := fault.GLDrop; s < fault.NumSites; s++ {
		if p.Rates[s] > 0 {
			out = append(out, atom{site: s, rate: p.Rates[s]})
		}
	}
	for i := range p.Events {
		e := p.Events[i]
		out = append(out, atom{site: e.Site, event: &e})
	}
	return out
}

// assemble rebuilds a plan from the base's scalar knobs plus the kept
// atoms.
func assemble(base *fault.Plan, atoms []atom) *fault.Plan {
	p := &fault.Plan{
		Seed:               base.Seed,
		MiscountK:          base.MiscountK,
		WatchDelayCycles:   base.WatchDelayCycles,
		WatchRecheckCycles: base.WatchRecheckCycles,
		Recovery:           base.Recovery,
	}
	for _, a := range atoms {
		if a.event != nil {
			p.Events = append(p.Events, *a.event)
		} else {
			p.Rates[a.site] = a.rate
		}
	}
	return p
}

// Minimize delta-debugs a failing plan down to a minimal reproducer that
// still trips the same oracle/kind verdict. Phase one is DDMin over the
// plan's atoms (rate directives and events); phase two shrinks the
// surviving numbers — rates by decades, event windows by bisection.
// maxRuns bounds the total candidate executions (<=0 selects 200). The
// result is 1-minimal w.r.t. atom removal when the budget sufficed, and
// simply the best plan found otherwise.
func Minimize(cfg RunConfig, plan *fault.Plan, target Violation, maxRuns int) (*fault.Plan, ShrinkStats) {
	if maxRuns <= 0 {
		maxRuns = 200
	}
	atoms := atomsOf(plan)
	stats := ShrinkStats{FromAtoms: len(atoms)}
	// fails reports whether a candidate still trips the target. One past
	// the run budget counts as not failing, so minimization degrades to
	// "best so far" instead of running forever; so does one that cannot
	// build a system at all.
	fails := func(p *fault.Plan) bool {
		if stats.Runs >= maxRuns {
			return false
		}
		stats.Runs++
		out, err := runPlan(context.TODO(), cfg, p)
		return err == nil && out.Matches(target)
	}
	atoms = DDMin(atoms, func(c []atom) bool { return fails(assemble(plan, c)) })
	min := shrinkNumbers(assemble(plan, atoms), fails)
	stats.ToAtoms = len(atomsOf(min))
	return min, stats
}

// DDMin is the classic Zeller/Hildebrandt minimizing delta debugger: try
// ever-finer subsets of atoms and their complements, keep any that still
// fail, and return a 1-minimal failing subset. fails holds the run budget:
// once that is spent it answers false, and DDMin returns the smallest set
// found so far. Both chaos layers shrink their findings with it.
func DDMin[A any](atoms []A, fails func([]A) bool) []A {
	n := 2
	for len(atoms) >= 2 {
		chunks := split(atoms, n)
		reduced := false
		// Try each chunk alone: the failure may live entirely inside one.
		for _, c := range chunks {
			if fails(c) {
				atoms, n = c, 2
				reduced = true
				break
			}
		}
		if reduced {
			continue
		}
		// Try each complement: the chunk may be pure noise. (At n=2 the
		// complements are the chunks themselves, already tested above.)
		if n > 2 {
			for i := range chunks {
				comp := complement(chunks, i)
				if len(comp) == len(atoms) || len(comp) == 0 {
					continue
				}
				if fails(comp) {
					atoms, n = comp, n-1
					reduced = true
					break
				}
			}
		}
		if reduced {
			continue
		}
		if n >= len(atoms) {
			break // 1-minimal
		}
		n *= 2
		if n > len(atoms) {
			n = len(atoms)
		}
	}
	return atoms
}

// split partitions atoms into n non-empty chunks.
func split[A any](atoms []A, n int) [][]A {
	if n > len(atoms) {
		n = len(atoms)
	}
	chunks := make([][]A, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*len(atoms)/n, (i+1)*len(atoms)/n
		if lo < hi {
			chunks = append(chunks, atoms[lo:hi])
		}
	}
	return chunks
}

// complement concatenates every chunk except the i-th.
func complement[A any](chunks [][]A, i int) []A {
	var out []A
	for j, c := range chunks {
		if j != i {
			out = append(out, c...)
		}
	}
	return out
}

// shrinkNumbers greedily reduces the surviving plan's magnitudes while the
// failure persists: rates drop by decades (a minimal reproducer should use
// the weakest fault intensity that still bites), event windows shrink by
// bisection from both ends.
func shrinkNumbers(p *fault.Plan, fails func(*fault.Plan) bool) *fault.Plan {
	for st := fault.GLDrop; st < fault.NumSites; st++ {
		for p.Rates[st] > 1e-7 {
			cand := *p
			cand.Rates[st] = p.Rates[st] / 10
			if !fails(&cand) {
				break
			}
			*p = cand
		}
	}
	for i := range p.Events {
		for p.Events[i].Until > p.Events[i].From {
			w := p.Events[i].Until - p.Events[i].From
			cand := *p
			cand.Events = append([]fault.Event(nil), p.Events...)
			cand.Events[i].Until = cand.Events[i].From + w/2
			if fails(&cand) {
				*p = cand
				continue
			}
			cand = *p
			cand.Events = append([]fault.Event(nil), p.Events...)
			cand.Events[i].From = cand.Events[i].Until - w/2
			if fails(&cand) {
				*p = cand
				continue
			}
			break
		}
	}
	return p
}
