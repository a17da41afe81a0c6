package hostchaos

import (
	"repro/internal/chaos"
	"repro/internal/serve/hostfault"
)

// Minimize shrinks a tripping plan to a 1-minimal reproducer with
// chaos.DDMin over its atoms (one site's rate or first-N burst each). The
// predicate is called at most maxRuns times; past that the smallest plan
// found so far is returned. The result keeps the original's seed and
// slow-site latency so it replays identically.
func Minimize(plan *hostfault.Plan, trips func(*hostfault.Plan) bool, maxRuns int) (*hostfault.Plan, chaos.ShrinkStats) {
	rebuild := func(atoms []string) *hostfault.Plan {
		p, err := plan.FromAtoms(atoms)
		if err != nil {
			// Atoms came from Atoms() on a valid plan; any subset reparses.
			panic("hostchaos: unshrinkable atoms: " + err.Error())
		}
		return p
	}
	atoms := plan.Atoms()
	stats := chaos.ShrinkStats{FromAtoms: len(atoms)}
	atoms = chaos.DDMin(atoms, func(c []string) bool {
		if stats.Runs >= maxRuns {
			return false
		}
		stats.Runs++
		return trips(rebuild(c))
	})
	stats.ToAtoms = len(atoms)
	return rebuild(atoms), stats
}
