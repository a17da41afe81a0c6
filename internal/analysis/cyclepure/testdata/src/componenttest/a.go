// Package componenttest checks cyclepure's interface-based root discovery:
// router implements engine.Component and carries no directive, so its
// impurities are reported only because Tick and Busy are roots of the
// engine's component contract.
package componenttest

import (
	"fmt"
	"os"

	"repro/internal/engine"
)

type router struct{ queued int }

var _ engine.Component = (*router)(nil)

func (r *router) Tick(cycle uint64) uint64 {
	r.route(cycle)
	return engine.Never
}

func (r *router) Busy() bool {
	return r.queued > 0 || os.Getenv("ROUTER_BUSY") != "" // want `operating-system call os.Getenv in cycle path`
}

// route is reachable only from Tick.
func (r *router) route(cycle uint64) {
	fmt.Println("routing", cycle) // want `fmt.Println prints from the cycle path`
}

// describe is not reachable from any root: printing here is fine.
func (r *router) describe() {
	fmt.Println("router with", r.queued, "queued")
}
