// Package cyclepure implements the glvet analyzer that enforces purity of
// the simulator's per-cycle hot path. It builds a static call graph over
// the whole loaded program, walks it from the registered cycle-path roots,
// and flags constructs that have no business inside a cycle:
//
//   - goroutine spawns (the simulated system is single-threaded by design;
//     concurrency lives only in internal/sweep, outside the cycle path);
//   - channel operations and select statements;
//   - sync primitives (mutexes block; the cycle path never contends);
//   - fmt/log printing and os/io/bufio/net/syscall calls (I/O stalls and
//     interleaves nondeterministically under parallel sweeps);
//   - time.Sleep and friends.
//
// Roots are discovered three ways: functions carrying a `//glvet:cyclepath`
// doc-comment directive; the Tick and Busy methods of types implementing
// repro/internal/engine.Component (the clocked-component contract the
// engine steps on every cycle a component is due, and polls after each
// stepped cycle: G-line network FSMs, the NoC mesh, the recovering-barrier
// guard); and methods named Wait on types implementing
// repro/internal/barrier.Barrier (the per-episode barrier entry points).
//
// The call graph is the framework's shared one (analysis.BuildCallGraph):
// it follows static calls and interface method calls (resolved to every
// in-module implementation); function values that cross a data
// structure — e.g. engine event closures — are not traced, so their
// creation sites should carry the directive when they feed the cycle path.
// Formatting that only builds strings (fmt.Sprintf, fmt.Errorf) is allowed:
// error construction on failure paths is deterministic and cold.
package cyclepure

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
)

// Analyzer is the cyclepure analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "cyclepure",
	Doc:  "flag goroutines, channel ops, blocking I/O and printing reachable from the per-cycle hot path",
	Run:  run,
}

// rootIfaces names the interfaces whose in-module implementations are
// cycle-path roots, by (package path, interface name, method name).
var rootIfaces = []struct{ pkg, iface, method string }{
	{"repro/internal/engine", "Component", "Tick"},
	{"repro/internal/engine", "Component", "Busy"},
	{"repro/internal/barrier", "Barrier", "Wait"},
}

// bannedPkgs are packages whose calls block, print or interleave; any call
// into them from the cycle path is flagged.
var bannedPkgs = map[string]string{
	"os":      "operating-system call",
	"io":      "I/O call",
	"bufio":   "buffered I/O call",
	"net":     "network call",
	"syscall": "syscall",
	"log":     "logging call",
}

// printers are the fmt functions that write to a stream (pure string
// builders like Sprintf and Errorf stay allowed).
var printers = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

func run(pass *analysis.Pass) error {
	g := analysis.BuildCallGraph(pass.Prog)
	roots := findRoots(pass, g)

	// BFS with parent links for path reconstruction in diagnostics.
	parent := map[*types.Func]*types.Func{}
	var queue []*types.Func
	for _, r := range roots {
		if _, ok := parent[r]; !ok {
			parent[r] = nil
			queue = append(queue, r)
		}
	}
	targets := map[*analysis.Package]bool{}
	for _, pkg := range pass.Packages {
		targets[pkg] = true
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		node := g.Nodes[fn]
		if node == nil {
			continue
		}
		if targets[node.Pkg] {
			checkBody(pass, node, chain(parent, fn))
		}
		for _, callee := range node.Out {
			if _, seen := parent[callee]; !seen {
				parent[callee] = fn
				queue = append(queue, callee)
			}
		}
	}
	return nil
}

// chain renders the root→fn call path for diagnostics.
func chain(parent map[*types.Func]*types.Func, fn *types.Func) string {
	var names []string
	for f := fn; f != nil; f = parent[f] {
		names = append(names, shortName(f))
		if len(names) > 6 { // keep messages readable on deep paths
			names = append(names, "…")
			break
		}
	}
	s := names[len(names)-1]
	for i := len(names) - 2; i >= 0; i-- {
		s += " → " + names[i]
	}
	return s
}

func shortName(f *types.Func) string {
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		if named := analysis.ReceiverNamed(sig.Recv().Type()); named != nil {
			return named.Obj().Name() + "." + f.Name()
		}
	}
	return f.Name()
}

// findRoots returns the cycle-path root functions, deterministically
// ordered.
func findRoots(pass *analysis.Pass, g *analysis.CallGraph) []*types.Func {
	ifaces := loadRootIfaces(pass)
	var roots []*types.Func
	for fn, node := range g.Nodes {
		if analysis.HasDirective(node.Decl, "cyclepath") {
			roots = append(roots, fn)
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		for _, ri := range ifaces {
			if fn.Name() == ri.method && analysis.ImplementsVia(fn, ri.iface) {
				roots = append(roots, fn)
				break
			}
		}
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i].Pos() < roots[j].Pos() })
	return roots
}

type rootIface struct {
	method string
	iface  *types.Interface
}

// loadRootIfaces resolves the root interface types from the loaded program
// (absent packages — e.g. in fixtures — are simply skipped; fixtures mark
// roots with the directive instead).
func loadRootIfaces(pass *analysis.Pass) []rootIface {
	var out []rootIface
	for _, ri := range rootIfaces {
		pkg, ok := pass.Prog.ByPath[ri.pkg]
		if !ok {
			continue
		}
		obj, ok := pkg.Types.Scope().Lookup(ri.iface).(*types.TypeName)
		if !ok {
			continue
		}
		iface, ok := obj.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		out = append(out, rootIface{method: ri.method, iface: iface})
	}
	return out
}

// checkBody scans one reachable function (including its nested function
// literals, which run on the same path when invoked) for impure constructs.
func checkBody(pass *analysis.Pass, node *analysis.CallNode, path string) {
	info := node.Pkg.Info
	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "goroutine spawned in cycle path (%s)", path)
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send in cycle path (%s)", path)
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "select in cycle path (%s)", path)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pass.Reportf(n.Pos(), "channel receive in cycle path (%s)", path)
			}
		case *ast.CallExpr:
			checkCall(pass, info, n, path)
		}
		return true
	})
}

// checkCall flags calls into banned packages and printing functions.
func checkCall(pass *analysis.Pass, info *types.Info, call *ast.CallExpr, path string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	switch p := fn.Pkg().Path(); {
	case p == "fmt" && printers[fn.Name()]:
		pass.Reportf(call.Pos(), "fmt.%s prints from the cycle path (%s)", fn.Name(), path)
	case p == "time" && fn.Name() == "Sleep":
		pass.Reportf(call.Pos(), "time.Sleep blocks the cycle path (%s)", path)
	case p == "sync":
		pass.Reportf(call.Pos(), "sync.%s in cycle path (%s); the simulated system is single-threaded", fn.Name(), path)
	default:
		if why, banned := bannedPkgs[p]; banned {
			pass.Reportf(call.Pos(), "%s %s.%s in cycle path (%s)", why, p, fn.Name(), path)
		}
	}
}
