package analyzers

import (
	"go/ast"

	"dclue/internal/lint/analysis"
)

// Goroutine confines real concurrency to the two packages built for it:
// internal/runner (the work-stealing sweep pool, whose merge step restores
// point order) and internal/farm (the multi-process sweep coordinator). The
// kernel in internal/sim needs no exemption: its processes are stdlib
// coroutines (iter.Pull) stepped by the event loop. A `go` statement,
// channel, or sync.WaitGroup anywhere else introduces scheduling
// nondeterminism the kernel cannot serialize, which the byte-identical-sweep
// regression would only catch after the fact. sync.Mutex stays legal
// everywhere: mutual exclusion protects shared state without creating
// concurrency. Test files are exempt — the test harness may spawn helpers;
// model code may not.
//
// The analyzer also knows the continuation actor style: packages on the
// continuation-only list (see continuationOnly) are per-packet hot paths
// that were deliberately rebuilt as callback state machines, where each
// sim.Proc step would add a coroutine switch to every event. There it
// additionally flags the process-backed kernel primitives —
// naming the sim.Proc or sim.Mailbox types, or calling sim.NewMailbox —
// since any use of the process API has to name one of them. Pure callback
// scheduling (sim.After/At, EventID) stays legal everywhere.
var Goroutine = &analysis.Analyzer{
	Name: "goroutine",
	Doc:  "forbid go statements, channels, and sync.WaitGroup outside internal/runner and internal/farm; forbid process-backed sim primitives in continuation-only packages",
	Run:  runGoroutine,
}

func runGoroutine(pass *analysis.Pass) error {
	if concurrencyExempt(pass.PkgPath) {
		return nil
	}
	contOnly := continuationOnly(pass.PkgPath)
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "goroutine spawned outside the sanctioned concurrency packages (internal/runner, internal/farm): model code must run single-threaded under the sim kernel")
			case *ast.ChanType:
				pass.Reportf(n.Pos(), "channel type outside the sanctioned concurrency packages (internal/runner, internal/farm): use sim.Mailbox for model-level message passing")
				return false // one report per channel type, not per nesting
			case *ast.SelectorExpr:
				id, ok := n.X.(*ast.Ident)
				if !ok {
					return true
				}
				switch n.Sel.Name {
				case "WaitGroup":
					if path, isPkg := pass.PkgNameOf(f, id); isPkg && path == "sync" {
						pass.Reportf(n.Pos(), "sync.WaitGroup outside the sanctioned concurrency packages (internal/runner, internal/farm)")
					}
				case "Proc", "Mailbox", "NewMailbox":
					if !contOnly {
						return true
					}
					if path, isPkg := pass.PkgNameOf(f, id); isPkg && isSimImport(path) {
						pass.Reportf(n.Pos(), "sim.%s in a continuation-only package: this hot path runs as callback state machines; process-backed code would add a coroutine switch per event", n.Sel.Name)
					}
				}
			}
			return true
		})
	}
	return nil
}

// isSimImport matches the kernel package by full module path or by the bare
// fixture path.
func isSimImport(path string) bool {
	return path == "dclue/internal/sim" || path == "sim"
}
