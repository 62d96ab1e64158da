// Package nondetsource flags reads of nondeterministic inputs inside
// the deterministic packages: wall-clock time (reads and timers), the
// process environment, the unseeded global math/rand generator,
// goroutine launches, and recover().
// Everything between a workload spec and the bytes of a Result must be
// a pure function of (spec, params, seed); any of these sources makes
// two runs of the same configuration observable as different — exactly
// the class of bug the byte-identical golden tests exist to catch, but
// caught at compile time instead of at the next golden regeneration.
//
// Goroutine launches are included because concurrency inside a
// Result-producing path invites completion-order dependence; the sweep
// engine's bounded worker pool is the sanctioned exception (results are
// reassembled in deterministic run order) and is annotated
// //lint:nondet-safe with that justification. Timer constructors
// (time.Sleep, time.After, time.NewTimer, ...) are banned alongside
// time.Now because a wall-clock race deciding control flow is the same
// bug as a wall-clock value reaching a Result; the sweep engine's
// deadline and grace timers carry //lint:nondet-safe reasons
// explaining why elapsed time cannot reach a Result there.
//
// recover() gets its own rule with its own key: a bare recover that
// swallows a panic turns a crash into a silently wrong grid — worse
// than nondeterminism. Every recover in a deterministic package must be
// annotated //lint:recover-ok <reason>, naming the isolation boundary
// it implements (the engine's safeCall is the sanctioned one: panics
// become structured FailPanic outcome errors, never nil results).
package nondetsource

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/lintkit"
)

// Analyzer is the nondetsource check.
var Analyzer = &lintkit.Analyzer{
	Name: "nondetsource",
	Doc: "flags time.Now, timers, os.Getenv, unseeded math/rand and goroutine launches " +
		"in deterministic packages unless annotated //lint:nondet-safe <reason>, " +
		"and recover() unless annotated //lint:recover-ok <reason>",
	Run: run,
}

// bannedFuncs maps package path -> function name -> description of the
// nondeterminism it introduces. Only package-level functions are
// banned: methods on an explicitly seeded *rand.Rand are fine.
var bannedFuncs = map[string]map[string]string{
	"time": {
		"Now":       "reads the wall clock",
		"Since":     "reads the wall clock",
		"Until":     "reads the wall clock",
		"Sleep":     "blocks on the wall clock",
		"After":     "starts a wall-clock timer",
		"Tick":      "starts a wall-clock ticker",
		"NewTimer":  "starts a wall-clock timer",
		"NewTicker": "starts a wall-clock ticker",
		"AfterFunc": "starts a wall-clock timer",
	},
	"os": {
		"Getenv":    "reads the process environment",
		"LookupEnv": "reads the process environment",
		"Environ":   "reads the process environment",
	},
}

// seededConstructors are the math/rand functions that are fine: they
// build explicitly seeded generators rather than drawing from the
// global one.
var seededConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true, // math/rand/v2
}

func run(pass *lintkit.Pass) error {
	if !lintkit.PathInSet(pass.Pkg.Path(), lintkit.DeterministicPackages) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				if !pass.Suppressed(n.Pos(), "nondet-safe") {
					pass.Reportf(n.Pos(),
						"goroutine launch in deterministic package: completion order must not reach the Result; annotate //lint:nondet-safe <reason> if it cannot")
				}
			case *ast.CallExpr:
				if isRecover(pass.TypesInfo, n) {
					if !pass.Suppressed(n.Pos(), "recover-ok") {
						pass.Reportf(n.Pos(),
							"recover() in deterministic package: a swallowed panic turns a crash into a silently wrong Result; annotate //lint:recover-ok <reason> naming the isolation boundary")
					}
					return true
				}
				fn := calleeFunc(pass.TypesInfo, n)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true // methods are never the banned package-level sources
				}
				pkgPath, name := fn.Pkg().Path(), fn.Name()
				var why string
				if m, ok := bannedFuncs[pkgPath]; ok {
					why = m[name]
				} else if (pkgPath == "math/rand" || pkgPath == "math/rand/v2") && !seededConstructors[name] {
					why = "draws from the unseeded global generator"
				}
				if why == "" {
					return true
				}
				if !pass.Suppressed(n.Pos(), "nondet-safe") {
					pass.Reportf(n.Pos(),
						"%s.%s %s: deterministic packages must be pure functions of (spec, params, seed); annotate //lint:nondet-safe <reason> if the value cannot reach a Result",
						pkgPath, name, why)
				}
			}
			return true
		})
	}
	return nil
}

// isRecover reports whether the call invokes the recover builtin (not a
// function or method that merely shares the name).
func isRecover(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "recover"
}

// calleeFunc resolves a call's callee to its types.Func, or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
