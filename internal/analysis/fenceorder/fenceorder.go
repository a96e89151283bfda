// Package fenceorder checks the documented fence points of the SpRWL core
// protocol (package internal/core) over the control flow graph, so
// violations that only exist on SOME execution path — an early return that
// skips the retract, a conditional that bypasses the clockW store, a loop
// that re-runs the body after unflagging — are caught even when every
// individual straight-line slice of the function looks correctly ordered.
// A violation in plain source order is wrong on every path, so it is
// caught too.
//
// Per function (declarations and each function literal separately), seven
// path rules run over protocol events (see events.go):
//
//   - F1 (may-forward): no path may reach a critical-section body
//     invocation with the reader flag already retracted — re-running the
//     body after unflagReader/departFrom/stateEmpty leaves the read
//     invisible to writers;
//
//   - F2 (must-forward): in a function that stores the writer clock, every
//     path into a stateWriter advertise must have stored clockW first;
//
//   - F3 (must-forward): in a function that flags the reader, every path
//     into a readerVer <- 0 retire must already be flagged;
//
//   - F4 (must-backward): every path out of a readerVer registration
//     (nonzero store) must perform a glVer validation load — conditional
//     validation is the unsafe lazy-subscription pattern;
//
//   - F5 (must-backward): in a function that both flags the reader and
//     invokes the body, every path from the body to return must retract
//     the flag — a path that exits flagged leaks the published slot;
//
//   - F6 (must-backward, wake-after-retire): every path out of a store to a
//     parked-on phase word — stateEmpty to the state word, or any store to
//     a readerVer registration word — must reach a Wake of the same family
//     before return. Parked waiters sleep on exactly these words
//     (readersWait on state, lockGL's §3.3 drain on readerVer), and the
//     parking table has no spurious wakeups: a phase store whose path can
//     return without the wake strands a sleeper forever;
//
//   - F7 (must-forward, check-before-park): every path into a Waiter.Pause
//     on a protocol word must have re-checked that word — a Load of the
//     same family (IsLocked for the gl word) — since the last Pause.
//     Parking on a stale check is the lost-wakeup window: the word may
//     already hold the waiter's target value, and the wake that announced
//     it has already been consumed.
//
// One more rule needs no CFG:
//
//   - E: core makes no package-level sync/atomic calls. Protocol state
//     lives in simulated memory behind env.Env, which is seq-cst by
//     contract; a direct atomic on Go-side memory bypasses the simulated
//     model and the instrumentation. Typed atomic.Uint64-style method
//     calls on auxiliary Go-side state are fine and are not matched.
//
// F2/F3/F5 are scoped to functions that contain the establishing event at
// all, so helpers that only perform one half of a handshake (finishWrite's
// stateEmpty store, checkForReaders' state loads) are not false positives.
// F6 and F7 are unconditional: a retire store or a park is itself the
// establishing event. tx.Abort terminates a path (transactions never fall
// through an abort), and events inside nested function literals belong to
// the literal's own analysis, not the enclosing function's CFG.
//
// The wait loops in core bind the watched address once and reuse it
// (`a := l.stateAddr(wait)` … `l.e.Load(a)` … `w.Pause(a, …)`), so this
// analyzer resolves single-binding local aliases of the address helpers
// before classifying; an alias rebound to a different family is dropped.
package fenceorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"sprwl/internal/analysis/astq"
	"sprwl/internal/analysis/cfg"
	"sprwl/internal/analysis/dataflow"
	"sprwl/internal/analysis/driver"
)

// Analyzer is the fenceorder check.
var Analyzer = &driver.Analyzer{
	Name: "fenceorder",
	Doc:  "flow-sensitive fence ordering of the core protocol: flag/retract, clockW/stateWriter, and lazy-subscription validation on every CFG path; no raw sync/atomic calls in core",
	Run:  run,
}

// Bit indices of the three dataflow universes.
const (
	bitFlagged = 0 // must-forward: reader is flagged on every path here
	bitClockW  = 1 // must-forward: clockW stored on every path here
	// Check-before-park facts (F7), one per parked-on family: the word
	// has been re-checked since the last park on it.
	bitCheckedState     = 2
	bitCheckedReaderVer = 3
	bitCheckedGL        = 4
	mustFwdBits         = 5

	bitRetracted = 0 // may-forward: some path here has retracted the flag

	bitGLVerLoad = 0 // must-backward: glVer load ahead on every path
	bitRetract   = 1 // must-backward: retract ahead on every path
	// Wake-after-retire facts (F6), one per parked-on word family: a
	// same-family Wake lies ahead on every path.
	bitWakeState     = 2
	bitWakeReaderVer = 3
	mustBwdBits      = 4
)

// checkedBit maps a parked-on family to its F7 fact bit; ok is false for
// families no core wait loop parks on.
func checkedBit(fam family) (int, bool) {
	switch fam {
	case famState:
		return bitCheckedState, true
	case famReaderVer:
		return bitCheckedReaderVer, true
	case famGL:
		return bitCheckedGL, true
	}
	return 0, false
}

func run(pass *driver.Pass) error {
	// The invariants are properties of the core implementation package
	// and of fixtures mirroring it.
	if pass.Pkg.Name != "core" {
		return nil
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkBody(pass, info, fn.Body)
				}
			case *ast.FuncLit:
				// Each literal is its own protocol sequence (attempt
				// closures, deferred cleanups); cfg.Walk keeps its events
				// out of the enclosing function's analysis.
				checkBody(pass, info, fn.Body)
			case *ast.CallExpr:
				// Rule E: no raw sync/atomic in core.
				if ev, ok := classify(info, fn, nil); ok && ev.kind == evAtomic {
					pass.Reportf(ev.pos, "fence order: direct sync/atomic call %s in core bypasses the simulated memory model; protocol state must use the env Load/Store/CAS/Add API", ev.name)
				}
			}
			return true
		})
	}
	return nil
}

func checkBody(pass *driver.Pass, info *types.Info, body *ast.BlockStmt) {
	g := cfg.New(body, cfg.Options{
		Info: info,
		NoReturn: func(call *ast.CallExpr) bool {
			// tx.Abort never returns into the transaction body.
			return astq.CalleeName(call) == "Abort"
		},
	})

	// Resolve single-binding local aliases of the address helpers
	// (`a := l.stateAddr(wait)`), so loads, parks, and wakes through the
	// alias classify with the right family. An alias later rebound to a
	// different family is dropped rather than guessed at.
	aliases := make(map[types.Object]family)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok != token.DEFINE && as.Tok != token.ASSIGN) {
			return true
		}
		for i, lhs := range as.Lhs {
			if i >= len(as.Rhs) {
				break
			}
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.ObjectOf(id)
			if obj == nil {
				continue
			}
			fam := addrFamily(as.Rhs[i])
			if prev, seen := aliases[obj]; seen && prev != fam {
				fam = famOther
			}
			aliases[obj] = fam
		}
		return true
	})
	resolve := func(e ast.Expr) family {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := info.ObjectOf(id); obj != nil {
				return aliases[obj]
			}
		}
		return famOther
	}

	// Classify once; the three flows and the replay passes all index this.
	events := make(map[ast.Node]event)
	aborts := make(map[ast.Node]bool)
	var hasFlag, hasClockWStore bool
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			cfg.Walk(n, b.Deferred, func(m ast.Node, _ bool) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok {
					return true
				}
				if astq.CalleeName(call) == "Abort" || astq.PanicsOnly(info, call) {
					aborts[m] = true
					return true
				}
				if ev, ok := classify(info, call, resolve); ok {
					events[m] = ev
					switch {
					case ev.kind == evFlag:
						hasFlag = true
					case ev.kind == evStore && ev.fam == famClockW:
						hasClockWStore = true
					}
				}
				return true
			})
		}
	}
	if len(events) == 0 {
		return
	}

	mustFwd := &dataflow.Flow{
		Graph: g, N: mustFwdBits, Mode: dataflow.MustForward,
		Events: func(n ast.Node, _ bool) (gen, kill []int) {
			ev, ok := events[n]
			if !ok {
				return nil, nil
			}
			switch {
			case ev.kind == evFlag:
				gen = append(gen, bitFlagged)
			case ev.isRetract():
				kill = append(kill, bitFlagged)
			case ev.kind == evStore && ev.fam == famClockW:
				gen = append(gen, bitClockW)
			}
			// F7 facts: a load of a parked-on word arms its check bit; a
			// park consumes it, so the next park needs a fresh re-check
			// (the loop's back edge re-arms through the condition load).
			switch ev.kind {
			case evLoad:
				if bit, ok := checkedBit(ev.fam); ok {
					gen = append(gen, bit)
				}
			case evPause:
				if bit, ok := checkedBit(ev.fam); ok {
					kill = append(kill, bit)
				}
			}
			return gen, kill
		},
	}
	mayFwd := &dataflow.Flow{
		Graph: g, N: 1, Mode: dataflow.MayForward,
		Events: func(n ast.Node, _ bool) (gen, kill []int) {
			ev, ok := events[n]
			if !ok {
				return nil, nil
			}
			switch {
			case ev.isRetract():
				gen = append(gen, bitRetracted)
			case ev.kind == evFlag:
				kill = append(kill, bitRetracted)
			}
			return gen, kill
		},
	}
	mustBwd := &dataflow.Flow{
		Graph: g, N: mustBwdBits, Mode: dataflow.MustBackward,
		Events: func(n ast.Node, _ bool) (gen, kill []int) {
			if aborts[n] {
				// The CFG edges aborts to Exit like a return, but an abort
				// unwinds the transaction and rolls back its simulated
				// stores, discharging every path obligation.
				return []int{bitGLVerLoad, bitRetract, bitWakeState, bitWakeReaderVer}, nil
			}
			ev, ok := events[n]
			if !ok {
				return nil, nil
			}
			switch {
			case ev.kind == evLoad && ev.fam == famGLVer:
				gen = append(gen, bitGLVerLoad)
			case ev.isRetract():
				gen = append(gen, bitRetract)
			}
			// F6 facts: a Wake discharges the same-family obligation of
			// every phase store on paths that reach it.
			if ev.kind == evWake {
				switch ev.fam {
				case famState:
					gen = append(gen, bitWakeState)
				case famReaderVer:
					gen = append(gen, bitWakeReaderVer)
				}
			}
			return gen, kill
		},
	}

	mustFacts := mustFwd.Solve()
	mayFacts := mayFwd.Solve()
	bwdFacts := mustBwd.Solve()

	for _, b := range g.Blocks {
		mustFwd.ReplayForward(b, mustFacts.In[b], func(n ast.Node, _ bool, before dataflow.Bits) {
			ev, ok := events[n]
			if !ok {
				return
			}
			if ev.kind == evPause {
				// F7: park only on a freshly checked word, on every
				// incoming path (including the loop back edge).
				if bit, ok := checkedBit(ev.fam); ok && !before.Has(bit) {
					pass.Reportf(ev.pos, "fence order: a path reaches this park on the %s word without re-checking it since the last park (lost-wakeup window: the word may already hold the waiter's target value)", ev.fam)
				}
				return
			}
			if ev.kind != evStore {
				return
			}
			switch {
			case ev.fam == famState && ev.val == valStateWriter:
				// F2: advertise requires the clock on every incoming path.
				if hasClockWStore && !before.Has(bitClockW) {
					pass.Reportf(ev.pos, "fence order: a path reaches this stateWriter advertise without storing the writer clock (clockW); readers on that path observe an active writer with a stale clock")
				}
			case ev.fam == famReaderVer && ev.val == valZero:
				// F3: retire only while flagged, on every incoming path.
				if hasFlag && !before.Has(bitFlagged) {
					pass.Reportf(ev.pos, "fence order: a path reaches this readerVer retire (store of zero) with the reader not flagged; neither the version word nor the flag covers the reader on that path")
				}
			}
		})
		mayFwd.ReplayForward(b, mayFacts.In[b], func(n ast.Node, _ bool, before dataflow.Bits) {
			ev, ok := events[n]
			if !ok || ev.kind != evBody {
				return
			}
			// F1: no path may re-enter the body after retracting.
			if before.Has(bitRetracted) {
				pass.Reportf(ev.pos, "fence order: a path reaches this critical-section body with the reader flag already retracted; re-flag before re-running the body")
			}
		})
		mustBwd.ReplayBackward(b, bwdFacts.Out[b], func(n ast.Node, _ bool, after dataflow.Bits) {
			ev, ok := events[n]
			if !ok {
				return
			}
			switch {
			case ev.kind == evStore && ev.fam == famReaderVer && ev.val != valZero:
				// F4: registration must be validated on every outgoing path.
				if !after.Has(bitGLVerLoad) {
					pass.Reportf(ev.pos, "fence order: a path from this readerVer registration reaches return without a glVer validation load (unsafe lazy subscription)")
				}
			case ev.kind == evBody && hasFlag:
				// F5: the flag must come down on every path after the body.
				if !after.Has(bitRetract) {
					pass.Reportf(ev.pos, "fence order: a path from this critical-section body reaches return without retracting the reader flag; the slot stays published after the read completes")
				}
			}
			// F6: a store to a parked-on phase word must reach a
			// same-family wake on every outgoing path — the parking table
			// has no spurious wakeups, so an unwoken phase transition
			// strands any sleeper whose predicate it satisfies.
			if ev.kind == evStore {
				switch {
				case ev.fam == famState && ev.val == valStateEmpty:
					if !after.Has(bitWakeState) {
						pass.Reportf(ev.pos, "fence order: a path from this stateEmpty retire reaches return without waking the state word; a reader parked on the writer's phase word stays asleep (lost wakeup)")
					}
				case ev.fam == famReaderVer:
					if !after.Has(bitWakeReaderVer) {
						pass.Reportf(ev.pos, "fence order: a path from this readerVer store reaches return without waking the registration word; a fallback writer parked on its §3.3 drain stays asleep (lost wakeup)")
					}
				}
			}
		})
	}
}
