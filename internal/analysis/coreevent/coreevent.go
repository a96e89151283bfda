// Package coreevent classifies call expressions into SpRWL core-protocol
// events. The classifier is structural — it matches the address-family
// helper names (stateAddr, clockWAddr, clockRAddr, waitingForAddr,
// readerVerAddr, glVer), the env method names (Load/Store), the reader
// flag/retract helpers, and invocations of the rwlock.Body type — so it
// works both on internal/core itself and on reduced analyzer test
// fixtures that mirror its shapes.
//
// The fenceorder analyzer runs its path rules over these events; keeping
// the classifier separate keeps what counts as a flag, a retract, an
// advertise, or a registration in one place.
package coreevent

import (
	"go/ast"
	"go/token"
	"go/types"

	"sprwl/internal/analysis/astq"
)

// Kind discriminates the protocol event classes.
type Kind int

const (
	// Store is an env Store to a protocol word.
	Store Kind = iota
	// Load is an env Load of a protocol word.
	Load
	// Flag publishes the reader (flagReader / arriveIn /
	// flagReaderAndSyncGL).
	Flag
	// Retract withdraws the reader's publication (unflagReader /
	// departFrom).
	Retract
	// Body invokes an rwlock.Body critical-section value.
	Body
	// Atomic is a package-level sync/atomic call (forbidden in core).
	Atomic
	// Wake signals parked waiters on a protocol word (Hub.Wake with the
	// word's address, or the fallback lock's zero-argument gl.Wake).
	Wake
	// Pause is one spin-then-park step of a park.Waiter on a protocol
	// word (Waiter.Pause with the word's address first).
	Pause
)

// Family identifies which protocol word an env access touches.
type Family string

const (
	FamState     Family = "state"
	FamClockW    Family = "clockW"
	FamClockR    Family = "clockR"
	FamWaiting   Family = "waitingFor"
	FamReaderVer Family = "readerVer"
	FamGLVer     Family = "glVer"
	// FamGL is the fallback lock's own word (gl.Addr / gl.IsLocked /
	// gl.Wake), the address §3.3 readers park on.
	FamGL    Family = "gl"
	FamOther Family = ""
)

var addrFamilies = map[string]Family{
	"stateAddr":      FamState,
	"clockWAddr":     FamClockW,
	"clockRAddr":     FamClockR,
	"waitingForAddr": FamWaiting,
	"readerVerAddr":  FamReaderVer,
}

// Val classifies the stored value where the ordering rules care about it.
type Val int

const (
	ValOther Val = iota
	ValZero
	ValStateWriter
	ValStateEmpty
)

// Event is one classified protocol event.
type Event struct {
	Kind Kind
	Fam  Family
	Val  Val
	Pos  token.Pos
	// Name is the callee name, for diagnostics.
	Name string
}

// Resolver extends the structural address recognition with context the
// classifier cannot see on its own — typically local aliases of an
// address-helper call (`a := l.stateAddr(i)` … `l.e.Load(a)`). It returns
// FamOther for expressions it does not recognize.
type Resolver func(ast.Expr) Family

// Classify maps a call expression to a protocol event, if it is one.
func Classify(info *types.Info, call *ast.CallExpr) (Event, bool) {
	return ClassifyResolved(info, call, nil)
}

// ClassifyResolved is Classify with an optional address resolver consulted
// when the structural family match fails.
func ClassifyResolved(info *types.Info, call *ast.CallExpr, resolve Resolver) (Event, bool) {
	fam := func(e ast.Expr) Family {
		f := AddrFamily(e)
		if f == FamOther && resolve != nil {
			f = resolve(e)
		}
		return f
	}
	name := astq.CalleeName(call)
	switch name {
	case "flagReader", "arriveIn", "flagReaderAndSyncGL":
		return Event{Kind: Flag, Pos: call.Pos(), Name: name}, true
	case "unflagReader", "departFrom":
		return Event{Kind: Retract, Pos: call.Pos(), Name: name}, true
	case "Store":
		if len(call.Args) == 2 {
			if f := fam(call.Args[0]); f != FamOther {
				return Event{Kind: Store, Fam: f, Val: ClassifyValue(call.Args[1]), Pos: call.Pos(), Name: name}, true
			}
		}
	case "Load":
		if len(call.Args) == 1 {
			if f := fam(call.Args[0]); f != FamOther {
				return Event{Kind: Load, Fam: f, Pos: call.Pos(), Name: name}, true
			}
		}
	case "IsLocked":
		// The fallback lock's held-check is the gl-word analogue of a
		// protocol Load: it is what check-before-park loops re-check.
		if len(call.Args) == 0 && isGLReceiver(call) {
			return Event{Kind: Load, Fam: FamGL, Pos: call.Pos(), Name: name}, true
		}
	case "Wake":
		if len(call.Args) == 1 {
			if f := fam(call.Args[0]); f != FamOther {
				return Event{Kind: Wake, Fam: f, Pos: call.Pos(), Name: name}, true
			}
		}
		if len(call.Args) == 0 && isGLReceiver(call) {
			return Event{Kind: Wake, Fam: FamGL, Pos: call.Pos(), Name: name}, true
		}
	case "Pause":
		if len(call.Args) == 3 {
			if f := fam(call.Args[0]); f != FamOther {
				return Event{Kind: Pause, Fam: f, Pos: call.Pos(), Name: name}, true
			}
		}
	}
	if fn := astq.CalleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
		// Package-level functions only: typed-atomic methods
		// (atomic.Uint64.Add) have a receiver and operate on auxiliary
		// Go-side state, which is allowed.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			return Event{Kind: Atomic, Pos: call.Pos(), Name: "atomic." + fn.Name()}, true
		}
	}
	if t := astq.TypeOf(info, call.Fun); t != nil && IsBodyType(t) {
		return Event{Kind: Body, Pos: call.Pos(), Name: "body"}, true
	}
	return Event{}, false
}

// AddrFamily recognizes the address expression of an env access: a call to
// one of the address-family helpers, the fallback lock's gl.Addr(), or the
// glVer field/variable.
func AddrFamily(e ast.Expr) Family {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if fam, ok := addrFamilies[astq.CalleeName(e)]; ok {
			return fam
		}
		if astq.CalleeName(e) == "Addr" && isGLReceiver(e) {
			return FamGL
		}
	case *ast.SelectorExpr:
		if e.Sel.Name == "glVer" {
			return FamGLVer
		}
	case *ast.Ident:
		if e.Name == "glVer" {
			return FamGLVer
		}
	}
	return FamOther
}

// isGLReceiver reports whether the call's method receiver expression is the
// fallback lock field/variable `gl` (l.gl.Addr(), l.gl.IsLocked(),
// l.gl.Wake()), matched structurally like the addr-family helpers.
func isGLReceiver(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		return recv.Sel.Name == "gl"
	case *ast.Ident:
		return recv.Name == "gl"
	}
	return false
}

// ClassifyValue recognizes the stored values the ordering rules depend on.
func ClassifyValue(e ast.Expr) Val {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		switch e.Name {
		case "stateWriter":
			return ValStateWriter
		case "stateEmpty":
			return ValStateEmpty
		}
	case *ast.BasicLit:
		if e.Kind == token.INT && e.Value == "0" {
			return ValZero
		}
	}
	return ValOther
}

// IsBodyType reports whether t is the rwlock critical-section body type.
func IsBodyType(t types.Type) bool {
	return astq.IsNamed(t, "internal/rwlock", "Body")
}

// IsRetractEvent reports whether ev withdraws the reader's publication: an
// explicit Retract call or a stateEmpty store to the state word.
func IsRetractEvent(ev Event) bool {
	return ev.Kind == Retract || ev.Kind == Store && ev.Fam == FamState && ev.Val == ValStateEmpty
}
