// Package harness defines and runs the paper's experiments: one
// specification per evaluation figure, a deterministic simulation runner
// behind each data point, and table/CSV reporting of the same series the
// paper plots. See DESIGN.md §4 for the experiment index.
package harness

import (
	"fmt"

	"sprwl/internal/core"
	"sprwl/internal/env"
	"sprwl/internal/locks"
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
	"sprwl/internal/rwle"
	"sprwl/internal/rwlock"
	"sprwl/internal/tle"
)

// Algorithm names accepted by BuildLock; these are the labels the paper's
// plots use.
const (
	AlgoSpRWL        = "SpRWL"
	AlgoSpRWLSNZI    = "SpRWL-SNZI"
	AlgoSpRWLBravo   = "SpRWL-Bravo"
	AlgoSpRWLNoSched = "SpRWL-NoSched"
	AlgoSpRWLRWait   = "SpRWL-RWait"
	AlgoSpRWLRSync   = "SpRWL-RSync"
	AlgoSpRWLVSGL    = "SpRWL-VSGL"
	AlgoSpRWLAuto    = "SpRWL-Auto"
	AlgoTLE          = "TLE"
	AlgoRWLE         = "RW-LE"
	AlgoRWL          = "RWL"
	AlgoBRLock       = "BRLock"
)

// AllAlgorithms lists every lock BuildLock can construct.
func AllAlgorithms() []string {
	return []string{
		AlgoSpRWL, AlgoSpRWLSNZI, AlgoSpRWLBravo, AlgoSpRWLNoSched,
		AlgoSpRWLRWait, AlgoSpRWLRSync, AlgoSpRWLVSGL, AlgoSpRWLAuto,
		AlgoTLE, AlgoRWLE, AlgoRWL, AlgoBRLock,
	}
}

// LockWords returns a safe arena budget (in words) for any single lock
// instance at the given thread count.
func LockWords(threads int) int {
	// SpRWL is the largest: five per-thread arrays, the fallback lock,
	// and a SNZI tree; triple it for slack and the baselines' per-thread
	// lines.
	return 3*core.Words(threads) + 64*memmodel.LineWords*(threads+4)
}

// bravoSlots pins the BRAVO table size of the SpRWL-Bravo and SpRWL-Auto
// builds. Left to GOMAXPROCS the table size, and with it every simulated
// access sequence that scans or hashes into it, would depend on the host;
// 4 is readers.DefaultBravoSlots at GOMAXPROCS <= 2, the size the recorded
// baseline was measured with.
const bravoSlots = 4

// BuildLock constructs the named algorithm over e, carving lock state from
// ar. numCS sizes the duration estimator for SpRWL variants. pipe is the
// observability pipeline the lock reports through; nil disables
// instrumentation.
func BuildLock(name string, e env.Env, ar *memmodel.Arena, threads, numCS int, pipe *obs.Pipeline) (rwlock.Lock, error) {
	switch name {
	case AlgoSpRWL:
		return core.New(e, ar, threads, numCS, core.DefaultOptions(), pipe)
	case AlgoSpRWLSNZI:
		return core.New(e, ar, threads, numCS, core.SNZIOptions(), pipe)
	case AlgoSpRWLBravo:
		opts := core.BravoOptions()
		opts.BravoSlots = bravoSlots
		return core.New(e, ar, threads, numCS, opts, pipe)
	case AlgoSpRWLNoSched:
		return core.New(e, ar, threads, numCS, core.NoSchedOptions(), pipe)
	case AlgoSpRWLRWait:
		return core.New(e, ar, threads, numCS, core.RWaitOptions(), pipe)
	case AlgoSpRWLRSync:
		return core.New(e, ar, threads, numCS, core.RSyncOptions(), pipe)
	case AlgoSpRWLVSGL:
		opts := core.DefaultOptions()
		opts.VersionedSGL = true
		return core.New(e, ar, threads, numCS, opts, pipe)
	case AlgoSpRWLAuto:
		opts := core.AutoSNZIOptions()
		opts.BravoSlots = bravoSlots
		return core.New(e, ar, threads, numCS, opts, pipe)
	case AlgoTLE:
		return tle.New(e, ar, 0, pipe), nil
	case AlgoRWLE:
		return rwle.New(e, ar, threads, 0, 0, pipe), nil
	case AlgoRWL:
		return locks.NewRWL(e, ar, pipe), nil
	case AlgoBRLock:
		return locks.NewBRLock(e, ar, threads, pipe), nil
	default:
		return nil, fmt.Errorf("harness: unknown algorithm %q", name)
	}
}
