// Conformance runs of every lock implementation in the repository against
// the shared rwlock contract suite.
package rwlocktest

import (
	"testing"

	"sprwl/internal/core"
	"sprwl/internal/env"
	"sprwl/internal/htm"
	"sprwl/internal/locks"
	"sprwl/internal/memmodel"
	"sprwl/internal/rwle"
	"sprwl/internal/rwlock"
	"sprwl/internal/tle"
)

func coreFactory(opts func() core.Options) Factory {
	return func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
		return core.MustNew(e, ar, threads, 4, opts(), nil)
	}
}

// dynamicLock adapts a core lock so every handle the suite asks for is
// dynamically registered (no preassigned slot), running the full contract
// over the slot-free reader path.
type dynamicLock struct{ l *core.Lock }

func (d dynamicLock) NewHandle(int) rwlock.Handle {
	h, err := d.l.NewDynamicHandle()
	if err != nil {
		panic(err)
	}
	return h
}

func (d dynamicLock) Name() string { return d.l.Name() + "-Dyn" }

func dynamicFactory(opts func() core.Options) Factory {
	return func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
		return dynamicLock{l: core.MustNew(e, ar, threads, 4, opts(), nil)}
	}
}

// tinyBravoOptions shrinks the visible-readers table below the suite's
// thread count so the overflow/collision path is exercised under load.
func tinyBravoOptions() core.Options {
	o := core.BravoOptions()
	o.BravoSlots = 4
	return o
}

// htmFactories covers every algorithm built on (simulated) HTM: each core
// preset and reader-tracking mode, the dynamic-handle variants, TLE and
// RW-LE.
func htmFactories() map[string]Factory {
	return map[string]Factory{
		"SpRWL":            coreFactory(core.DefaultOptions),
		"SpRWL-NoSched":    coreFactory(core.NoSchedOptions),
		"SpRWL-RWait":      coreFactory(core.RWaitOptions),
		"SpRWL-RSync":      coreFactory(core.RSyncOptions),
		"SpRWL-SNZI":       coreFactory(core.SNZIOptions),
		"SpRWL-Auto":       coreFactory(core.AutoSNZIOptions),
		"SpRWL-Bravo":      coreFactory(core.BravoOptions),
		"SpRWL-Bravo-Tiny": coreFactory(tinyBravoOptions),
		"SpRWL-Bravo-Dyn":  dynamicFactory(core.BravoOptions),
		"SpRWL-SNZI-Dyn":   dynamicFactory(core.SNZIOptions),
		"SpRWL-Auto-Dyn":   dynamicFactory(core.AutoSNZIOptions),
		"SpRWL-VSGL": coreFactory(func() core.Options {
			o := core.DefaultOptions()
			o.VersionedSGL = true
			return o
		}),
		"SpRWL-NoHTMFirst": coreFactory(func() core.Options {
			o := core.DefaultOptions()
			o.ReaderHTMFirst = false
			return o
		}),
		"TLE": func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
			return tle.New(e, ar, 0, nil)
		},
		"RW-LE": func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
			return rwle.New(e, ar, threads, 0, 0, nil)
		},
	}
}

func TestConformance(t *testing.T) {
	factories := htmFactories()
	factories["RWL"] = func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
		return locks.NewRWL(e, ar, nil)
	}
	factories["BRLock"] = func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
		return locks.NewBRLock(e, ar, threads, nil)
	}
	for name, f := range factories {
		t.Run(name, func(t *testing.T) {
			Run(t, f, Config{})
		})
	}
}

// TestConformanceUnderCapacityPressure re-runs the suite with a tiny HTM
// capacity, forcing every HTM-based algorithm through its fallback
// machinery. For core this drives the fallback writer's drain and
// checkForReaders under every reader-tracking mode.
func TestConformanceUnderCapacityPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("capacity-pressure conformance is slow under -short")
	}
	for name, f := range htmFactories() {
		t.Run(name, func(t *testing.T) {
			Run(t, f, Config{HTMConfig: htm.Config{ReadCapacityLines: 3, WriteCapacityLines: 3}})
		})
	}
}
