// Options-matrix conformance: every valid core.Options combination must
// pass a short round of the contract suite. This is the table-driven
// backstop for option interactions no named preset exercises (e.g.
// VersionedSGL × BRAVO × WriterSync).
package rwlocktest

import (
	"fmt"
	"testing"

	"sprwl/internal/core"
	"sprwl/internal/env"
	"sprwl/internal/hostile"
	"sprwl/internal/memmodel"
	"sprwl/internal/rwlock"
)

// backendAxis enumerates the reader-tracking choices.
var backendAxis = []struct {
	name  string
	apply func(*core.Options)
}{
	{"flags", func(*core.Options) {}},
	{"snzi", func(o *core.Options) { o.ReaderTracking = core.TrackSNZI }},
	{"bravo", func(o *core.Options) { o.ReaderTracking = core.TrackBravo; o.BravoSlots = 8 }},
	{"auto", func(o *core.Options) { o.ReaderTracking = core.TrackAuto; o.AutoSNZIThreshold = 4096 }},
}

// retryAxis enumerates hardware attempt budgets. MaxRetries bounds both
// writers and HTM-first readers, so a budget of 1 sends both to their
// fallback paths after a single abort and makes SGL writers meet waiting
// readers more often than the budget of 4 does.
var retryAxis = []int{4, 1}

// validOptionCombos enumerates every semantically valid Options value over
// the boolean axes and the retry budgets: JoinWaiters is a refinement of
// ReaderSync (meaningless without the state-array scan), and the four
// tracking backends are mutually exclusive by construction.
func validOptionCombos() []struct {
	name string
	opts core.Options
} {
	var combos []struct {
		name string
		opts core.Options
	}
	for _, rs := range []bool{false, true} {
		jwAxis := []bool{false}
		if rs {
			jwAxis = []bool{false, true}
		}
		for _, jw := range jwAxis {
			for _, ws := range []bool{false, true} {
				for _, htmFirst := range []bool{false, true} {
					for _, vsgl := range []bool{false, true} {
						for _, be := range backendAxis {
							for _, retries := range retryAxis {
								o := core.Options{
									ReaderSync:     rs,
									JoinWaiters:    jw,
									WriterSync:     ws,
									ReaderHTMFirst: htmFirst,
									VersionedSGL:   vsgl,
									MaxRetries:     retries,
								}
								be.apply(&o)
								name := fmt.Sprintf("%s_rs=%t_jw=%t_ws=%t_htm=%t_vsgl=%t_mr=%d",
									be.name, rs, jw, ws, htmFirst, vsgl, retries)
								combos = append(combos, struct {
									name string
									opts core.Options
								}{name, o})
							}
						}
					}
				}
			}
		}
	}
	return combos
}

// TestOptionsMatrix runs the safety core of the contract suite (mutual
// exclusion, reader isolation, exactly-once effects) over every valid
// options combination with short rounds.
func TestOptionsMatrix(t *testing.T) {
	// One leak baseline over all 192 combos: cleanup runs after the last
	// sequential subtest, when any stranded waiter is unambiguous.
	hostile.LeakCheck(t)
	combos := validOptionCombos()
	cfg := Config{Threads: 4, Rounds: 12}
	if testing.Short() {
		cfg.Rounds = 6
	}
	for _, c := range combos {
		opts := c.opts
		t.Run(c.name, func(t *testing.T) {
			f := func(e env.Env, ar *memmodel.Arena, threads int) rwlock.Lock {
				return core.MustNew(e, ar, threads, 4, opts, nil)
			}
			writerMutualExclusion(t, f, cfg)
			readerIsolation(t, f, cfg)
			effectsOnce(t, f, cfg)
		})
	}
}
