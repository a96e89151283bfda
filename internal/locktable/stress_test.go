package locktable

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"sprwl/internal/memmodel"
)

// Differential stress for AcquireN: concurrent workers mix single-key
// sections with cross-shard spans, and the final state is compared against
// a sequential oracle replaying the identical planned streams.
//
// The invariants are chosen to expose non-atomic spans, not just torn
// words:
//
//   - every single-key write keeps data[k] and mirror[k] in lockstep
//     inside one section, so single-key readers checking data==mirror
//     catch a torn single-shard section;
//   - every group write loads the group's first key and stores the *same*
//     new value into every key of the group — keys that live on different
//     shards. A group reader (ReadN over the whole group) asserting all
//     keys equal therefore catches a span that failed to exclude it on
//     any one of the group's shards while the writer was mid-span.
//
// Group writes serialize on the group's lowest shard, so the final group
// value is the sum of all planned group deltas — schedule-independent,
// which is what lets the sequential oracle predict it.

const (
	sgKeys      = 4 // single-key lanes
	spanGroups  = 3 // cross-shard groups
	spanWidth   = 2 // keys per group, each on its own shard
	stressSlots = 4 // concurrent workers
)

type sop struct {
	kind  int // 0 group write, 1 group read, 2 single write, 3 single read, 4 read-all
	idx   int // group or single-key index
	delta uint64
}

func planOps(seed int64, worker, nops int) []sop {
	rng := rand.New(rand.NewSource(seed*7919 + int64(worker)))
	ops := make([]sop, nops)
	for i := range ops {
		o := sop{delta: uint64(rng.Intn(16) + 1)}
		switch p := rng.Intn(100); {
		case p < 25:
			o.kind, o.idx = 0, rng.Intn(spanGroups)
		case p < 50:
			o.kind, o.idx = 1, rng.Intn(spanGroups)
		case p < 70:
			o.kind, o.idx = 2, rng.Intn(sgKeys)
		case p < 95:
			o.kind, o.idx = 3, rng.Intn(sgKeys)
		default:
			o.kind = 4
		}
		ops[i] = o
	}
	return ops
}

type stressState struct {
	tbl     *Table
	singles [sgKeys]memmodel.Addr
	mirrors [sgKeys]memmodel.Addr
	skeys   [sgKeys]uint64
	groups  [spanGroups][spanWidth]memmodel.Addr
	gkeys   [spanGroups][]uint64
}

func buildStress(t *testing.T) (*stressState, func(memmodel.Addr) uint64) {
	tbl, e, ar := newTable(t, Config{Shards: 8, Threads: stressSlots})
	st := &stressState{tbl: tbl}
	for k := 0; k < sgKeys; k++ {
		st.singles[k] = ar.AllocLines(1)
		st.mirrors[k] = ar.AllocLines(1)
		st.skeys[k] = uint64(1000 + k)
	}
	// Give each group spanWidth keys on distinct stripes so every group
	// span really is a cross-shard acquisition.
	for g := 0; g < spanGroups; g++ {
		for w := 0; w < spanWidth; w++ {
			st.groups[g][w] = ar.AllocLines(1)
			st.gkeys[g] = append(st.gkeys[g], keyForShard(t, tbl, (g*spanWidth+w)%tbl.Shards()))
		}
	}
	return st, e.Load
}

func runStressWorker(t *testing.T, st *stressState, h *Handle, ops []sop) {
	for _, o := range ops {
		switch o.kind {
		case 0: // group write: same new value into every key of the group
			g, d := o.idx, o.delta
			addrs := st.groups[o.idx]
			h.WriteN(st.gkeys[g], 0, func(acc memmodel.Accessor) {
				v := acc.Load(addrs[0]) + d
				for w := 0; w < spanWidth; w++ {
					acc.Store(addrs[w], v)
				}
			})
		case 1: // group read: all keys of the group must agree
			addrs := st.groups[o.idx]
			var vals [spanWidth]uint64
			h.ReadN(st.gkeys[o.idx], 1, func(acc memmodel.Accessor) {
				for w := 0; w < spanWidth; w++ {
					vals[w] = acc.Load(addrs[w])
				}
			})
			for w := 1; w < spanWidth; w++ {
				if vals[w] != vals[0] {
					t.Errorf("group %d: non-atomic span observed: %v", o.idx, vals)
					return
				}
			}
		case 2: // single write: data and mirror in lockstep
			k, d := o.idx, o.delta
			da, ma := st.singles[k], st.mirrors[k]
			h.Write(st.skeys[k], 0, func(acc memmodel.Accessor) {
				v := acc.Load(da) + d
				acc.Store(da, v)
				acc.Store(ma, v)
			})
		case 3: // single read: torn-section check
			da, ma := st.singles[o.idx], st.mirrors[o.idx]
			var vx, vy uint64
			h.Read(st.skeys[o.idx], 1, func(acc memmodel.Accessor) {
				vx, vy = acc.Load(da), acc.Load(ma)
			})
			if vx != vy {
				t.Errorf("single key %d: torn read: data %d != mirror %d", o.idx, vx, vy)
				return
			}
		case 4: // read-all: every group must agree while all stripes are held
			var vals [spanGroups][spanWidth]uint64
			groups := st.groups
			h.ReadAll(1, func(acc memmodel.Accessor) {
				for g := 0; g < spanGroups; g++ {
					for w := 0; w < spanWidth; w++ {
						vals[g][w] = acc.Load(groups[g][w])
					}
				}
			})
			for g := 0; g < spanGroups; g++ {
				for w := 1; w < spanWidth; w++ {
					if vals[g][w] != vals[g][0] {
						t.Errorf("read-all: group %d disagrees: %v", g, vals[g])
						return
					}
				}
			}
		}
	}
}

func TestAcquireNStress(t *testing.T) {
	seeds := []int64{1, 2}
	nops := 400
	if !testing.Short() {
		seeds = []int64{1, 2, 3, 5, 8, 13}
		nops = 2500
	}
	for _, seed := range seeds {
		st, load := buildStress(t)
		plans := make([][]sop, stressSlots)
		for w := range plans {
			plans[w] = planOps(seed, w, nops)
		}
		var wg sync.WaitGroup
		for w := 0; w < stressSlots; w++ {
			h := st.tbl.NewHandle(w)
			wg.Add(1)
			go func(w int, h *Handle) {
				defer wg.Done()
				runStressWorker(t, st, h, plans[w])
			}(w, h)
		}
		wg.Wait()

		// Sequential oracle: sums of planned deltas per lane.
		var wantG [spanGroups]uint64
		var wantS [sgKeys]uint64
		for _, ops := range plans {
			for _, o := range ops {
				switch o.kind {
				case 0:
					wantG[o.idx] += o.delta
				case 2:
					wantS[o.idx] += o.delta
				}
			}
		}
		for g := 0; g < spanGroups; g++ {
			for w := 0; w < spanWidth; w++ {
				if got := load(st.groups[g][w]); got != wantG[g] {
					t.Errorf("seed %d: group %d key %d = %d, oracle says %d", seed, g, w, got, wantG[g])
				}
			}
		}
		for k := 0; k < sgKeys; k++ {
			if got := load(st.singles[k]); got != wantS[k] {
				t.Errorf("seed %d: single %d = %d, oracle says %d", seed, k, got, wantS[k])
			}
			if got := load(st.mirrors[k]); got != wantS[k] {
				t.Errorf("seed %d: mirror %d = %d, oracle says %d", seed, k, got, wantS[k])
			}
		}
	}
}

// TestRandomOrderSpanFuzz generalizes TestReversedOrderAcquisition from a
// fixed two-goroutine/two-key antagonist to a randomized N-goroutine fuzz:
// every worker repeatedly spans a random-width subset of per-shard keys
// named in a random permutation, so concurrent spans that overlap name
// their shared shards in conflicting argument orders. The sort-then-lock
// step inside AcquireN (acquireMarked's ascending bitmap scan — the
// mechanized lockorder L2 invariant) is the only thing standing between
// this schedule and an AB/BA deadlock, which the wall-clock guard converts
// into a test failure instead of a hung run. Each shard guards its own
// counter, which every write span increments for the shards it holds:
// disjoint spans run concurrently by design, so only per-shard counts are
// protected, and a lost update means two spans held one shard at once.
func TestRandomOrderSpanFuzz(t *testing.T) {
	const (
		fuzzShards  = 16
		fuzzWorkers = 6
		fuzzMaxW    = 5
	)
	iters := 300
	if testing.Short() {
		iters = 60
	}
	tbl, e, ar := newTable(t, Config{Shards: fuzzShards, Threads: fuzzWorkers})
	keys := make([]uint64, fuzzShards)
	counters := make([]memmodel.Addr, fuzzShards)
	for s := range keys {
		keys[s] = keyForShard(t, tbl, s)
		counters[s] = ar.AllocLines(1)
	}

	writes := make([][fuzzShards]uint64, fuzzWorkers)
	done := make(chan int, fuzzWorkers)
	for g := 0; g < fuzzWorkers; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)*104729 + 1))
			h := tbl.NewHandle(g)
			span := make([]uint64, 0, fuzzMaxW)
			for i := 0; i < iters; i++ {
				// A random permutation's prefix is a uniform random subset
				// in uniform random order: maximal order conflict between
				// concurrent workers.
				w := 2 + rng.Intn(fuzzMaxW-1)
				held := rng.Perm(fuzzShards)[:w]
				span = span[:0]
				for _, s := range held {
					span = append(span, keys[s])
				}
				if rng.Intn(4) == 0 {
					h.ReadN(span, 0, func(acc memmodel.Accessor) {
						for _, s := range held {
							acc.Load(counters[s])
						}
					})
				} else {
					for _, s := range held {
						writes[g][s]++
					}
					h.WriteN(span, 0, func(acc memmodel.Accessor) {
						for _, s := range held {
							acc.Store(counters[s], acc.Load(counters[s])+1)
						}
					})
				}
			}
			done <- g
		}(g)
	}

	timeout := time.After(90 * time.Second)
	for n := 0; n < fuzzWorkers; n++ {
		select {
		case <-done:
		case <-timeout:
			t.Fatal("randomized-order spans deadlocked")
		}
	}
	for s := range counters {
		var want uint64
		for g := range writes {
			want += writes[g][s]
		}
		if got := e.Load(counters[s]); got != want {
			t.Errorf("shard %d counter = %d, want %d", s, got, want)
		}
	}
}
