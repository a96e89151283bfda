package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	_ "unsafe" // for go:linkname

	"sprwl/internal/env"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/park"
)

// spanSampleEvery keeps the spans of one op in this many (per worker), plus
// the first maxSharedSpans parks and as many timed waits.
const (
	spanSampleEvery = 256
	maxSharedSpans  = 10_000
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the benchmark process started. Parent is the ID of the op span that
// caused it, or 0 where the layer call carries no worker slot (env waits
// and parks).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id,omitempty"`
	Parent uint64 `json:"parent,omitempty"`
	Slot   int    `json:"slot"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Detail string `json:"detail,omitempty"`
}

// procPin and procUnpin disable and re-enable preemption and return the
// current P's index. The runtime keeps them for linkname use (go.dev/issue/67401).
//
//go:linkname procPin runtime.procPin
func procPin() int

//go:linkname procUnpin runtime.procUnpin
func procUnpin()

// pCounts is one P's share of the counters of env calls that carry no
// worker slot. While pinned to its P a goroutine cannot be preempted, so
// plain increments are exact, and the two workers never share a line: a
// shared atomic counter would bounce between the vCPUs on every
// uninstrumented load and slow a long read several-fold.
type pCounts struct {
	nows, loads, stores, cas, casFail, adds int64
	yields, waitNs                          int64
	parks, wakes, parkedNs                  int64
	_                                       [40]byte
}

// tracer is the traced run's forwarding env.Env: every call is counted and
// passed to the real runtime. Calls that name a worker slot (Attempt and
// the transactional accesses inside it) are counted in that slot's own
// record; the rest are counted per P.
type tracer struct {
	inner *htm.Runtime
	park  *tracedParker // nil when the runtime does not park

	perP  []pCounts
	slots []slotTrace

	sharedMu    sync.Mutex
	sharedSpans []span
	sharedKept  map[string]int // spans kept so far, by name
}

var (
	_ env.Env       = (*tracer)(nil)
	_ park.Provider = (*tracer)(nil)
)

// slotCounts is one worker slot's share of the Attempt counters.
type slotCounts struct {
	attempts, commits      uint64
	aborts                 [env.NumAbortCauses]uint64
	attemptNs, bodyNs      uint64
	txLoads, wastedTxLoads uint64
}

// slotTrace is one worker slot's record. Only that worker's goroutine
// writes it while the phase runs.
type slotTrace struct {
	slotCounts
	attemptLoads uint64 // tx loads of the attempt in progress

	opID    uint64 // op span ID of the op in progress
	sampled bool
	spans   []span

	user func(env.TxAccessor) // body of the attempt in progress
	run  func(env.TxAccessor) // pre-bound wrapper handed to the runtime
	tx   txTrace
	_    [64]byte
}

func newTracer(rt *htm.Runtime) *tracer {
	t := &tracer{
		inner:      rt,
		perP:       make([]pCounts, runtime.GOMAXPROCS(0)),
		slots:      make([]slotTrace, rt.Threads()),
		sharedKept: map[string]int{},
	}
	if p := rt.Parker(); p != nil {
		t.park = &tracedParker{t: t, inner: p}
	}
	for i := range t.slots {
		st := &t.slots[i]
		st.tx.st = st
		st.run = func(tx env.TxAccessor) {
			st.tx.inner = tx
			start := nanotime()
			// Deferred so that an aborting body, which unwinds by
			// panicking out of the access, is timed too.
			defer func() { st.bodyNs += uint64(nanotime() - start) }()
			st.user(&st.tx)
		}
	}
	return t
}

// beginOp marks the start of worker slot's op seq; every spanSampleEvery-th
// op records spans.
func (t *tracer) beginOp(slot int, seq uint64) {
	st := &t.slots[slot]
	st.opID = uint64(slot+1)<<48 | seq
	st.sampled = seq%spanSampleEvery == 0
}

// endOp records the op span of a sampled op. Sampling stops until the
// next beginOp, so calls between ops (the end-of-run sweep) leave no spans.
func (t *tracer) endOp(slot int, name string, start, end int64) {
	st := &t.slots[slot]
	if st.sampled {
		st.spans = append(st.spans, span{Name: name, ID: st.opID, Slot: slot, Start: start, End: end})
		st.sampled = false
	}
}

func (t *tracer) sharedSpan(s span) {
	t.sharedMu.Lock()
	if t.sharedKept[s.Name] < maxSharedSpans {
		t.sharedKept[s.Name]++
		t.sharedSpans = append(t.sharedSpans, s)
	}
	t.sharedMu.Unlock()
}

func (t *tracer) Load(a memmodel.Addr) uint64 {
	t.perP[procPin()].loads++
	procUnpin()
	return t.inner.Load(a)
}

func (t *tracer) Store(a memmodel.Addr, v uint64) {
	t.perP[procPin()].stores++
	procUnpin()
	t.inner.Store(a, v)
}

func (t *tracer) CAS(a memmodel.Addr, old, new uint64) bool {
	ok := t.inner.CAS(a, old, new)
	c := &t.perP[procPin()]
	c.cas++
	if !ok {
		c.casFail++
	}
	procUnpin()
	return ok
}

func (t *tracer) Add(a memmodel.Addr, d uint64) uint64 {
	t.perP[procPin()].adds++
	procUnpin()
	return t.inner.Add(a, d)
}

func (t *tracer) Attempt(slot int, opts env.TxOpts, body func(tx env.TxAccessor)) env.AbortCause {
	st := &t.slots[slot]
	st.user = body
	st.attemptLoads = 0
	start := nanotime()
	cause := t.inner.Attempt(slot, opts, st.run)
	end := nanotime()
	st.user = nil
	st.attempts++
	st.attemptNs += uint64(end - start)
	if cause == env.Committed {
		st.commits++
	} else {
		st.aborts[cause]++
		st.wastedTxLoads += st.attemptLoads
	}
	if st.sampled {
		st.spans = append(st.spans, span{Name: "htm.attempt", Parent: st.opID, Slot: slot, Start: start, End: end, Detail: cause.String()})
	}
	return cause
}

func (t *tracer) Now() uint64 {
	t.perP[procPin()].nows++
	procUnpin()
	return t.inner.Now()
}

func (t *tracer) WaitUntil(until uint64) {
	start := nanotime()
	t.inner.WaitUntil(until)
	end := nanotime()
	t.perP[procPin()].waitNs += end - start
	procUnpin()
	t.sharedSpan(span{Name: "env.wait_until", Slot: -1, Start: start, End: end})
}

func (t *tracer) Yield() {
	start := nanotime()
	t.inner.Yield()
	d := nanotime() - start
	c := &t.perP[procPin()]
	c.yields++
	c.waitNs += d
	procUnpin()
}

func (t *tracer) Threads() int { return t.inner.Threads() }

// Parker implements park.Provider with the counting wrapper, or nil (spin
// only) when the runtime does not park.
func (t *tracer) Parker() park.Parker {
	if t.park == nil {
		return nil
	}
	return t.park
}

// tracedParker counts and times the runtime's parker.
type tracedParker struct {
	t     *tracer
	inner park.Parker
}

func (p *tracedParker) Park(a memmodel.Addr, expected uint64) {
	start := nanotime()
	p.inner.Park(a, expected)
	end := nanotime()
	c := &p.t.perP[procPin()]
	c.parks++
	c.parkedNs += end - start
	procUnpin()
	p.t.sharedSpan(span{Name: "park.park", Slot: -1, Start: start, End: end})
}

func (p *tracedParker) Wake(a memmodel.Addr) {
	p.t.perP[procPin()].wakes++
	procUnpin()
	p.inner.Wake(a)
}

// txTrace is the TxAccessor handed to attempt bodies: it counts the
// transactional loads of its slot.
type txTrace struct {
	st    *slotTrace
	inner env.TxAccessor
}

var _ env.TxAccessor = (*txTrace)(nil)

func (x *txTrace) Load(a memmodel.Addr) uint64 {
	x.st.txLoads++
	x.st.attemptLoads++
	return x.inner.Load(a)
}

func (x *txTrace) Store(a memmodel.Addr, v uint64) { x.inner.Store(a, v) }

func (x *txTrace) Abort(cause env.AbortCause) { x.inner.Abort(cause) }
func (x *txTrace) Aborted() bool              { return x.inner.Aborted() }
func (x *txTrace) Suspend(fn func()) bool     { return x.inner.Suspend(fn) }

// reset zeroes every counter, so that totals covers only the calls made
// after it: the phase's ops, not the set-up before them.
func (t *tracer) reset() {
	clear(t.perP)
	for i := range t.slots {
		t.slots[i].slotCounts = slotCounts{}
	}
}

// layerTotals is the sum of the tracer's counters.
type layerTotals struct {
	pCounts
	slotCounts
}

// totals sums the counters since the last reset. It must run while no
// worker is calling the tracer.
func (t *tracer) totals() layerTotals {
	var s layerTotals
	for i := range t.perP {
		c := &t.perP[i]
		s.nows += c.nows
		s.loads += c.loads
		s.stores += c.stores
		s.cas += c.cas
		s.casFail += c.casFail
		s.adds += c.adds
		s.yields += c.yields
		s.waitNs += c.waitNs
		s.parks += c.parks
		s.wakes += c.wakes
		s.parkedNs += c.parkedNs
	}
	for i := range t.slots {
		st := &t.slots[i]
		s.attempts += st.attempts
		s.commits += st.commits
		for c := range st.aborts {
			s.aborts[c] += st.aborts[c]
		}
		s.attemptNs += st.attemptNs
		s.bodyNs += st.bodyNs
		s.txLoads += st.txLoads
		s.wastedTxLoads += st.wastedTxLoads
	}
	return s
}

// writeSpans writes every kept span as one JSON document at path, creating
// its directory.
func (t *tracer) writeSpans(path, workload string, seed uint64) error {
	all := append([]span(nil), t.sharedSpans...)
	for i := range t.slots {
		all = append(all, t.slots[i].spans...)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	doc := struct {
		Workload    string `json:"workload"`
		Seed        uint64 `json:"seed"`
		SampleEvery int    `json:"op_sample_every"`
		Spans       []span `json:"spans"`
	}{workload, seed, spanSampleEvery, all}
	if err := json.NewEncoder(w).Encode(&doc); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
