package interleave

import (
	"fmt"
	"sort"
	"strings"

	"sprwl/internal/core"
)

// Shipped model configurations. Each closes the real, extracted protocol
// code over a concrete memory layout and option set; none of the thread
// programs is hand-written. The layout packs every array the protocol
// indexes (state/clock/waitingFor/readerVer words, the BRAVO table, the
// 64 park shards) into one small word-addressed store.

// Memory layout (word addresses).
const (
	cellGL        = 0 // fallback-lock word (SpinMutex)
	cellGLVer     = 1 // VersionedSGL version
	cellTrackMode = 2 // adaptive tracking-mode word
	cellData0     = 3 // critical-section payload, word 0
	cellData1     = 4 // critical-section payload, word 1
	cellPhase     = 5 // park-handshake phase word

	baseState      = 8  // per-thread state/flag words (stateAddr)
	baseClockW     = 16 // writers' predicted end times
	baseClockR     = 24
	baseWaitingFor = 32
	baseReaderVer  = 40

	bravoCollisions  = 60 // Go-side atomic counters, given scratch cells
	bravoRevocations = 61
	bravoCtl         = 120
	bravoOver        = 121
	bravoTable       = 128 // 4 slots * LineWords(8) = 128..159
	bravoSlots       = 4

	parkBase = 192 // 64 shards * shardCells(3) = 192..383

	modelMemSize = 400
)

// pkg paths of the protocol packages.
const (
	pkgCore  = "sprwl/internal/core"
	pkgPark  = "sprwl/internal/park"
	pkgLocks = "sprwl/internal/locks"
)

// coreOptions mirrors core.Options for binding; only fields the modeled
// paths read need values.
type coreOptions struct {
	ReaderSync, JoinWaiters, WriterSync, ReaderHTMFirst bool
	ReaderTracking                                      core.ReaderTracking
	VersionedSGL                                        bool
	MaxRetries                                          int
}

func boolConst(b bool) *absVal { return numVal(Konst(boolTo(b))) }
func intConst(v int) *absVal   { return numVal(Konst(uint64(int64(v)))) }

// binder assembles the object graph one configuration's threads share
// structurally (each thread gets its own graph instance: extraction
// mutates field slots).
type binder struct {
	threads int
	parker  bool
	opts    coreOptions
}

// bravo reports whether the configuration allocates a BRAVO table.
func (b *binder) bravo() bool { return b.opts.ReaderTracking == core.TrackBravo }

func (b *binder) envObj() *object { return newObject("env", "env", nil) }

func (b *binder) tableObj() *object {
	t := newObject("Table", "parkTable", map[string]*absVal{
		"load": {fn: "envload"},
		"shards": regionVal(&region{
			name:   "shards",
			base:   Konst(parkBase),
			stride: shardCells,
			fields: shardLayout(),
		}),
	})
	t.ref = funcRef{pkgPath: pkgPark, recv: "Table"}
	return t
}

func (b *binder) parkerVal() *absVal {
	if b.parker {
		return objVal(b.tableObj())
	}
	return objVal(nilObject("Table", "parker"))
}

func (b *binder) hubObj(parker *absVal) *object {
	return newObject("Hub", "wakes", map[string]*absVal{"p": parker})
}

func (b *binder) optsObj() *object {
	o := b.opts
	return newObject("Options", "opts", map[string]*absVal{
		"ReaderSync":     boolConst(o.ReaderSync),
		"JoinWaiters":    boolConst(o.JoinWaiters),
		"WriterSync":     boolConst(o.WriterSync),
		"ReaderHTMFirst": boolConst(o.ReaderHTMFirst),
		"ReaderTracking": intConst(int(o.ReaderTracking)),
		"VersionedSGL":   boolConst(o.VersionedSGL),
		"MaxRetries":     intConst(o.MaxRetries),
	})
}

func (b *binder) lockObj() *object {
	env := objVal(b.envObj())
	parker := b.parkerVal()
	hub := objVal(b.hubObj(parker))
	gl := newObject("SpinMutex", "gl", map[string]*absVal{
		"e":   env,
		"a":   numVal(Konst(cellGL)),
		"hub": hub,
	})
	indFlags := newObject("Flags", "indFlags", map[string]*absVal{
		"mem":  env,
		"base": numVal(Konst(baseState)),
		"n":    intConst(b.threads),
	})
	var indBravo *absVal
	if b.bravo() {
		br := newObject("Bravo", "indBravo", map[string]*absVal{
			"mem":         env,
			"ctl":         numVal(Konst(bravoCtl)),
			"over":        numVal(Konst(bravoOver)),
			"table":       numVal(Konst(bravoTable)),
			"n":           intConst(bravoSlots),
			"mask":        numVal(Konst(bravoSlots - 1)),
			"collisions":  {cell: &cellRef{addr: Konst(bravoCollisions), kind: atomicCell}},
			"revocations": {cell: &cellRef{addr: Konst(bravoRevocations), kind: atomicCell}},
		})
		indBravo = objVal(br)
	} else {
		indBravo = objVal(nilObject("Bravo", "indBravo"))
	}
	return newObject("Lock", "lock", map[string]*absVal{
		"e":          env,
		"opts":       objVal(b.optsObj()),
		"threads":    intConst(b.threads),
		"est":        objVal(newObject("est", "est", nil)),
		"state":      numVal(Konst(baseState)),
		"clockW":     numVal(Konst(baseClockW)),
		"clockR":     numVal(Konst(baseClockR)),
		"waitingFor": numVal(Konst(baseWaitingFor)),
		"readerVer":  numVal(Konst(baseReaderVer)),
		"gl":         objVal(gl),
		"glVer":      numVal(Konst(cellGLVer)),
		"trackMode":  numVal(Konst(cellTrackMode)),
		"parker":     parker,
		"wakes":      hub,
		"indFlags":   objVal(indFlags),
		"indBravo":   indBravo,
	})
}

func (b *binder) handleObj(slot int) *object {
	// flaggedIn is seeded with the configuration's static tracking
	// backend: arriveIn re-stores the same constant, so departFrom's
	// backend dispatch stays static.
	return newObject("handle", "h", map[string]*absVal{
		"l":         objVal(b.lockObj()),
		"slot":      intConst(slot),
		"hint":      numVal(Konst(uint64(max(slot, 0)))),
		"ring":      objVal(newObject("ring", "ring", nil)),
		"flaggedIn": intConst(int(b.opts.ReaderTracking)),
		"flagToken": numVal(Konst(0)),
	})
}

// threadMut carries one mutation's per-thread hooks (see mutate.go).
type threadMut struct {
	// applyTo matches thread-name prefixes ("R", "W", "R0").
	applyTo     string
	skipCalls   []string
	plainStores []string
	// swapArriveCheck reorders the reader's flag store after the
	// fallback-lock check (the classic flag-then-check inversion).
	swapArriveCheck bool
}

func (tm *threadMut) appliesTo(name string) bool {
	return tm != nil && strings.HasPrefix(name, tm.applyTo)
}

// extractThread compiles one protocol root for one thread.
func extractThread(ex *extractor, b *binder, name string, root funcRef, slot int, role csRole, writeVal uint64, tm *threadMut) (*Prog, error) {
	opts := extractOpts{
		site:      name,
		role:      role,
		writeVal:  writeVal,
		dataCells: [2]uint64{cellData0, cellData1},
	}
	if tm.appliesTo(name) {
		opts.skipCalls = tm.skipCalls
		opts.plainStores = tm.plainStores
	}
	h := b.handleObj(slot)
	csID := intConst(0)
	body := &absVal{fn: "csbody"}
	p, err := ex.extractRoot(root, objVal(h), []*absVal{csID, body}, opts)
	if err != nil {
		return nil, fmt.Errorf("thread %s: %w", name, err)
	}
	if tm.appliesTo(name) && tm.swapArriveCheck {
		if err := swapFlagCheck(p); err != nil {
			return nil, fmt.Errorf("thread %s: %w", name, err)
		}
	}
	p.Name = name
	return p, nil
}

var readRoot = funcRef{pkgPath: pkgCore, recv: "handle", name: "Read"}
var writeRoot = funcRef{pkgPath: pkgCore, recv: "handle", name: "Write"}

// cellNames labels the layout for trace rendering.
func cellNames(threads int) map[uint64]string {
	n := map[uint64]string{
		cellGL: "gl", cellGLVer: "glVer", cellTrackMode: "trackMode",
		cellData0: "data0", cellData1: "data1", cellPhase: "phase",
		bravoCollisions: "bravo.collisions", bravoRevocations: "bravo.revocations",
		bravoCtl: "bravo.ctl", bravoOver: "bravo.over",
	}
	for i := 0; i < threads; i++ {
		n[baseState+uint64(i)] = fmt.Sprintf("state[%d]", i)
		n[baseClockW+uint64(i)] = fmt.Sprintf("clockW[%d]", i)
		n[baseClockR+uint64(i)] = fmt.Sprintf("clockR[%d]", i)
		n[baseWaitingFor+uint64(i)] = fmt.Sprintf("waitingFor[%d]", i)
		n[baseReaderVer+uint64(i)] = fmt.Sprintf("readerVer[%d]", i)
	}
	for i := 0; i < bravoSlots; i++ {
		n[bravoTable+uint64(i*8)] = fmt.Sprintf("bravo.slot[%d]", i)
	}
	for s := 0; s < 64; s++ {
		base := uint64(parkBase + s*shardCells)
		n[base] = fmt.Sprintf("shard[%d].mu", s)
		n[base+1] = fmt.Sprintf("shard[%d].gen", s)
		n[base+2] = fmt.Sprintf("shard[%d].waiters", s)
	}
	return n
}

// quiescenceCells are the words that must read zero once every thread
// retired: lock released, flags retracted, registrations cleared, no
// waiter counted in any shard.
func quiescenceCells(threads int, bravo bool) []uint64 {
	cells := []uint64{cellGL}
	for i := 0; i < threads; i++ {
		cells = append(cells, baseState+uint64(i), baseWaitingFor+uint64(i), baseReaderVer+uint64(i))
	}
	if bravo {
		cells = append(cells, bravoOver)
		for i := 0; i < bravoSlots; i++ {
			cells = append(cells, bravoTable+uint64(i*8))
		}
	}
	for s := 0; s < 64; s++ {
		cells = append(cells, uint64(parkBase+s*shardCells), uint64(parkBase+s*shardCells+2))
	}
	return cells
}

func protocolFinals(threads int, bravo bool) []Final {
	return []Final{
		{Kind: FinalZero, Cells: quiescenceCells(threads, bravo), Desc: "quiescence"},
		{Kind: FinalAllEqual, Cells: []uint64{cellData0, cellData1}, Desc: "section body not torn"},
	}
}

// ConfigNames lists the shipped configurations in display order.
func ConfigNames() []string {
	names := make([]string, 0, len(configBuilders))
	for n := range configBuilders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ConfigDoc describes a configuration for -list.
func ConfigDoc(name string) string { return configDocs[name] }

var configDocs = map[string]string{
	"park-handshake": "1 parked waiter + 1 store-then-wake waker over the real park.Table (DESIGN §10 lost-wakeup claim)",
	"mutex-2w":       "2 fallback writers: SGL mutual exclusion via lock-then-drain",
	"mutex-2r1w":     "2 readers + 1 fallback writer: flag-then-check vs lock-then-drain mutual exclusion",
	"rsync-2r1w":     "2 readers + 1 writer with ReaderSync+JoinWaiters: Alg. 2 waits and writer-retire wakeups",
	"bravo-1r1w":     "1 BRAVO reader + 1 fallback writer: revocation visibility during the drain",
	"vsgl-1r1w":      "1 reader + 1 fallback writer with VersionedSGL: §3.3 registration/gating handshake",
}

var configBuilders = map[string]func(ex *extractor, tm *threadMut) (*Model, error){
	"park-handshake": buildParkHandshake,
	"mutex-2w":       buildMutex2W,
	"mutex-2r1w":     buildMutex2R1W,
	"rsync-2r1w":     buildRSync2R1W,
	"bravo-1r1w":     buildBravo1R1W,
	"vsgl-1r1w":      buildVSGL1R1W,
}

// BuildConfig extracts and assembles a shipped configuration; tm (may be
// nil) applies one mutation's hooks.
func BuildConfig(ex *extractor, name string, tm *threadMut) (*Model, error) {
	b, ok := configBuilders[name]
	if !ok {
		return nil, fmt.Errorf("interleave: unknown config %q (have %s)", name, strings.Join(ConfigNames(), ", "))
	}
	return b(ex, tm)
}

func buildMutex2W(ex *extractor, tm *threadMut) (*Model, error) {
	b := &binder{threads: 2, parker: true, opts: coreOptions{MaxRetries: 1}}
	w0, err := extractThread(ex, b, "W0", writeRoot, -1, csWriter, 1, tm)
	if err != nil {
		return nil, err
	}
	w1, err := extractThread(ex, b, "W1", writeRoot, -1, csWriter, 2, tm)
	if err != nil {
		return nil, err
	}
	return &Model{
		Name:      "mutex-2w",
		Threads:   []ThreadSpec{{"W0", w0}, {"W1", w1}},
		MemSize:   modelMemSize,
		CellNames: cellNames(2),
		Finals:    protocolFinals(2, false),
	}, nil
}

func buildMutex2R1W(ex *extractor, tm *threadMut) (*Model, error) {
	b := &binder{threads: 3, parker: true, opts: coreOptions{MaxRetries: 1}}
	r0, err := extractThread(ex, b, "R0", readRoot, 0, csReader, 0, tm)
	if err != nil {
		return nil, err
	}
	r1, err := extractThread(ex, b, "R1", readRoot, 1, csReader, 0, tm)
	if err != nil {
		return nil, err
	}
	w, err := extractThread(ex, b, "W", writeRoot, 2, csWriter, 7, tm)
	if err != nil {
		return nil, err
	}
	return &Model{
		Name:      "mutex-2r1w",
		Threads:   []ThreadSpec{{"R0", r0}, {"R1", r1}, {"W", w}},
		MemSize:   modelMemSize,
		CellNames: cellNames(3),
		Finals:    protocolFinals(3, false),
	}, nil
}

func buildRSync2R1W(ex *extractor, tm *threadMut) (*Model, error) {
	b := &binder{threads: 3, parker: true, opts: coreOptions{
		ReaderSync: true, JoinWaiters: true, MaxRetries: 1,
	}}
	r0, err := extractThread(ex, b, "R0", readRoot, 0, csReader, 0, tm)
	if err != nil {
		return nil, err
	}
	r1, err := extractThread(ex, b, "R1", readRoot, 1, csReader, 0, tm)
	if err != nil {
		return nil, err
	}
	w, err := extractThread(ex, b, "W", writeRoot, 2, csWriter, 7, tm)
	if err != nil {
		return nil, err
	}
	return &Model{
		Name:      "rsync-2r1w",
		Threads:   []ThreadSpec{{"R0", r0}, {"R1", r1}, {"W", w}},
		MemSize:   modelMemSize,
		CellNames: cellNames(3),
		Finals:    protocolFinals(3, false),
	}, nil
}

func buildBravo1R1W(ex *extractor, tm *threadMut) (*Model, error) {
	b := &binder{threads: 2, parker: true, opts: coreOptions{
		ReaderTracking: core.TrackBravo, MaxRetries: 1,
	}}
	r0, err := extractThread(ex, b, "R0", readRoot, 0, csReader, 0, tm)
	if err != nil {
		return nil, err
	}
	w, err := extractThread(ex, b, "W", writeRoot, 1, csWriter, 7, tm)
	if err != nil {
		return nil, err
	}
	return &Model{
		Name:      "bravo-1r1w",
		Threads:   []ThreadSpec{{"R0", r0}, {"W", w}},
		MemSize:   modelMemSize,
		Init:      map[uint64]uint64{bravoCtl: 1}, // epoch 0, bias on
		CellNames: cellNames(2),
		Finals: []Final{
			{Kind: FinalZero, Cells: quiescenceCells(2, true), Desc: "quiescence"},
			{Kind: FinalAllEqual, Cells: []uint64{cellData0, cellData1}, Desc: "section body not torn"},
		},
	}, nil
}

func buildVSGL1R1W(ex *extractor, tm *threadMut) (*Model, error) {
	b := &binder{threads: 2, parker: true, opts: coreOptions{
		VersionedSGL: true, MaxRetries: 1,
	}}
	r0, err := extractThread(ex, b, "R0", readRoot, 0, csReader, 0, tm)
	if err != nil {
		return nil, err
	}
	w, err := extractThread(ex, b, "W", writeRoot, 1, csWriter, 7, tm)
	if err != nil {
		return nil, err
	}
	return &Model{
		Name:      "vsgl-1r1w",
		Threads:   []ThreadSpec{{"R0", r0}, {"W", w}},
		MemSize:   modelMemSize,
		CellNames: cellNames(2),
		Finals:    protocolFinals(2, false),
	}, nil
}

// buildParkHandshake models DESIGN §10's store-then-wake vs
// register-then-check argument directly over the real extracted
// park.Table: a waiter loops re-checking the phase word and parking on
// it; the waker stores the phase, then calls the real Wake. The glue
// around the extracted programs is the minimal wait-site loop; Park and
// Wake themselves are compiled from source.
func buildParkHandshake(ex *extractor, tm *threadMut) (*Model, error) {
	b := &binder{threads: 2, parker: true}
	tbl := b.tableObj()

	parkProg, err := ex.extractRoot(
		funcRef{pkgPath: pkgPark, recv: "Table", name: "Park"},
		objVal(tbl),
		[]*absVal{numVal(Konst(cellPhase)), numVal(Konst(0))},
		extractOpts{site: "waiter"},
	)
	if err != nil {
		return nil, err
	}

	// Waiter: for phase == 0 { Park(phase, 0) }; halt.
	rPhase := Reg(parkProg.NRegs)
	var code []Instr
	code = append(code,
		Instr{Op: OpLoad, Dst: rPhase, Loc: Konst(cellPhase), Atomic: true, Site: "waiter", Note: "re-check phase"},
		Instr{Op: OpBranch, Cond: RegRef(rPhase), Site: "waiter"}, // A -> exit, patched below
	)
	code = appendProg(code, parkProg, 0) // halt -> loop back to the re-check
	exit := len(code)
	code[1].A = exit
	code[1].B = 2
	code = append(code, Instr{Op: OpHalt, Site: "waiter"})
	waiter := &Prog{Name: "waiter", Code: code, NRegs: parkProg.NRegs + 1}

	// Waker: store phase = 1 (the retirement store), then the real Wake —
	// unless the drop-wake mutation deleted it.
	var wcode []Instr
	wcode = append(wcode, Instr{Op: OpStore, Loc: Konst(cellPhase), Val: Konst(1), Atomic: true, Site: "waker", Note: "phase store"})
	dropWake := tm.appliesTo("waker") && matchesSuffix(tm.skipCalls, "Table.Wake")
	if !dropWake {
		wakeProg, err := ex.extractRoot(
			funcRef{pkgPath: pkgPark, recv: "Table", name: "Wake"},
			objVal(b.tableObj()),
			[]*absVal{numVal(Konst(cellPhase))},
			extractOpts{site: "waker"},
		)
		if err != nil {
			return nil, err
		}
		wcode = appendProg(wcode, wakeProg, -1)
	} else {
		wcode = append(wcode, Instr{Op: OpHalt, Site: "waker"})
	}
	nregs := 0
	for _, in := range wcode {
		if int(in.Dst) >= nregs {
			nregs = int(in.Dst) + 1
		}
	}
	waker := &Prog{Name: "waker", Code: wcode, NRegs: nregs}

	return &Model{
		Name:      "park-handshake",
		Threads:   []ThreadSpec{{"waiter", waiter}, {"waker", waker}},
		MemSize:   modelMemSize,
		CellNames: cellNames(2),
		Finals: []Final{
			{Kind: FinalZero, Cells: quiescenceCells(0, false), Desc: "quiescence"},
		},
	}, nil
}

// appendProg appends src's code to dst, shifting control-flow targets by
// the current offset. haltTo >= 0 turns src's OpHalt instructions into
// jumps to that (already-shifted) dst index; haltTo < 0 keeps them.
func appendProg(dst []Instr, src *Prog, haltTo int) []Instr {
	off := len(dst)
	for _, in := range src.Code {
		switch in.Op {
		case OpJump, OpBranch, OpChoice:
			in.A += off
			if in.Op != OpJump {
				in.B += off
			}
		case OpHalt:
			if haltTo >= 0 {
				in = Instr{Op: OpJump, A: haltTo, Site: in.Site, Pos: in.Pos}
			}
		}
		dst = append(dst, in)
	}
	return dst
}

// swapFlagCheck applies the reordered-flag-store mutation: the reader's
// Arrive store and the following fallback-lock check load exchange
// places, turning flag-then-check into check-then-flag. The transform
// verifies the two steps are joined by a linear invisible chain with no
// outside jumps into it, so the swap is exactly a reorder of the two
// shared-memory accesses.
func swapFlagCheck(p *Prog) error {
	pcS := -1
	for i := range p.Code {
		in := &p.Code[i]
		if in.Op == OpStore && strings.Contains(in.Site, "Arrive") {
			pcS = i
			break
		}
	}
	if pcS < 0 {
		return fmt.Errorf("swapFlagCheck: no Arrive store in %s", p.Name)
	}
	chain := map[int]bool{}
	pc := pcS + 1
	for {
		if pc < 0 || pc >= len(p.Code) || chain[pc] {
			return fmt.Errorf("swapFlagCheck: no linear path from the Arrive store to a check load")
		}
		in := &p.Code[pc]
		if in.Op.Visible() {
			if in.Op != OpLoad {
				return fmt.Errorf("swapFlagCheck: next visible step after Arrive is %s, want load", in.Op.Name())
			}
			break
		}
		chain[pc] = true
		switch in.Op {
		case OpJump:
			pc = in.A
		case OpLocal:
			pc++
		default:
			return fmt.Errorf("swapFlagCheck: %s between the Arrive store and the check load", in.Op.Name())
		}
	}
	pcL := pc
	// No instruction outside the chain may jump into it (or at the load):
	// entering mid-chain would execute the relocated store on a path that
	// previously performed only the load.
	for i := range p.Code {
		if i == pcS || chain[i] {
			continue
		}
		in := &p.Code[i]
		switch in.Op {
		case OpJump:
			if chain[in.A] || in.A == pcL {
				return fmt.Errorf("swapFlagCheck: external jump into the reorder window")
			}
		case OpBranch, OpChoice:
			if chain[in.A] || chain[in.B] || in.A == pcL || in.B == pcL {
				return fmt.Errorf("swapFlagCheck: external branch into the reorder window")
			}
		}
	}
	p.Code[pcS], p.Code[pcL] = p.Code[pcL], p.Code[pcS]
	return nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
