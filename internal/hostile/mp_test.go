package hostile

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"sprwl/internal/memmodel"
)

// TestMPWorkerProcess is the worker-process entry point: the crash
// harness re-execs the test binary with -test.run pinned to this test and
// the protocol parameters in the environment. Without them it skips, so a
// normal `go test` run is unaffected.
func TestMPWorkerProcess(t *testing.T) {
	if os.Getenv("SPRWL_HOSTILE_WORKER") != "1" {
		t.Skip("not a hostile worker process")
	}
	atoi := func(k string) int {
		n, err := strconv.Atoi(os.Getenv(k))
		if err != nil {
			t.Fatalf("bad %s: %v", k, err)
		}
		return n
	}
	w := &MPWorker{
		ID:      atoi("SPRWL_HOSTILE_ID"),
		Workers: atoi("SPRWL_HOSTILE_WORKERS"),
		Ops:     atoi("SPRWL_HOSTILE_OPS"),
	}
	seed, err := strconv.ParseInt(os.Getenv("SPRWL_HOSTILE_SEED"), 10, 64)
	if err != nil {
		t.Fatalf("bad SPRWL_HOSTILE_SEED: %v", err)
	}
	w.Seed = seed
	if crash := os.Getenv("SPRWL_HOSTILE_CRASH"); crash != "" {
		var op int
		var point string
		if _, err := fmt.Sscanf(crash, "%s %d", &point, &op); err != nil {
			t.Fatalf("bad SPRWL_HOSTILE_CRASH %q: %v", crash, err)
		}
		w.CrashPoint, w.CrashOp = point, op
	}
	a, err := MapArena(os.Getenv("SPRWL_HOSTILE_ARENA"), MPArenaWords(w.Workers), false)
	if err != nil {
		t.Fatalf("map arena: %v", err)
	}
	defer a.Close()
	w.A = a
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

// mpRound is one crash-injection round's scripted parameters.
type mpRound struct {
	point   string // crash point name (one of CrashPoints)
	seed    int64
	victim  int
	crashOp int // victim plan index at whose fence the SIGKILL lands
}

// pickCrashOp returns a mid-plan op index of the required kind: early
// enough that survivors still have writes left (so the recovery and
// revocation paths actually run), late enough that real traffic precedes
// the crash.
func pickCrashOp(plan []MPOp, wantWrite bool) int {
	var idx []int
	for i, op := range plan {
		if op.Write == wantWrite {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return -1
	}
	return idx[len(idx)*2/5]
}

// writesBefore counts write ops in plan[:i].
func writesBefore(plan []MPOp, i int) uint64 {
	var n uint64
	for _, op := range plan[:i] {
		if op.Write {
			n++
		}
	}
	return n
}

// TestMPCrashInjection is the multi-process tier: workers over a shared
// mmap arena, with the parent SIGKILLing one worker per round at a named
// fence point and verifying that the survivors recover the lock, revoke
// the dead reader's flag, drain, finish their plans, and keep the
// counter/mirror/journal oracle exact.
func TestMPCrashInjection(t *testing.T) {
	if _, err := MapArena(filepath.Join(t.TempDir(), "probe"), 8, true); err != nil {
		t.Skipf("no shared-memory arena on this platform: %v", err)
	}
	LeakCheck(t)

	const (
		workers = 4
		ops     = 120
	)
	points := CrashPoints()
	rounds := 24 // 8 per crash point; acceptance floor is 20 total
	if testing.Short() {
		rounds = len(points) // one per point: keeps -race -short CI-sized
	}
	for r := 0; r < rounds; r++ {
		round := mpRound{
			point:  points[r%len(points)],
			seed:   int64(1000 + r),
			victim: r % workers,
		}
		wantWrite := round.point != CrashReaderFlagged
		round.crashOp = pickCrashOp(MPPlan(round.seed, round.victim, ops), wantWrite)
		if round.crashOp < 0 {
			t.Fatalf("round %d: plan has no qualifying op", r)
		}
		t.Run(fmt.Sprintf("round=%d/%s/victim=%d", r, round.point, round.victim), func(t *testing.T) {
			runCrashRound(t, round, workers, ops)
		})
	}
}

func runCrashRound(t *testing.T, round mpRound, workers, ops int) {
	path := filepath.Join(t.TempDir(), "arena")
	a, err := MapArena(path, MPArenaWords(workers), true)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	InitArena(a, workers)
	e := a.Env(workers)

	type child struct {
		cmd *exec.Cmd
		out *bytes.Buffer
	}
	kids := make([]child, workers)
	for w := 0; w < workers; w++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMPWorkerProcess$", "-test.count=1")
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		cmd.Env = append(os.Environ(),
			"SPRWL_HOSTILE_WORKER=1",
			"SPRWL_HOSTILE_ARENA="+path,
			"SPRWL_HOSTILE_ID="+strconv.Itoa(w),
			"SPRWL_HOSTILE_WORKERS="+strconv.Itoa(workers),
			"SPRWL_HOSTILE_SEED="+strconv.FormatInt(round.seed, 10),
			"SPRWL_HOSTILE_OPS="+strconv.Itoa(ops),
		)
		if w == round.victim {
			cmd.Env = append(cmd.Env,
				fmt.Sprintf("SPRWL_HOSTILE_CRASH=%s %d", round.point, round.crashOp))
		}
		if err := cmd.Start(); err != nil {
			t.Fatalf("start worker %d: %v", w, err)
		}
		kids[w] = child{cmd: cmd, out: &out}
	}
	defer func() {
		for _, k := range kids {
			k.cmd.Process.Kill()
		}
	}()

	waitWord := func(addr memmodel.Addr, want uint64, d time.Duration, what string) {
		t.Helper()
		dl := time.Now().Add(d)
		for e.Load(addr) != want {
			if time.Now().After(dl) {
				var dump string
				for w, k := range kids {
					dump += fmt.Sprintf("\n-- worker %d --\n%s", w, k.out.String())
				}
				t.Fatalf("timed out waiting for %s%s", what, dump)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Barrier: all workers mapped, then open the gate.
	waitWord(memmodel.Addr(mpReady), uint64(workers), 30*time.Second, "worker readiness")
	e.Store(memmodel.Addr(mpGate), 1)

	// The victim parks at its fence; kill it there, then publish its
	// death — exactly the order a failure detector would.
	victimFence := workerBase(round.victim) + wFence
	waitWord(victimFence, 1, 30*time.Second, "victim to reach fence "+round.point)
	if err := kids[round.victim].cmd.Process.Kill(); err != nil {
		t.Fatalf("kill victim: %v", err)
	}
	kids[round.victim].cmd.Wait() // must reap before declaring death
	e.Store(workerBase(round.victim)+wDead, 1)

	// Survivors must drain and finish on their own.
	for w, k := range kids {
		if w == round.victim {
			continue
		}
		done := make(chan error, 1)
		go func() { done <- k.cmd.Wait() }()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("survivor %d failed: %v\n%s", w, err, k.out.String())
			}
		case <-time.After(45 * time.Second):
			t.Fatalf("survivor %d hung after the crash (drain/recovery wedged)\n%s", w, k.out.String())
		}
	}

	// Post-mortem settlement: idempotent; only acts if the corpse's lock
	// or journal is still pending (i.e. every survivor finished before
	// needing recovery). Makes the victim's applied count deterministic.
	RecoverArena(a, workers, -1)

	// Oracle. The mirror catches torn counter updates; the journal makes
	// each worker's applied prefix exact, so the counter must equal the
	// sum of every applied write's delta, replayed from the seeds.
	counter := e.Load(memmodel.Addr(mpCounter))
	if m := e.Load(memmodel.Addr(mpMirror)); counter != m {
		t.Errorf("counter %d != mirror %d", counter, m)
	}
	var want uint64
	for w := 0; w < workers; w++ {
		plan := MPPlan(round.seed, w, ops)
		applied := e.Load(workerBase(w) + wApplied)
		var planned, reads uint64
		for _, op := range plan {
			if op.Write {
				planned++
				if planned <= applied {
					want += op.Delta
				}
			} else {
				reads++
			}
		}
		if torn := e.Load(workerBase(w) + wTorn); torn != 0 {
			t.Errorf("worker %d observed %d torn counter/mirror pairs", w, torn)
		}
		if w == round.victim {
			wantApplied := writesBefore(plan, round.crashOp)
			if round.point == CrashWriterMidBody {
				wantApplied++ // journal published: recovery rolls it forward
			}
			if applied != wantApplied {
				t.Errorf("victim applied %d writes, want %d (%s at op %d)",
					applied, wantApplied, round.point, round.crashOp)
			}
			continue
		}
		if applied != planned {
			t.Errorf("survivor %d applied %d/%d writes", w, applied, planned)
		}
		if got := e.Load(workerBase(w) + wReads); got != reads {
			t.Errorf("survivor %d completed %d/%d reads", w, got, reads)
		}
		if e.Load(workerBase(w)+wDone) != 1 {
			t.Errorf("survivor %d never reported done", w)
		}
	}
	if counter != want {
		t.Errorf("counter = %d, want %d (sum of applied deltas)", counter, want)
	}
	if lk := e.Load(memmodel.Addr(mpLock)); lk != 0 {
		t.Errorf("lock word left held (%d) after settlement", lk)
	}
}
