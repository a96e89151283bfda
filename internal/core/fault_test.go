package core

import (
	"testing"

	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
)

// TestFaultHookFires proves both catalogue fence points actually fire, with
// the right slot, on the paths the hostile harness injects into: every
// uninstrumented read passes FaultReaderFlagged between flag-raise and
// body, and every fallback write passes FaultWriterAdvertised between
// lock acquisition and the reader drain.
func TestFaultHookFires(t *testing.T) {
	opts := DefaultOptions()
	opts.ReaderTracking = TrackBravo // dynamic handles force the write fallback path
	opts.ReaderHTMFirst = false      // force the uninstrumented (flagged) reader path
	l, _, _, _ := testSetup(t, 2, htm.Config{}, opts)

	type hit struct {
		p    FaultPoint
		slot int
	}
	var hits []hit
	l.SetFaultHook(func(p FaultPoint, slot int) {
		hits = append(hits, hit{p, slot})
	})

	h := l.NewHandle(0)
	dyn, err := l.NewDynamicHandle()
	if err != nil {
		t.Fatal(err)
	}

	h.Read(0, func(memmodel.Accessor) {})
	dyn.Write(1, func(memmodel.Accessor) {})

	var gotReader, gotWriter bool
	for _, got := range hits {
		switch got.p {
		case FaultReaderFlagged:
			gotReader = true
			if got.slot != 0 {
				t.Errorf("reader fence reported slot %d, want 0", got.slot)
			}
		case FaultWriterAdvertised:
			gotWriter = true
			if got.slot != -1 {
				t.Errorf("dynamic writer fence reported slot %d, want -1", got.slot)
			}
		}
	}
	if !gotReader {
		t.Errorf("FaultReaderFlagged never fired (hits: %v)", hits)
	}
	if !gotWriter {
		t.Errorf("FaultWriterAdvertised never fired on the fallback path (hits: %v)", hits)
	}

	// The catalogue and names are what the mp harness puts on its command
	// lines; keep them stable.
	pts := FaultPoints()
	if len(pts) != 2 || pts[0].String() != "reader-flagged" || pts[1].String() != "writer-advertised" {
		t.Fatalf("FaultPoints catalogue changed: %v", pts)
	}

	// Uninstall and verify the nil fast path still executes sections.
	l.SetFaultHook(nil)
	n := len(hits)
	h.Read(0, func(memmodel.Accessor) {})
	if len(hits) != n {
		t.Fatal("hook fired after uninstall")
	}
}
