package server

// White-box tests for watched stepping: a session that records a trace or
// carries a breakpoint runs whole chunks, reading one register row per
// cycle for the recorder, the compiled predicates and any observer. Each
// test holds a watched session to an unwatched reference run and to the
// reference interpreter's rows.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"testing"

	"cuttlego/internal/bench"
	"cuttlego/internal/faultinj"
	"cuttlego/internal/interp"
	"cuttlego/internal/native"
	"cuttlego/internal/sim"
	"cuttlego/internal/tracedb"
)

// specRows runs a catalogue design on the reference interpreter and returns
// its register rows for cycles 0..n (row c = state at the start of cycle c).
func specRows(t *testing.T, catalog string, n uint64) [][]uint64 {
	t.Helper()
	bm, ok := bench.Lookup(catalog)
	if !ok {
		t.Fatalf("no catalogue design %q", catalog)
	}
	inst := bm.New()
	eng, err := interp.New(inst.Design)
	if err != nil {
		t.Fatalf("interp.New: %v", err)
	}
	var tb sim.Testbench = sim.NopBench{}
	if inst.Bench != nil {
		tb = inst.Bench
	}
	rows := make([][]uint64, 0, n+1)
	for c := uint64(0); ; c++ {
		row := make([]uint64, len(inst.Design.Registers))
		sim.ReadRow(eng, row)
		rows = append(rows, row)
		if c == n {
			return rows
		}
		tb.BeforeCycle(eng)
		eng.Cycle()
		tb.AfterCycle(eng)
	}
}

// stateCond is a breakpoint that holds exactly when every register equals
// row; on a design whose states do not repeat it first holds at row's cycle.
func stateCond(t *testing.T, catalog string, row []uint64) string {
	t.Helper()
	bm, _ := bench.Lookup(catalog)
	d := bm.New().Design
	terms := make([]string, 0, len(row))
	for i, r := range d.Registers {
		if w := r.Type.BitWidth(); w > 0 {
			terms = append(terms, fmt.Sprintf("(%s.rd0() == %d'd%d)", r.Name, w, row[i]))
		}
	}
	return strings.Join(terms, " & ")
}

// watchServer is a daemon with a store (for recordings) and the native tier.
func watchServer(t *testing.T, nativeCache string) *Server {
	t.Helper()
	srv, err := New(Config{StoreDir: t.TempDir(), NativeCacheDir: nativeCache})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func admitSession(t *testing.T, srv *Server, id string, req CreateRequest) *session {
	t.Helper()
	sess, err := newSession(id, req, srv.env())
	if err != nil {
		t.Fatalf("newSession(%+v): %v", req, err)
	}
	if _, err := srv.admit(sess); err != nil {
		t.Fatalf("admit: %v", err)
	}
	return sess
}

// recordedRows flushes the session's recording and reads rows first..last.
func recordedRows(t *testing.T, sess *session, dir string, first, last uint64) [][]uint64 {
	t.Helper()
	if err := sess.traceFlush(); err != nil {
		t.Fatalf("trace flush: %v", err)
	}
	r, err := tracedb.Open(dir, faultinj.OS())
	if err != nil {
		t.Fatalf("tracedb.Open: %v", err)
	}
	if f, l, ok := r.Bounds(); !ok || f > first || l != last {
		t.Fatalf("recording spans %d..%d (ok=%v), want through %d..%d", f, l, ok, first, last)
	}
	var rows [][]uint64
	for c := first; c <= last; c++ {
		row, err := r.Row(c)
		if err != nil {
			t.Fatalf("Row(%d): %v", c, err)
		}
		rows = append(rows, row)
	}
	return rows
}

func sameRows(t *testing.T, what string, got, want [][]uint64, first uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
	}
	for i := range got {
		for j := range got[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: cycle %d register %d = %#x, reference %#x", what, first+uint64(i), j, got[i][j], want[i][j])
			}
		}
	}
}

// TestWatchedStepMatchesUnwatched steps a recording, breakpointed session on
// every engine family and checks it against an unwatched run of the same
// engine (stop cycle, digest) and the interpreter's rows (recording).
// collatz is durable, so its chunks end at 64-cycle snapshot boundaries;
// rv32i carries a testbench, so its watched chunks run the full 1024
// cycles. Both breakpoints fire past cycle 1024.
func TestWatchedStepMatchesUnwatched(t *testing.T) {
	const target = 1500
	cache := t.TempDir()
	engines := []CreateRequest{
		{Engine: "interp"},
		{Engine: "cuttlesim", Backend: "closure"},
		{Engine: "cuttlesim", Backend: "bytecode"},
		{Engine: "rtlsim", Backend: "fused"},
		{Engine: "native"},
	}
	for _, catalog := range []string{"collatz", "rv32i"} {
		spec := specRows(t, catalog, target+100)
		cond := stateCond(t, catalog, spec[target])
		wantStop := fmt.Sprintf("condition %q at cycle %d", cond, target)
		for _, req := range engines {
			req.Catalog = catalog
			t.Run(catalog+"/"+req.Engine+"/"+req.Backend, func(t *testing.T) {
				srv := watchServer(t, cache)
				ref := admitSession(t, srv, "ref", req)
				if ran, stopped, err := ref.step(context.Background(), target); err != nil || ran != target || stopped != "" {
					t.Fatalf("reference step: ran %d stopped %q err %v", ran, stopped, err)
				}

				sess := admitSession(t, srv, "watched", req)
				dir := t.TempDir()
				if err := sess.record(true, dir, faultinj.OS()); err != nil {
					t.Fatalf("record: %v", err)
				}
				if err := sess.setBreak(BreakRequest{Cond: cond}); err != nil {
					t.Fatalf("break: %v", err)
				}
				ran, stopped, err := sess.step(context.Background(), target+500)
				if err != nil || ran != target || stopped != wantStop {
					t.Fatalf("watched step: ran %d stopped %q err %v; want %d, %q", ran, stopped, err, target, wantStop)
				}
				if got, want := sess.info(), ref.info(); got.Cycle != want.Cycle || got.Digest != want.Digest {
					t.Fatalf("watched session at cycle %d digest %s, unwatched at %d digest %s", got.Cycle, got.Digest, want.Cycle, want.Digest)
				}
				// Stepping on past the breakpoint keeps the recording contiguous.
				if ran, stopped, err := sess.step(context.Background(), 100); err != nil || ran != 100 || stopped != "" {
					t.Fatalf("step past the breakpoint: ran %d stopped %q err %v", ran, stopped, err)
				}
				sameRows(t, "recording", recordedRows(t, sess, dir, 0, target+100), spec, 0)
			})
		}
	}
}

// TestWatchedStepTimeoutKeepsRecordingContiguous cancels the context a
// hundred cycles into a watched 1024-cycle chunk: the chunk completes, the
// step answers "timeout" at the chunk boundary, and the next step appends
// to the recording without a gap.
func TestWatchedStepTimeoutKeepsRecordingContiguous(t *testing.T) {
	srv := watchServer(t, "")
	sess := admitSession(t, srv, "s", CreateRequest{Catalog: "rv32i"})
	dir := t.TempDir()
	if err := sess.record(true, dir, faultinj.OS()); err != nil {
		t.Fatalf("record: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	sess.mu.Lock()
	ran, stopped, err := sess.stepLocked(ctx, 5000, func() error {
		if calls++; calls == 100 {
			cancel()
		}
		return nil
	})
	sess.mu.Unlock()
	if err != nil || ran != 1024 || stopped != "timeout" {
		t.Fatalf("cancelled watched step: ran %d stopped %q err %v; want 1024, timeout", ran, stopped, err)
	}
	if ran, _, err := sess.step(context.Background(), 10); err != nil || ran != 10 {
		t.Fatalf("step after timeout: ran %d err %v", ran, err)
	}
	sameRows(t, "recording", recordedRows(t, sess, dir, 0, 1034), specRows(t, "rv32i", 1034), 0)
}

// TestWatchedStepDemotesPromotedSession kills a promoted session's
// subprocess in the middle of a watched step: the step completes on the
// demoted in-process engine, the digest matches the interp reference, and
// the recording holds the reference rows across the crash.
func TestWatchedStepDemotesPromotedSession(t *testing.T) {
	_, sess, ref := promoteTestServer(t, 128)
	stepUntilPromoted(t, sess)
	dir := t.TempDir()
	if err := sess.record(true, dir, faultinj.OS()); err != nil {
		t.Fatalf("record: %v", err)
	}
	if err := sess.setBreak(BreakRequest{Cond: "x.rd0() == 32'd0"}); err != nil {
		t.Fatalf("break: %v", err)
	}
	start := sess.info().Cycle
	sess.mu.Lock()
	ne, ok := underlying(sess.eng).(*native.Engine)
	if !ok {
		sess.mu.Unlock()
		t.Fatalf("promoted session is not running a native engine")
	}
	calls := 0
	ran, stopped, err := sess.stepLocked(context.Background(), 300, func() error {
		if calls++; calls == 100 {
			if err := syscall.Kill(ne.Pid(), syscall.SIGKILL); err != nil {
				return err
			}
		}
		return nil
	})
	tier := sess.tier
	sess.mu.Unlock()
	if err != nil || ran != 300 || stopped != "" {
		t.Fatalf("watched step across the crash: ran %d stopped %q err %v", ran, stopped, err)
	}
	if tier != "" {
		t.Fatalf("session still on tier %q after its subprocess died", tier)
	}
	if got, want := catchUp(t, sess, ref); got != want {
		t.Fatalf("digest diverged across the watched demotion: %s vs %s", got, want)
	}
	end := start + 300
	sameRows(t, "recording", recordedRows(t, sess, dir, start, end), specRows(t, "collatz", end)[start:], start)
}

// TestWatchedReverseReappendsIdenticalRows rewinds a recorded session and
// steps it forward again: the replayed and re-stepped cycles re-record
// exactly the rows first recorded.
func TestWatchedReverseReappendsIdenticalRows(t *testing.T) {
	srv := watchServer(t, "")
	sess := admitSession(t, srv, "s", CreateRequest{Catalog: "collatz"})
	dir := t.TempDir()
	if err := sess.record(true, dir, faultinj.OS()); err != nil {
		t.Fatalf("record: %v", err)
	}
	if ran, _, err := sess.step(context.Background(), 700); err != nil || ran != 700 {
		t.Fatalf("step: ran %d err %v", ran, err)
	}
	first := recordedRows(t, sess, dir, 0, 700)
	if err := sess.reverse(context.Background(), 300); err != nil {
		t.Fatalf("reverse: %v", err)
	}
	recordedRows(t, sess, dir, 0, 400)
	if ran, _, err := sess.step(context.Background(), 300); err != nil || ran != 300 {
		t.Fatalf("re-step: ran %d err %v", ran, err)
	}
	sameRows(t, "re-recorded", recordedRows(t, sess, dir, 0, 700), first, 0)
}

// TestWatchedStepDoesNotAllocate: a recording session with a breakpoint
// steps cuttlesim without allocating per cycle. The measured cycles stay
// inside one trace chunk, so no chunk file is written; the remaining
// allocations are the step call's own, a handful per call.
func TestWatchedStepDoesNotAllocate(t *testing.T) {
	srv := watchServer(t, "")
	sess := admitSession(t, srv, "s", CreateRequest{Catalog: "collatz"})
	if err := sess.record(true, t.TempDir(), faultinj.OS()); err != nil {
		t.Fatalf("record: %v", err)
	}
	if err := sess.setBreak(BreakRequest{Cond: "x.rd0() == 32'd0 & done.rd0() == 1'd1"}); err != nil {
		t.Fatalf("break: %v", err)
	}
	ctx := context.Background()
	// Warm up past the first chunk, so the recorder's column buffers have
	// reached their full size and the snapshot ring has filled.
	if _, _, err := sess.step(ctx, 1100); err != nil {
		t.Fatalf("warm-up step: %v", err)
	}
	const cycles = 900 // cycles 1100..2000: inside the chunk starting at 1024
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ran, stopped, err := sess.step(ctx, cycles)
	runtime.ReadMemStats(&after)
	if err != nil || ran != cycles || stopped != "" {
		t.Fatalf("step: ran %d stopped %q err %v", ran, stopped, err)
	}
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocations over %d watched cycles", allocs, cycles)
	// Durable sessions snapshot every 64 cycles: 14 snapshots of one
	// register slice each fall in this window.
	snaps := uint64(cycles / snapInterval)
	if extra := allocs - min(allocs, snaps); float64(extra)/cycles > 0.01 {
		t.Fatalf("%d allocations over %d watched cycles (%d snapshots); want ~0 per cycle", allocs, cycles, snaps)
	}
}
