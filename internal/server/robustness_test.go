package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cuttlego/internal/bench"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/faultinj"
	"cuttlego/internal/kclient"
	"cuttlego/internal/server"
	"cuttlego/internal/sim"
)

// apiStatus digs the HTTP status out of a kclient error.
func apiStatus(t *testing.T, err error) int {
	t.Helper()
	var apiErr *kclient.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *kclient.APIError", err)
	}
	return apiErr.Status
}

// snapshotBytes builds a small valid KSNP blob for store-level tests.
func snapshotBytes(t *testing.T) []byte {
	t.Helper()
	bm, _ := bench.Lookup("collatz")
	inst := bm.New()
	eng, err := cuttlesim.New(inst.Design, cuttlesim.Options{Level: cuttlesim.LStatic, Backend: cuttlesim.Closure})
	if err != nil {
		t.Fatalf("cuttlesim.New: %v", err)
	}
	sim.Run(eng, inst.Bench, 5)
	var snapper sim.Snapshotter = eng
	data, err := snapper.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return data
}

// TestCheckpointWriteFaultIsSurfaced: a failed store write must report an
// error, not silently drop durability; the next checkpoint (fault passed)
// must succeed and be resurrectable.
func TestCheckpointWriteFaultIsSurfaced(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	// Checkpoint issues two writes (meta, snapshot); fail the second.
	inj := faultinj.New(42, faultinj.Rule{Op: "fs.write", Nth: 2, Kind: faultinj.Fail})
	srvA, cA := newTestDaemon(t, server.Config{StoreDir: dir, Faults: inj})
	info, err := cA.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cA.Step(ctx, info.ID, 100); err != nil {
		t.Fatalf("step: %v", err)
	}
	_, err = cA.Checkpoint(ctx, info.ID)
	if err == nil {
		t.Fatal("checkpoint over a failed snapshot write must error")
	}
	// A failed store write is the daemon's fault, not the client's.
	if got := apiStatus(t, err); got != http.StatusInternalServerError {
		t.Fatalf("failed checkpoint write answered %d, want 500", got)
	}
	// The failed write must not have left a durable checkpoint behind.
	ents, _ := os.ReadDir(filepath.Join(dir, "sessions", info.ID))
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".ksnp") {
			t.Fatalf("failed checkpoint left %s behind", e.Name())
		}
	}
	ckpt, err := cA.Checkpoint(ctx, info.ID)
	if err != nil {
		t.Fatalf("retried checkpoint: %v", err)
	}
	if err := srvA.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, cB := newTestDaemon(t, server.Config{StoreDir: dir})
	restored, err := cB.Resurrect(ctx, info.ID, ckpt.Checkpoint)
	if err != nil {
		t.Fatalf("resurrect: %v", err)
	}
	if restored.Digest != ckpt.Digest {
		t.Fatalf("digest %s after resurrect, want %s", restored.Digest, ckpt.Digest)
	}
	// Determinism: the injector's event log pins which call was killed.
	evs := inj.Events()
	if len(evs) != 1 || evs[0].String() != "fs.write#2:fail" {
		t.Fatalf("injector events = %v, want exactly [fs.write#2:fail]", evs)
	}
}

// TestTornWriteIsQuarantinedByRecover: a write that tears mid-file but
// reports success (a lying disk) leaves undecodable bytes; the startup
// recovery scan must quarantine them, and a second scan must be a no-op.
func TestTornWriteIsQuarantinedByRecover(t *testing.T) {
	dir := t.TempDir()
	// Write 1 (meta) tears; writes 2-3 are clean; write 4 (second snapshot)
	// tears too.
	inj := faultinj.New(7,
		faultinj.Rule{Op: "fs.write", Nth: 1, Kind: faultinj.Tear},
		faultinj.Rule{Op: "fs.write", Nth: 4, Kind: faultinj.Tear},
	)
	st, err := server.OpenStoreFS(dir, faultinj.NewFS(faultinj.OS(), inj))
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	meta := server.SessionMeta{ID: "s1", Catalog: "collatz", Created: time.Now()}
	if err := st.SaveMeta(meta); err != nil { // torn, reported as success
		t.Fatalf("torn SaveMeta reported %v, want nil (the disk lied)", err)
	}
	meta.ID = "s2"
	if err := st.SaveMeta(meta); err != nil { // clean
		t.Fatalf("SaveMeta s2: %v", err)
	}
	good := snapshotBytes(t)
	if err := st.SaveSnapshot("s2", "c5", good); err != nil { // clean
		t.Fatalf("SaveSnapshot c5: %v", err)
	}
	if err := st.SaveSnapshot("s2", "c9", good); err != nil { // torn
		t.Fatalf("torn SaveSnapshot reported %v, want nil", err)
	}

	// Reopen without faults, as a restarted daemon would.
	st2, err := server.OpenStore(dir)
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	rep, err := st2.Recover()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if len(rep.CorruptMetas) != 1 || rep.CorruptMetas[0] != "s1" {
		t.Fatalf("CorruptMetas = %v, want [s1]", rep.CorruptMetas)
	}
	if len(rep.CorruptSnapshots) != 1 || rep.CorruptSnapshots[0] != "s2/c9" {
		t.Fatalf("CorruptSnapshots = %v, want [s2/c9]", rep.CorruptSnapshots)
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", "s1", "meta.json.corrupt")); err != nil {
		t.Fatalf("quarantined meta missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", "s2", "c9.ksnp.corrupt")); err != nil {
		t.Fatalf("quarantined snapshot missing: %v", err)
	}
	// The good checkpoint survives and the scan is idempotent.
	cks, err := st2.Checkpoints("s2")
	if err != nil || len(cks) != 1 || cks[0] != "c5" {
		t.Fatalf("Checkpoints(s2) = %v, %v; want [c5]", cks, err)
	}
	rep2, err := st2.Recover()
	if err != nil || !rep2.Clean() {
		t.Fatalf("second recover = %+v, %v; want clean", rep2, err)
	}
}

// TestCorruptCheckpointFallsBackThenGone drives the honest degradation
// sequence over HTTP: a corrupt latest checkpoint is a 500 that quarantines
// it, the retry falls back to the older good checkpoint, and a session with
// nothing restorable left is 410 Gone — never an endless 500.
func TestCorruptCheckpointFallsBackThenGone(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srvA, cA := newTestDaemon(t, server.Config{StoreDir: dir})
	info, err := cA.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cA.Step(ctx, info.ID, 100); err != nil {
		t.Fatalf("step: %v", err)
	}
	if _, err := cA.Checkpoint(ctx, info.ID); err != nil {
		t.Fatalf("checkpoint c100: %v", err)
	}
	if _, err := cA.Step(ctx, info.ID, 100); err != nil {
		t.Fatalf("step: %v", err)
	}
	if _, err := cA.Checkpoint(ctx, info.ID); err != nil {
		t.Fatalf("checkpoint c200: %v", err)
	}
	if err := srvA.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	flip := func(name string) {
		path := filepath.Join(dir, "sessions", info.ID, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("rewrite %s: %v", name, err)
		}
	}
	flip("c200.ksnp")

	_, cB := newTestDaemon(t, server.Config{StoreDir: dir})
	_, err = cB.Step(ctx, info.ID, 50)
	if got := apiStatus(t, err); got != http.StatusInternalServerError {
		t.Fatalf("step over corrupt latest checkpoint: status %d, want 500", got)
	}
	// The 500 quarantined c200; the retry restores c100 and runs.
	step, err := cB.Step(ctx, info.ID, 50)
	if err != nil {
		t.Fatalf("step after quarantine should fall back to c100: %v", err)
	}
	if step.Cycle != 150 {
		t.Fatalf("cycle = %d after fallback, want 150 (c100 + 50)", step.Cycle)
	}
	inf, err := cB.Info(ctx, info.ID)
	if err != nil || !inf.Restored {
		t.Fatalf("info = %+v, %v; want Restored", inf, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "sessions", info.ID, "c200.ksnp.corrupt")); err != nil {
		t.Fatalf("c200 not quarantined: %v", err)
	}
	m, err := cB.Metrics(ctx)
	if err != nil || m.CorruptCheckpoints != 1 {
		t.Fatalf("metrics = %+v, %v; want CorruptCheckpoints 1", m, err)
	}
}

// TestAllCheckpointsCorruptIsGone: when every checkpoint is damaged the
// session ends at 410, and DELETE still clears the wreckage.
func TestAllCheckpointsCorruptIsGone(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srvA, cA := newTestDaemon(t, server.Config{StoreDir: dir})
	info, err := cA.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cA.Step(ctx, info.ID, 100); err != nil {
		t.Fatalf("step: %v", err)
	}
	if _, err := cA.Checkpoint(ctx, info.ID); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := srvA.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	sessDir := filepath.Join(dir, "sessions", info.ID)
	ents, _ := os.ReadDir(sessDir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".ksnp") {
			path := filepath.Join(sessDir, e.Name())
			data, _ := os.ReadFile(path)
			data[len(data)/2] ^= 0x40
			_ = os.WriteFile(path, data, 0o644)
		}
	}
	_, cB := newTestDaemon(t, server.Config{StoreDir: dir})
	// First contact quarantines the (only) corrupt checkpoint: 500.
	_, err = cB.Step(ctx, info.ID, 10)
	if got := apiStatus(t, err); got != http.StatusInternalServerError {
		t.Fatalf("first step: status %d, want 500", got)
	}
	// Nothing restorable left: 410, not 500 forever and not a lying 404.
	_, err = cB.Step(ctx, info.ID, 10)
	if got := apiStatus(t, err); got != http.StatusGone {
		t.Fatalf("second step: status %d, want 410 Gone", got)
	}
	// The wreckage is still deletable.
	if err := cB.Delete(ctx, info.ID); err != nil {
		t.Fatalf("delete of corrupt session: %v", err)
	}
	if _, err := os.Stat(sessDir); !os.IsNotExist(err) {
		t.Fatalf("session dir survived delete: %v", err)
	}
}

// TestEnginePanicQuarantinesSession: a panic mid-cycle must be isolated to
// its session — diagnostics captured, 409 afterwards, other sessions and
// the daemon unaffected, and resurrection from the last durable checkpoint
// must bring the session back.
func TestEnginePanicQuarantinesSession(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	inj := faultinj.New(3, faultinj.Rule{Op: "engine.cycle", Nth: 50, Kind: faultinj.Panic})
	_, c := newTestDaemon(t, server.Config{StoreDir: dir, Faults: inj})
	info, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.Step(ctx, info.ID, 30); err != nil {
		t.Fatalf("step to 30: %v", err)
	}
	if _, err := c.Checkpoint(ctx, info.ID); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Cycle 50 panics mid-request: the handler reports 500 once.
	_, err = c.Step(ctx, info.ID, 100)
	if got := apiStatus(t, err); got != http.StatusInternalServerError {
		t.Fatalf("panicking step: status %d, want 500", got)
	}
	// The failure is sticky and precise: 409, not 500, not a hang.
	_, err = c.Step(ctx, info.ID, 1)
	if got := apiStatus(t, err); got != http.StatusConflict {
		t.Fatalf("step after panic: status %d, want 409", got)
	}
	inf, err := c.Info(ctx, info.ID)
	if err != nil || inf.State != "quarantined" {
		t.Fatalf("info = %+v, %v; want State quarantined", inf, err)
	}
	m, err := c.Metrics(ctx)
	if err != nil || m.Quarantined != 1 {
		t.Fatalf("metrics = %+v, %v; want Quarantined 1", m, err)
	}
	// Diagnostics landed next to the checkpoints, but never as .ksnp.
	ents, err := os.ReadDir(filepath.Join(dir, "sessions", info.ID))
	if err != nil {
		t.Fatalf("read session dir: %v", err)
	}
	var havePanic, haveDiag bool
	for _, e := range ents {
		if e.Name() == "panic.txt" {
			havePanic = true
		}
		if strings.HasSuffix(e.Name(), ".diag") {
			haveDiag = true
		}
	}
	if !havePanic || !haveDiag {
		t.Fatalf("diagnostics missing (panic.txt=%v, .diag=%v) in %v", havePanic, haveDiag, names(ents))
	}
	// Other sessions keep working: the blast radius is one session.
	other, err := c.Create(ctx, server.CreateRequest{Catalog: "fir"})
	if err != nil {
		t.Fatalf("create after quarantine: %v", err)
	}
	if _, err := c.Step(ctx, other.ID, 20); err != nil {
		t.Fatalf("step other session: %v", err)
	}
	// Resurrect replaces the tombstone with a rebuild from c30.
	back, err := c.Resurrect(ctx, info.ID, "")
	if err != nil {
		t.Fatalf("resurrect quarantined session: %v", err)
	}
	if back.Cycle != 30 || back.State != "" {
		t.Fatalf("resurrected = %+v, want healthy at cycle 30", back)
	}
	if _, err := c.Step(ctx, info.ID, 10); err != nil {
		t.Fatalf("step resurrected session: %v", err)
	}
}

// TestWatchedStepPanicQuarantines injects an engine.cycle panic into a
// watched step (recording plus a breakpoint): the batched watched loop
// reports it like the plain path does, and the session is quarantined.
func TestWatchedStepPanicQuarantines(t *testing.T) {
	ctx := context.Background()
	inj := faultinj.New(3, faultinj.Rule{Op: "engine.cycle", Nth: 50, Kind: faultinj.Panic})
	_, c := newTestDaemon(t, server.Config{StoreDir: t.TempDir(), Faults: inj})
	info, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := c.TraceRecord(ctx, info.ID, true); err != nil {
		t.Fatalf("record: %v", err)
	}
	if err := c.Break(ctx, info.ID, server.BreakRequest{Cond: "x.rd0() == 32'd0"}); err != nil {
		t.Fatalf("break: %v", err)
	}
	_, err = c.Step(ctx, info.ID, 100)
	if got := apiStatus(t, err); got != http.StatusInternalServerError {
		t.Fatalf("panicking watched step: status %d, want 500", got)
	}
	_, err = c.Step(ctx, info.ID, 1)
	if got := apiStatus(t, err); got != http.StatusConflict {
		t.Fatalf("step after panic: status %d, want 409", got)
	}
	if inf, err := c.Info(ctx, info.ID); err != nil || inf.State != "quarantined" {
		t.Fatalf("info = %+v, %v; want State quarantined", inf, err)
	}
}

func names(ents []os.DirEntry) []string {
	out := make([]string, len(ents))
	for i, e := range ents {
		out[i] = e.Name()
	}
	return out
}

// TestWatchdogWedgesRunawayStep: an engine stuck inside one cycle cannot
// honor the step context; the watchdog must 500 the request, mark the
// session wedged, and keep DELETE and the rest of the daemon responsive.
func TestWatchdogWedgesRunawayStep(t *testing.T) {
	inj := faultinj.New(5, faultinj.Rule{
		Op: "engine.cycle", Nth: 10, Kind: faultinj.Stall, Delay: 1500 * time.Millisecond,
	})
	_, c := newTestDaemon(t, server.Config{
		Faults:   inj,
		Watchdog: 150 * time.Millisecond,
	})
	ctx := context.Background()
	info, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	start := time.Now()
	_, err = c.Step(ctx, info.ID, 100)
	if got := apiStatus(t, err); got != http.StatusInternalServerError {
		t.Fatalf("runaway step: status %d, want 500", got)
	}
	if elapsed := time.Since(start); elapsed >= 1500*time.Millisecond {
		t.Fatalf("watchdog answered after %s; the stall is %s, so the handler waited it out", elapsed, 1500*time.Millisecond)
	}
	inf, err := c.Info(ctx, info.ID)
	if err != nil || inf.State != "wedged" {
		t.Fatalf("info = %+v, %v; want State wedged", inf, err)
	}
	_, err = c.Regs(ctx, info.ID, server.RegsRequest{All: true})
	if got := apiStatus(t, err); got != http.StatusConflict {
		t.Fatalf("regs on wedged session: status %d, want 409", got)
	}
	m, err := c.Metrics(ctx)
	if err != nil || m.Wedged != 1 {
		t.Fatalf("metrics = %+v, %v; want Wedged 1", m, err)
	}
	// DELETE must not block on the runaway step's held mutex.
	done := make(chan error, 1)
	go func() { done <- c.Delete(ctx, info.ID) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("delete wedged session: %v", err)
		}
	case <-time.After(1 * time.Second):
		t.Fatal("delete of a wedged session hung")
	}
}

// TestLoadSheddingAnswersFast: when the queue bound is hit, the daemon must
// answer 503 + Retry-After immediately instead of queueing without bound.
func TestLoadSheddingAnswersFast(t *testing.T) {
	// Every cycle dawdles 5ms, so one 400-cycle step pins the only worker
	// for ~2s while the shedding is probed.
	inj := faultinj.New(11, faultinj.Rule{
		Op: "engine.cycle", Nth: 1, Every: 1, Kind: faultinj.Latency, Delay: 5 * time.Millisecond,
	})
	_, c := newTestDaemon(t, server.Config{
		Faults:   inj,
		Workers:  1,
		MaxQueue: 1,
	})
	ctx := context.Background()
	info, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	slow := make(chan error, 2)
	go func() { _, err := c.Step(ctx, info.ID, 400); slow <- err }()
	time.Sleep(200 * time.Millisecond) // step A holds the worker
	go func() { _, err := c.Step(ctx, info.ID, 1); slow <- err }()
	time.Sleep(200 * time.Millisecond) // step B fills the queue

	start := time.Now()
	_, err = c.Step(ctx, info.ID, 1)
	if got := apiStatus(t, err); got != http.StatusServiceUnavailable {
		t.Fatalf("step into full queue: status %d, want 503", got)
	}
	var apiErr *kclient.APIError
	_ = errors.As(err, &apiErr)
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("503 carried no Retry-After hint: %+v", apiErr)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("shed answer took %s; shedding must be immediate", elapsed)
	}
	m, err := c.Metrics(ctx)
	if err != nil || m.Shed == 0 {
		t.Fatalf("metrics = %+v, %v; want Shed > 0", m, err)
	}
	for i := 0; i < 2; i++ {
		if err := <-slow; err != nil {
			t.Fatalf("queued step %d: %v", i, err)
		}
	}
}

// TestIdempotentStepReplay: duplicate POSTs with the same Idempotency-Key
// must execute once; the duplicate replays the first response.
func TestIdempotentStepReplay(t *testing.T) {
	srv, err := server.New(server.Config{})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	c := kclient.New(ts.URL)
	ctx := context.Background()
	info, err := c.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}

	post := func(key string) (server.StepResponse, *http.Response) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPost,
			ts.URL+"/v1/sessions/"+info.ID+"/step", strings.NewReader(`{"cycles":10}`))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		var sr server.StepResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return sr, resp
	}

	first, resp1 := post("k1")
	if resp1.StatusCode != http.StatusOK || first.Cycle != 10 {
		t.Fatalf("first step = %+v (%d), want cycle 10", first, resp1.StatusCode)
	}
	replay, resp2 := post("k1")
	if replay.Cycle != 10 {
		t.Fatalf("replayed step advanced the session: cycle %d, want 10", replay.Cycle)
	}
	if resp2.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("replay missing Idempotency-Replayed header: %v", resp2.Header)
	}
	fresh, _ := post("k2")
	if fresh.Cycle != 20 {
		t.Fatalf("fresh key should execute: cycle %d, want 20", fresh.Cycle)
	}
	// The daemon's own view agrees: exactly two executions happened.
	inf, err := c.Info(ctx, info.ID)
	if err != nil || inf.Cycle != 20 {
		t.Fatalf("info = %+v, %v; want cycle 20", inf, err)
	}
}

// TestRecoverStoreCountsDamage: the server-level recovery scan reports and
// counts what it quarantined.
func TestRecoverStoreCountsDamage(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	srvA, cA := newTestDaemon(t, server.Config{StoreDir: dir})
	info, err := cA.Create(ctx, server.CreateRequest{Catalog: "collatz"})
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := cA.Step(ctx, info.ID, 64); err != nil {
		t.Fatalf("step: %v", err)
	}
	if _, err := cA.Checkpoint(ctx, info.ID); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := srvA.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Simulate a crash mid-write: a stray .tmp plus a truncated checkpoint.
	sessDir := filepath.Join(dir, "sessions", info.ID)
	if err := os.WriteFile(filepath.Join(sessDir, "c999.ksnp.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatalf("plant tmp: %v", err)
	}
	ents, _ := os.ReadDir(sessDir)
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".ksnp") {
			path := filepath.Join(sessDir, e.Name())
			data, _ := os.ReadFile(path)
			_ = os.WriteFile(path, data[:len(data)/3], 0o644)
		}
	}
	srvB, err := server.New(server.Config{StoreDir: dir})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	defer srvB.Close()
	rep, err := srvB.RecoverStore()
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rep.Clean() {
		t.Fatalf("recover found nothing; report = %+v", rep)
	}
	if len(rep.TmpFiles) != 1 || len(rep.CorruptSnapshots) == 0 {
		t.Fatalf("report = %+v; want 1 tmp file and >=1 corrupt snapshot", rep)
	}
}
