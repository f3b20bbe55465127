package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cuttlego/internal/ast"
	"cuttlego/internal/bench"
	"cuttlego/internal/bits"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/debug"
	"cuttlego/internal/diag"
	"cuttlego/internal/faultinj"
	"cuttlego/internal/lang"
	"cuttlego/internal/native"
	"cuttlego/internal/sim"
	"cuttlego/internal/tracedb"
)

// errNotDurable marks operations (checkpoint, fork, reverse) that need the
// whole machine state to live inside the architectural snapshot. Sessions
// whose designs carry a testbench keep state outside the registers (memory
// images, workload cursors), so a snapshot alone cannot reproduce them.
var errNotDurable = errors.New("session is not self-driving; snapshot operations are unavailable")

// Session failure states. A failed session stays in the table as a
// tombstone — visible to info/list with its state, 409 for everything else
// — until the client deletes it or resurrects it from a durable
// checkpoint. The state is sticky: an engine that panicked or blew its
// watchdog cannot be trusted again.
const (
	stateWedged      = "wedged"      // a step outlived the watchdog; the engine may be stuck inside one cycle
	stateQuarantined = "quarantined" // the engine panicked; diagnostics were captured and the engine closed
)

// sessionFailure is the sticky reason a session was taken out of service.
type sessionFailure struct {
	state  string
	reason string
}

// sessionFailedError reports an operation against a failed session; it
// maps to 409 so clients distinguish "this session is damaged" from "this
// session does not exist".
type sessionFailedError struct {
	id, state, reason string
}

func (e *sessionFailedError) Error() string {
	return fmt.Sprintf("session %s is %s (%s); delete it, or resurrect it from its last durable checkpoint",
		e.id, e.state, e.reason)
}

// sessionEnv is the server-owned machinery a session needs beyond its own
// request: fault injection, the AOT compile cache (nil when the native tier
// is disabled), the promotion threshold, and the shared tier counters.
type sessionEnv struct {
	inj          *faultinj.Injector
	ncache       *native.Cache
	promoteAfter uint64
	stats        *tierStats
}

// tierStats counts tier transitions across all of a server's sessions.
type tierStats struct {
	promotions atomic.Uint64
	demotions  atomic.Uint64
}

// nativeBuild is the result of a session's asynchronous promotion compile,
// published through session.compiled. The design is the fresh instance the
// binary was emitted from; Launch needs it to verify the handshake digest.
type nativeBuild struct {
	design *ast.Design
	res    native.BuildResult
	err    error
}

// session is one hosted simulation. All simulation access goes through mu:
// the HTTP layer may serve many requests for the same session concurrently,
// but the engine is strictly single-threaded.
type session struct {
	id  string
	cfg EngineConfig
	env sessionEnv
	// exactly one of src/catalog is non-empty; it is what meta.json stores
	// and what resurrection replays.
	src     string
	catalog string
	// external marks designs whose machine state extends beyond the
	// architectural registers (an embedded testbench's memory images and
	// workload cursors); such sessions cannot be checkpointed or promoted.
	external bool
	// Immutable design facts cached at build time, so a wedged session —
	// whose mu may be held forever by a runaway step — can still be
	// described without touching the engine.
	designName    string
	nRegs, nRules int
	// d is the checked design, cached so lazy forks (which have no engine
	// yet) can answer register and breakpoint lookups. Designs are
	// immutable once built and structurally identical across rebuilds of
	// the same source, so sharing the parent's pointer is safe.
	d *ast.Design

	mu       sync.Mutex
	eng      sim.Engine // nil while lazy is non-nil (an unmaterialized fork)
	tb       sim.Testbench
	conds    []sessionCond
	snaps    []sim.Snapshot // in-memory ring for reverse execution
	restored bool
	closed   bool // engine released; guarded by mu

	// rec, while non-nil, records every executed cycle into the session's
	// on-disk trace store (row c = register values at cycle c). Guarded by
	// mu. A recording or breakpointed session is watched: stepping still
	// runs whole chunks, but reads each cycle's register row into traceRow
	// (sim.ReadRow, by index) and feeds that one row to the recorder, every
	// compiled breakpoint predicate and any stream observer.
	rec      *tracedb.Recorder
	traceDir string
	traceFS  faultinj.FS
	traceRow []uint64 // the current cycle's register row, reused every cycle; allocated with the engine

	// lazy, while non-nil, is the copy-on-write state of a fork that has
	// not diverged into its own engine: a shared immutable base snapshot
	// plus this fork's dirty registers. Reads (info, regs, checkpoint,
	// export, fork-of-fork) are answered from the overlay; the first
	// mutation-heavy operation (step, trace, reverse, profile) pays the
	// one-time materialization: build the engine, restore the flattened
	// overlay, clear lazy. Guarded by mu; cow mirrors it for lock-free
	// metrics.
	lazy *sim.Overlay
	cow  atomic.Bool
	// forkBase caches the last snapshot published as a fork base, keyed by
	// (cycle, digest): ten thousand forks taken at the same parent state
	// share one retained register file instead of ten thousand copies.
	forkBase       *sim.Snapshot
	forkBaseDigest uint64

	// Execution-tier state (guarded by mu). tier is "" while the session
	// runs in-process and "native" on the AOT subprocess tier; promoted
	// distinguishes a transparently promoted session (demotable on crash)
	// from one whose client asked for the native engine outright.
	tier           string
	promoted       bool
	noPromote      bool // sticky: promotion failed or was rolled back
	compileStarted bool
	compiled       atomic.Pointer[nativeBuild]

	// failed, once set, fails every simulation operation with 409. It is
	// read without mu (a wedged session's mu may never be released), so it
	// lives in an atomic.
	failed atomic.Pointer[sessionFailure]
	// lastInfo caches the most recent successfully computed SessionInfo so
	// info() on a failed session can answer without the engine.
	lastInfo atomic.Pointer[SessionInfo]

	// lastUsed orders LRU eviction; guarded by the server's mutex, not the
	// session's, so the server can scan it without stalling on a long step.
	lastUsed time.Time
	// evicting marks a session one admit has claimed as its eviction victim,
	// so concurrent admits pick a different one. Guarded by the server's
	// mutex; the session stays in the table until its checkpoint is written.
	evicting bool
}

// gate fails fast when the session has been wedged or quarantined. Every
// simulation entry point calls it before taking mu: a wedged session's mu
// may be held forever by the runaway step, and blocking new requests
// behind it would wedge the callers too.
func (s *session) gate() error {
	if f := s.failed.Load(); f != nil {
		return &sessionFailedError{id: s.id, state: f.state, reason: f.reason}
	}
	return nil
}

type sessionCond struct {
	src  string
	eval func(row []uint64) bool
}

// snapInterval is how often stepping records an in-memory snapshot for
// reverse execution (durable sessions only).
const snapInterval = 64

// maxMemSnaps bounds the in-memory snapshot ring. The cycle-0 snapshot is
// always kept so any cycle stays reachable (at replay cost).
const maxMemSnaps = 256

// buildInstance replays the session's design source: parse the posted
// .koika text, or rebuild the catalogue entry with its workload.
func buildInstance(src, catalog string) (bench.Instance, error) {
	if catalog != "" {
		bm, ok := bench.Lookup(catalog)
		if !ok {
			return bench.Instance{}, fmt.Errorf("unknown catalogue design %q (have %v)", catalog, bench.Names())
		}
		return bm.New(), nil
	}
	d, err := lang.Parse(src)
	if err != nil {
		return bench.Instance{}, err
	}
	return bench.Instance{Design: d}, nil
}

// newSession elaborates a design and builds its engine; env.inj, when
// non-nil, threads fault injection through every engine cycle.
func newSession(id string, req CreateRequest, env sessionEnv) (_ *session, err error) {
	defer diag.Guard("server: create session", &err)
	if (req.Source == "") == (req.Catalog == "") {
		return nil, fmt.Errorf("exactly one of source and catalog must be set")
	}
	cfg, err := EngineConfig{
		Engine: req.Engine, Level: req.Level, Backend: req.Backend, Optimize: req.Optimize,
		Workers: req.Workers,
	}.normalize()
	if err != nil {
		return nil, err
	}
	inst, err := buildInstance(req.Source, req.Catalog)
	if err != nil {
		return nil, err
	}
	eng, err := cfg.build(inst, env.ncache)
	if err != nil {
		return nil, err
	}
	eng = wrapEngine(eng, env.inj)
	d := eng.Design()
	s := &session{
		id: id, cfg: cfg, env: env, src: req.Source, catalog: req.Catalog, eng: eng,
		external:   inst.Bench != nil,
		designName: d.Name, nRegs: len(d.Registers), nRules: len(d.Rules), d: d,
		traceRow: make([]uint64, len(d.Registers)),
	}
	if cfg.Engine == "native" {
		// The native binary self-drives: whatever workload the catalogue
		// entry carries is compiled in as extfun bindings, so the host-side
		// testbench must not run on top of it. The session starts (and
		// stays) on the native tier; there is nothing to promote.
		s.tier = "native"
		s.noPromote = true
	} else {
		s.tb = inst.Bench
	}
	s.recordSnapshot()
	return s, nil
}

// closeEngine releases the engine's worker pool, if it has one (parallel
// engines hold goroutines). Callers must hold the session mutex so a pool
// is never torn down under an in-flight step; the call is idempotent. A
// lazy fork has no engine yet, so there is nothing to release.
func (s *session) closeEngine() {
	if s.closed {
		return
	}
	s.closed = true
	if s.rec != nil {
		_ = s.rec.Close() // flush the buffered trace tail; the files outlive the session object
		s.rec = nil
	}
	if s.eng == nil {
		return
	}
	if c, ok := s.eng.(interface{ Close() error }); ok {
		_ = c.Close()
	}
}

// discard releases a session that was built but never admitted to the
// table (a failed restore, a lost admit race, a full table): without this,
// parallel engines leak their worker pools.
func (s *session) discard() {
	s.mu.Lock()
	s.closeEngine()
	s.mu.Unlock()
}

// durable reports whether snapshots fully determine the session. The test
// is the design, not the current engine: a native session over a design
// with an embedded testbench keeps memory images in subprocess globals that
// the architectural snapshot cannot capture.
func (s *session) durable() bool { return !s.external }

// design returns the design under simulation (immutable once built). It is
// cached at build time so a lazy fork can answer design questions before it
// has an engine.
func (s *session) design() *ast.Design { return s.d }

// --- copy-on-write forks ----------------------------------------------------

// forkOverlayLocked publishes the session's current state as a shared fork
// base and returns a fresh CoW overlay over it. Forking a lazy fork clones
// its overlay (O(dirty)) over the same base; forking a live session
// snapshots it, but consecutive forks at an unchanged state (cycle and
// digest both equal) reuse one retained base snapshot, so a 10k-fork storm
// of one state keeps one register file, not 10k. Callers hold mu.
func (s *session) forkOverlayLocked() (_ *sim.Overlay, err error) {
	defer diag.Guard("server: fork", &err)
	if s.lazy != nil {
		return s.lazy.Fork(), nil
	}
	if !s.durable() {
		return nil, errNotDurable
	}
	snapper, ok := s.eng.(sim.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("engine %s cannot snapshot", s.cfg)
	}
	snap := snapper.Snapshot()
	digest := snap.Digest()
	if s.forkBase == nil || s.forkBase.Cycle != snap.Cycle || s.forkBaseDigest != digest {
		s.forkBase, s.forkBaseDigest = &snap, digest
	}
	return sim.NewOverlay(*s.forkBase), nil
}

// newLazyFork builds a copy-on-write fork session: no engine, just the
// overlay. The parent's design facts are shared (immutable), and the
// rebuild recipe is copied so materialization, checkpointing, and
// resurrection all work exactly as for a full session.
func newLazyFork(id string, parent *session, ov *sim.Overlay) *session {
	s := &session{
		id: id, cfg: parent.cfg, env: parent.env, src: parent.src, catalog: parent.catalog,
		designName: parent.designName, nRegs: parent.nRegs, nRules: parent.nRules, d: parent.d,
		lazy: ov,
	}
	s.cow.Store(true)
	if parent.cfg.Engine == "native" {
		s.noPromote = true
	}
	return s
}

// materializeLocked turns a lazy fork into a full session: build the
// configured engine, flatten the overlay into an independent snapshot, and
// restore it. This is the one-time divergence cost a fork pays on its first
// mutation-heavy operation; until then it costs only its dirty map. Callers
// hold mu. On failure the session stays lazy (and healthy), so a transient
// build failure is retryable; any engine built along the way is closed.
func (s *session) materializeLocked() (err error) {
	if s.lazy == nil {
		return nil
	}
	defer diag.Guard("server: materialize fork", &err)
	inst, err := buildInstance(s.src, s.catalog)
	if err != nil {
		return fmt.Errorf("materializing fork %s: %w", s.id, err)
	}
	eng, err := s.cfg.build(inst, s.env.ncache)
	if err != nil {
		return fmt.Errorf("materializing fork %s: %w", s.id, err)
	}
	closeEng := func() {
		if c, ok := eng.(interface{ Close() error }); ok {
			_ = c.Close()
		}
	}
	snapper, ok := eng.(sim.Snapshotter)
	if !ok {
		closeEng()
		return fmt.Errorf("materializing fork %s: engine %s cannot restore", s.id, s.cfg)
	}
	defer func() {
		if err != nil {
			closeEng() // a panic inside Restore must not leak the engine
		}
	}()
	c0 := snapper.Snapshot() // fresh engine at cycle 0, for reverse execution
	snapper.Restore(s.lazy.Flatten())
	s.eng = wrapEngine(eng, s.env.inj)
	if s.cfg.Engine == "native" {
		s.tier = "native"
	}
	s.lazy = nil
	s.cow.Store(false)
	s.traceRow = make([]uint64, s.nRegs)
	s.snaps = append(s.snaps[:0], c0)
	s.recordSnapshot()
	return nil
}

// info snapshots the session's public description. Callers must not hold
// mu. A failed session answers from cached facts — a wedged session's mu
// may never come free, and a quarantined session's engine is closed — with
// State set and the cycle/digest as of the last healthy observation.
func (s *session) info() SessionInfo {
	if f := s.failed.Load(); f != nil {
		inf := SessionInfo{
			ID: s.id, Design: s.designName, Engine: s.cfg.String(),
			Registers: s.nRegs, Rules: s.nRules,
			Durable: s.durable(), Restored: s.restored,
		}
		if last := s.lastInfo.Load(); last != nil {
			inf.Cycle, inf.Digest, inf.Tier = last.Cycle, last.Digest, last.Tier
		}
		inf.State = f.state
		return inf
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lazy != nil {
		// An unmaterialized fork describes itself from its overlay; the
		// digest matches what a materialized engine would report, so parity
		// gates hold across the lazy/live boundary.
		inf := SessionInfo{
			ID: s.id, Design: s.designName, Engine: s.cfg.String(),
			Cycle: s.lazy.Cycle(), Registers: s.nRegs, Rules: s.nRules,
			Digest:  fmt.Sprintf("%016x", s.lazy.Digest()),
			Durable: true, Restored: s.restored, Cow: true,
		}
		s.lastInfo.Store(&inf)
		return inf
	}
	inf := SessionInfo{
		ID:        s.id,
		Design:    s.designName,
		Engine:    s.cfg.String(),
		Cycle:     s.eng.CycleCount(),
		Registers: s.nRegs,
		Rules:     s.nRules,
		Digest:    fmt.Sprintf("%016x", sim.StateDigest(s.eng)),
		Durable:   s.durable(),
		Restored:  s.restored,
		Tier:      s.tier,
	}
	s.lastInfo.Store(&inf)
	return inf
}

func (s *session) recordSnapshot() {
	if !s.durable() {
		return
	}
	snapper, ok := s.eng.(sim.Snapshotter)
	if !ok {
		return
	}
	snap := snapper.Snapshot()
	if n := len(s.snaps); n > 0 && s.snaps[n-1].Cycle == snap.Cycle {
		return
	}
	s.snaps = append(s.snaps, snap)
	if len(s.snaps) > maxMemSnaps {
		// Keep cycle 0, drop the oldest of the rest.
		copy(s.snaps[1:], s.snaps[2:])
		s.snaps = s.snaps[:len(s.snaps)-1]
	}
}

// step advances the session up to n cycles under ctx, stopping early on a
// conditional breakpoint. It returns cycles run and the breakpoint
// description ("" if none fired). Reported errors are toolchain bugs, not
// input problems: ctx expiry is a "timeout" stop, not an error.
func (s *session) step(ctx context.Context, n uint64) (ran uint64, stopped string, err error) {
	defer diag.Guard("server: step", &err)
	if err := s.gate(); err != nil {
		return 0, "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.materializeLocked(); err != nil {
		return 0, "", err
	}
	return s.stepLocked(ctx, n, nil)
}

// stepLocked is step's body; observe, when non-nil, runs after every cycle
// (the trace stream) and may read that cycle's registers from s.traceRow.
// Callers hold mu.
func (s *session) stepLocked(ctx context.Context, n uint64, observe func() error) (uint64, string, error) {
	s.maybePromoteLocked()
	start := s.eng.CycleCount()
	watched := len(s.conds) > 0 || observe != nil || s.rec != nil
	var i uint64
	for i < n {
		// Batch cycles between bookkeeping points: the next snapshot
		// boundary, but at most 1024 cycles between ctx checks. A watched
		// chunk observes each of its cycles but is otherwise the same.
		chunk := n - i
		if chunk > 1024 {
			chunk = 1024
		}
		if s.durable() {
			cyc := s.eng.CycleCount()
			if to := snapInterval - cyc%snapInterval; to < chunk {
				chunk = to
			}
		}
		select {
		case <-ctx.Done():
			return i, "timeout", nil
		default:
		}
		var (
			ran     uint64
			stopped string
			err     error
		)
		if watched {
			ran, stopped, err = s.watchLocked(chunk, observe)
		} else {
			ran, err = sim.RunContext(ctx, s.eng, s.tb, chunk)
		}
		i += ran
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
				return i, "timeout", nil
			}
			if s.nativeDownLocked() {
				// The promoted subprocess died. The session's truth is the
				// snapshot ring: fall back to the in-process engine, replay
				// to the cycle the client was already credited with, and
				// keep stepping as if nothing happened. When demotion
				// itself fails, the original crash error propagates and the
				// session is quarantined — honest and sticky.
				if s.demoteLocked(ctx, start+i) {
					continue
				}
			}
			return i, "", err
		}
		if s.eng.CycleCount()%snapInterval == 0 {
			s.recordSnapshot()
		}
		if stopped != "" {
			return i, stopped, nil
		}
	}
	return i, "", nil
}

// watchLocked runs up to n cycles under the testbench, observing each one:
// read the register row once, append it to the recording, evaluate every
// breakpoint predicate on it, then run observe. It stops after the first
// cycle on which a predicate holds, returning the cycles run and the
// breakpoint description. The caller checks ctx between chunks; an engine
// panic becomes an *diag.Internal error, as in sim.RunContext. Callers hold
// mu.
func (s *session) watchLocked(n uint64, observe func() error) (ran uint64, stopped string, err error) {
	defer diag.Guard("server: watched step", &err)
	row := s.traceRow
	for ran < n {
		if s.tb != nil {
			s.tb.BeforeCycle(s.eng)
		}
		s.eng.Cycle()
		ran++
		if s.tb != nil {
			s.tb.AfterCycle(s.eng)
		}
		sim.ReadRow(s.eng, row)
		if s.rec != nil {
			if err := s.rec.Append(s.eng.CycleCount(), row); err != nil {
				return ran, "", fmt.Errorf("trace recording: %w", err)
			}
		}
		for _, c := range s.conds {
			if c.eval(row) {
				stopped = fmt.Sprintf("condition %q at cycle %d", c.src, s.eng.CycleCount())
				break
			}
		}
		if observe != nil {
			if err := observe(); err != nil {
				return ran, "", err
			}
		}
		if stopped != "" {
			return ran, stopped, nil
		}
	}
	return ran, "", nil
}

// nativeDownLocked reports whether the transparently promoted subprocess
// has died — the one engine failure a session recovers from by demoting.
// Crashes of sessions that explicitly asked for the native engine are not
// covered: the client chose that engine, so its death is a quarantine like
// any other engine failure.
func (s *session) nativeDownLocked() bool {
	if !s.promoted {
		return false
	}
	ne, ok := underlying(s.eng).(*native.Engine)
	return ok && ne.Dead() != nil
}

// maybePromoteLocked is the hot-session promotion state machine, run at the
// top of every step. A durable cuttlesim session past the promotion
// threshold first kicks off an asynchronous compile (off the stepping hot
// path; the digest-keyed cache dedups identical designs), then — once the
// binary is ready — transfers its state to the subprocess via snapshot and
// swaps engines. The transfer is gated on digest equality: a native engine
// that does not resume at the exact architectural state the in-process
// engine left off is discarded and the session stays put (sticky, so a
// lying binary is not retried every step).
func (s *session) maybePromoteLocked() {
	if s.promoted || s.noPromote || s.tier != "" || s.external ||
		s.env.ncache == nil || s.env.promoteAfter == 0 || s.cfg.Engine != "cuttlesim" {
		return
	}
	if s.eng.CycleCount() < s.env.promoteAfter {
		return
	}
	if !s.compileStarted {
		s.compileStarted = true
		ncache, src, catalog := s.env.ncache, s.src, s.catalog
		go func() {
			// A fresh instance, not the live design: the emitter must not
			// race the stepping engine, and bindings stay nil so designs
			// with external functions fail the compile (and never promote)
			// instead of silently losing their binding state.
			b := &nativeBuild{}
			inst, err := buildInstance(src, catalog)
			if err == nil {
				b.design = inst.Design
				b.res, b.err = ncache.Build(inst.Design, nil)
			} else {
				b.err = err
			}
			s.compiled.Store(b)
		}()
		return
	}
	b := s.compiled.Load()
	if b == nil {
		return // compile still running; keep interpreting
	}
	if b.err != nil {
		s.noPromote = true
		return
	}
	snapper, ok := s.eng.(sim.Snapshotter)
	if !ok {
		s.noPromote = true
		return
	}
	pre := sim.StateDigest(s.eng)
	snap := snapper.Snapshot()
	ne, err := native.Launch(b.design, b.res)
	if err != nil {
		s.env.ncache.Quarantine(b.res.Key, err)
		s.noPromote = true
		return
	}
	if err := ne.RestoreSnapshot(snap); err != nil {
		_ = ne.Close()
		s.noPromote = true
		return
	}
	if sim.StateDigest(ne) != pre || ne.CycleCount() != snap.Cycle {
		_ = ne.Close()
		s.noPromote = true
		return
	}
	old := s.eng
	s.eng = wrapEngine(ne, s.env.inj)
	s.tier, s.promoted = "native", true
	if c, ok := old.(interface{ Close() error }); ok {
		_ = c.Close()
	}
	if s.env.stats != nil {
		s.env.stats.promotions.Add(1)
	}
}

// demoteLocked rolls a promoted session back onto its in-process engine
// after the subprocess died: rebuild the configured engine, restore the
// nearest in-memory snapshot at or below target, and deterministically
// replay the gap so the client-visible cycle count never moves backwards.
// Demotion is sticky — the binary just crashed, so the session does not
// try the native tier again.
func (s *session) demoteLocked(ctx context.Context, target uint64) bool {
	if !s.promoted {
		return false
	}
	inst, err := buildInstance(s.src, s.catalog)
	if err != nil {
		return false
	}
	eng, err := s.cfg.build(inst, nil)
	if err != nil {
		return false
	}
	i := sort.Search(len(s.snaps), func(i int) bool { return s.snaps[i].Cycle > target }) - 1
	if i < 0 {
		if c, ok := eng.(interface{ Close() error }); ok {
			_ = c.Close()
		}
		return false
	}
	eng = wrapEngine(eng, s.env.inj)
	eng.(sim.Snapshotter).Restore(s.snaps[i])
	s.snaps = s.snaps[:i+1]
	old := s.eng
	s.eng = eng
	s.tier, s.promoted, s.noPromote = "", false, true
	if c, ok := old.(interface{ Close() error }); ok {
		_ = c.Close() // reaps the dead subprocess
	}
	if target > s.eng.CycleCount() {
		if _, err := sim.RunContext(ctx, s.eng, nil, target-s.eng.CycleCount()); err != nil {
			return false
		}
	}
	if s.env.stats != nil {
		s.env.stats.demotions.Add(1)
	}
	return true
}

// fired reports the last cycle's rule commits.
func (s *session) fired() map[string]bool {
	out := make(map[string]bool, len(s.design().Schedule))
	for _, name := range s.design().Schedule {
		out[name] = s.eng.RuleFired(name)
	}
	return out
}

// regs applies a batched poke/peek request.
func (s *session) regs(req RegsRequest) (_ RegsResponse, err error) {
	defer diag.Guard("server: regs", &err)
	if err := s.gate(); err != nil {
		return RegsResponse{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.design()
	// Pokes and peeks work directly on a lazy fork's overlay: a poke dirties
	// exactly one register (this is the cheap "set up a what-if" path fork
	// storms rely on), and peeks read through to the shared base.
	var (
		setReg func(string, bits.Bits)
		getReg func(string) bits.Bits
		cycle  func() uint64
	)
	if ov := s.lazy; ov != nil {
		setReg = func(name string, v bits.Bits) { ov.Set(d.RegIndex(name), v) }
		getReg = func(name string) bits.Bits { return ov.Reg(d.RegIndex(name)) }
		cycle = ov.Cycle
	} else {
		setReg, getReg, cycle = s.eng.SetReg, s.eng.Reg, s.eng.CycleCount
	}
	for name, rv := range req.Set {
		if !d.HasReg(name) {
			return RegsResponse{}, fmt.Errorf("design %q has no register %q", d.Name, name)
		}
		v, err := rv.Bits()
		if err != nil {
			return RegsResponse{}, fmt.Errorf("register %q: %w", name, err)
		}
		if want := d.Registers[d.RegIndex(name)].Type.BitWidth(); v.Width != want {
			return RegsResponse{}, fmt.Errorf("register %q is %d bits wide, got %d", name, want, v.Width)
		}
		setReg(name, v)
	}
	get := req.Get
	if req.All {
		get = get[:0]
		for _, r := range d.Registers {
			get = append(get, r.Name)
		}
	}
	resp := RegsResponse{Cycle: cycle(), Values: make(map[string]RegValue, len(get))}
	for _, name := range get {
		if !d.HasReg(name) {
			return RegsResponse{}, fmt.Errorf("design %q has no register %q", d.Name, name)
		}
		resp.Values[name] = FromBits(getReg(name))
	}
	return resp, nil
}

// setBreak installs or clears conditional breakpoints.
func (s *session) setBreak(req BreakRequest) (err error) {
	defer diag.Guard("server: break", &err)
	if err := s.gate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Clear {
		s.conds = nil
	}
	if req.Cond == "" {
		return nil
	}
	eval, err := debug.CompileRowCondition(s.design(), req.Cond)
	if err != nil {
		return err
	}
	s.conds = append(s.conds, sessionCond{src: req.Cond, eval: eval})
	return nil
}

// --- trace recording --------------------------------------------------------

// record switches trace recording on or off. Disabling flushes and detaches
// the recorder but leaves the recording on disk, still queryable; enabling
// resumes an existing recording when it can continue contiguously from the
// session's current cycle (truncating a rewound suffix), and starts fresh
// otherwise. Recording works for any session — durable or not — but needs
// an on-disk home, so the server only offers it with a store.
func (s *session) record(on bool, dir string, fsys faultinj.FS) (err error) {
	defer diag.Guard("server: trace record", &err)
	if err := s.gate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !on {
		if s.rec == nil {
			return nil
		}
		err := s.rec.Flush()
		s.rec = nil
		return err
	}
	return s.startTraceLocked(dir, fsys)
}

// startTraceLocked begins (or resumes) recording into dir, positioning the
// recorder so the next executed cycle appends contiguously. Callers hold mu.
func (s *session) startTraceLocked(dir string, fsys faultinj.FS) error {
	if s.rec != nil {
		return nil
	}
	// Recording samples the live engine every cycle, so a lazy fork diverges
	// here.
	if err := s.materializeLocked(); err != nil {
		return err
	}
	cur := s.eng.CycleCount()
	rec, err := tracedb.Resume(dir, fsys)
	switch {
	case err != nil, rec != nil && rec.Meta().CheckDesign(s.design()) != nil:
		rec = nil // no recording, a damaged one, or another design's
	default:
		if last, ok := rec.LastCycle(); ok && cur > last+1 {
			// The session moved past the recorded suffix while recording was
			// off. Chunks must stay contiguous, so the gap cannot be
			// represented: restart at the current cycle.
			rec = nil
		} else if ok && cur <= last {
			if rec.Truncate(cur) != nil {
				rec = nil
			}
		}
	}
	if rec == nil {
		var err error
		rec, err = tracedb.Create(dir, fsys, tracedb.MetaFor(s.design(), tracedb.DefaultChunkCycles))
		if err != nil {
			return fmt.Errorf("trace recording: %w", err)
		}
	}
	if last, ok := rec.LastCycle(); !ok || last < cur {
		sim.ReadRow(s.eng, s.traceRow)
		if err := rec.Append(cur, s.traceRow); err != nil {
			return fmt.Errorf("trace recording: %w", err)
		}
	}
	s.rec, s.traceDir, s.traceFS = rec, dir, fsys
	return nil
}

// rewindTraceLocked repositions the recorder after the engine jumped to an
// arbitrary cycle (restore): rows past the new cycle are dropped so the
// replayed timeline re-records over a consistent prefix, and a jump past
// the recorded suffix restarts the recording (the gap cannot be
// represented). Callers hold mu.
func (s *session) rewindTraceLocked() error {
	if s.rec == nil {
		return nil
	}
	cur := s.eng.CycleCount()
	if last, ok := s.rec.LastCycle(); ok && cur > last+1 {
		rec, err := tracedb.Create(s.traceDir, s.traceFS, tracedb.MetaFor(s.design(), tracedb.DefaultChunkCycles))
		if err != nil {
			return fmt.Errorf("trace recording: %w", err)
		}
		s.rec = rec
	} else if err := s.rec.Truncate(cur); err != nil {
		return fmt.Errorf("trace recording: %w", err)
	}
	if last, ok := s.rec.LastCycle(); !ok || last < cur {
		sim.ReadRow(s.eng, s.traceRow)
		if err := s.rec.Append(cur, s.traceRow); err != nil {
			return fmt.Errorf("trace recording: %w", err)
		}
	}
	return nil
}

// traceFlush lands the recorder's buffered tail so a fresh Reader sees
// every recorded row. A session that is not recording has nothing to flush.
func (s *session) traceFlush() error {
	if err := s.gate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.rec == nil {
		return nil
	}
	return s.rec.Flush()
}

// recording reports whether the session is currently appending to a trace.
func (s *session) recording() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rec != nil
}

// profile returns per-rule counters for engines that keep them (cuttlesim
// sessions — the daemon builds those with profiling on — and the native
// tier, whose binaries count attempts/commits/skips in the subprocess).
// A promoted session's counters restart at the promotion point.
func (s *session) profile() (ProfileResponse, error) {
	if err := s.gate(); err != nil {
		return ProfileResponse{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.materializeLocked(); err != nil {
		return ProfileResponse{}, err
	}
	if ne, ok := underlying(s.eng).(*native.Engine); ok {
		prof, err := ne.Profile()
		if err != nil {
			return ProfileResponse{}, err
		}
		resp := ProfileResponse{Cycle: s.eng.CycleCount()}
		for _, st := range prof {
			resp.Rules = append(resp.Rules, RuleProfile{
				Rule: st.Rule, Attempts: st.Attempts, Commits: st.Commits, Skipped: st.Skips,
			})
		}
		return resp, nil
	}
	cs, ok := underlying(s.eng).(*cuttlesim.Simulator)
	if !ok || cs.RuleStats() == nil {
		return ProfileResponse{}, fmt.Errorf("engine %s does not keep rule profiles (use a cuttlesim or native session)", s.cfg)
	}
	resp := ProfileResponse{Cycle: s.eng.CycleCount()}
	for _, st := range cs.RuleStats() {
		resp.Rules = append(resp.Rules, RuleProfile{
			Rule: st.Rule, Attempts: st.Attempts, Commits: st.Commits, Skipped: st.Skipped,
		})
	}
	return resp, nil
}

// snapshot captures the current state (durable sessions only).
func (s *session) snapshot() (sim.Snapshot, error) {
	if err := s.gate(); err != nil {
		return sim.Snapshot{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked()
}

func (s *session) snapshotLocked() (sim.Snapshot, error) {
	if s.lazy != nil {
		// Checkpoint/export of an unmaterialized fork: flatten the overlay
		// into an independent snapshot without ever building an engine.
		return s.lazy.Flatten(), nil
	}
	if !s.durable() {
		return sim.Snapshot{}, errNotDurable
	}
	snapper, ok := s.eng.(sim.Snapshotter)
	if !ok {
		return sim.Snapshot{}, fmt.Errorf("engine %s cannot snapshot", s.cfg)
	}
	return snapper.Snapshot(), nil
}

// restoreSnapshot rewinds (or fast-forwards) the live engine to snap.
func (s *session) restoreSnapshot(snap sim.Snapshot) (err error) {
	defer diag.Guard("server: restore", &err)
	if err := s.gate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.durable() {
		return errNotDurable
	}
	if len(snap.Regs) != len(s.design().Registers) {
		return fmt.Errorf("snapshot has %d registers, design %q has %d",
			len(snap.Regs), s.design().Name, len(s.design().Registers))
	}
	for i, r := range s.design().Registers {
		if snap.RegWidth(i) != r.Type.BitWidth() {
			return fmt.Errorf("snapshot register %d is %d bits, design register %q is %d",
				i, snap.RegWidth(i), r.Name, r.Type.BitWidth())
		}
	}
	if s.lazy != nil {
		// Restoring a lazy fork just swaps its overlay for one rooted at the
		// restored state: still no engine, still near-zero memory.
		s.lazy = sim.NewOverlay(snap)
		return nil
	}
	snapper, ok := s.eng.(sim.Snapshotter)
	if !ok {
		return fmt.Errorf("engine %s cannot restore", s.cfg)
	}
	snapper.Restore(snap)
	// Drop now-future in-memory snapshots and remember this one.
	i := sort.Search(len(s.snaps), func(i int) bool { return s.snaps[i].Cycle > snap.Cycle })
	s.snaps = s.snaps[:i]
	s.recordSnapshot()
	return s.rewindTraceLocked()
}

// reverse steps the session n cycles backwards: restore the nearest
// earlier in-memory snapshot, then deterministically re-execute forward
// (breakpoints suppressed during replay).
func (s *session) reverse(ctx context.Context, n uint64) (err error) {
	defer diag.Guard("server: reverse", &err)
	if err := s.gate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.durable() {
		return errNotDurable
	}
	if err := s.materializeLocked(); err != nil {
		return err
	}
	cur := s.eng.CycleCount()
	if n > cur {
		return fmt.Errorf("cannot rewind %d cycles from cycle %d", n, cur)
	}
	target := cur - n
	i := sort.Search(len(s.snaps), func(i int) bool { return s.snaps[i].Cycle > target }) - 1
	if i < 0 {
		return fmt.Errorf("no snapshot at or before cycle %d", target)
	}
	snapper := s.eng.(sim.Snapshotter)
	snapper.Restore(s.snaps[i])
	s.snaps = s.snaps[:i+1]
	if err := s.rewindTraceLocked(); err != nil {
		return err
	}
	conds := s.conds
	s.conds = nil
	_, _, err = s.stepLocked(ctx, target-s.eng.CycleCount(), nil)
	s.conds = conds
	if err != nil {
		return err
	}
	if got := s.eng.CycleCount(); got != target {
		return fmt.Errorf("rewind replay stopped at cycle %d, want %d", got, target)
	}
	return nil
}
