package native

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"cuttlego/internal/ast"
	"cuttlego/internal/bits"
	"cuttlego/internal/gomodel"
	"cuttlego/internal/sim"
)

// handshakeTimeout bounds how long a freshly spawned binary may take to
// identify itself; a corrupt or wedged binary is killed rather than waited
// on forever.
const handshakeTimeout = 30 * time.Second

// maxFrame bounds a response frame; mirrors the emitted program's own
// request bound.
const maxFrame = 1 << 26

// RemoteError is a protocol-level refusal from the simulator subprocess
// (bad restore bytes, out-of-range register index). The subprocess is still
// healthy after one; transport failures are sticky and reported as crash
// errors instead.
type RemoteError struct{ Msg string }

func (e *RemoteError) Error() string { return "native: remote: " + e.Msg }

// RuleProfile is one rule's servo-side counters.
type RuleProfile struct {
	Rule     string
	Attempts uint64
	Commits  uint64
	Skips    uint64
}

// Engine supervises one compiled simulator subprocess and exposes it as a
// sim.Engine (plus sim.Snapshotter and sim.Advancer). The error-returning
// methods (StepN, Peek, ...) are the primary API; the sim.Engine methods
// wrap them and panic on subprocess failure, which upstream diag.Guard
// boundaries convert into honest *diag.Internal errors.
//
// Register reads are served from a local mirror refreshed with one peek-all
// round trip after each step, so digesting the full architectural state
// costs one RPC, not one per register. The one-cycle facade (Cycle) fills
// the mirror in the same round trip as the step, so an observer that reads
// every cycle's row costs no second trip.
type Engine struct {
	design  *ast.Design
	key     string
	regIdx  map[string]int
	ruleIdx map[string]int

	cmd    *exec.Cmd
	stdin  *bufio.Writer
	inPipe io.WriteCloser
	out    *bufio.Reader
	errs   *tailBuf
	reap   *reapEntry

	waitDone chan struct{}
	waitErr  error

	mu       sync.Mutex
	dead     error
	closed   bool
	cycles   uint64
	fired    []byte
	mirror   []uint64
	mirrorOK bool
}

var (
	_ sim.Engine      = (*Engine)(nil)
	_ sim.Snapshotter = (*Engine)(nil)
	_ sim.Advancer    = (*Engine)(nil)
	_ sim.RowReader   = (*Engine)(nil)
)

// Launch spawns a compiled servo binary and performs the handshake,
// verifying that the binary simulates exactly the design the caller thinks
// it does (design hash, register and rule counts) before any step runs.
func Launch(d *ast.Design, res BuildResult) (*Engine, error) {
	cmd := exec.Command(res.Path)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	inPipe, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("native: launch: %w", err)
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("native: launch: %w", err)
	}
	errs := &tailBuf{}
	cmd.Stderr = errs
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("native: launch %s: %w", res.Path, err)
	}
	e := &Engine{
		design:   d,
		key:      res.Key,
		regIdx:   make(map[string]int, len(d.Registers)),
		ruleIdx:  make(map[string]int, len(d.Rules)),
		cmd:      cmd,
		stdin:    bufio.NewWriter(inPipe),
		inPipe:   inPipe,
		out:      bufio.NewReader(outPipe),
		errs:     errs,
		waitDone: make(chan struct{}),
		fired:    make([]byte, (len(d.Rules)+7)/8),
		mirror:   make([]uint64, len(d.Registers)),
	}
	for i, r := range d.Registers {
		e.regIdx[r.Name] = i
	}
	for i, r := range d.Rules {
		e.ruleIdx[r.Name] = i
	}
	e.reap = &reapEntry{pid: cmd.Process.Pid, done: e.waitDone}
	reaperAdd(e.reap)
	go func() {
		e.waitErr = cmd.Wait()
		close(e.waitDone)
	}()

	// A corrupt binary may never speak; bound the handshake.
	hsTimer := time.AfterFunc(handshakeTimeout, func() {
		syscall.Kill(-e.reap.pid, syscall.SIGKILL)
	})
	err = e.handshake(res.DesignHash)
	hsTimer.Stop()
	if err != nil {
		e.kill()
		reaperRemove(e.reap)
		return nil, err
	}
	return e, nil
}

func (e *Engine) handshake(wantHash uint64) error {
	payload, err := e.readResp()
	if err != nil {
		return fmt.Errorf("native: handshake: %w", err)
	}
	if len(payload) != 22 || string(payload[:4]) != "KSRV" {
		return fmt.Errorf("native: handshake: malformed identification (%d bytes)", len(payload))
	}
	if v := binary.LittleEndian.Uint16(payload[4:6]); v != gomodel.ProtocolVersion {
		return fmt.Errorf("native: handshake: protocol version %d (want %d)", v, gomodel.ProtocolVersion)
	}
	if h := binary.LittleEndian.Uint64(payload[6:14]); h != wantHash {
		return fmt.Errorf("native: handshake: design hash %016x, want %016x — cached binary simulates a different design", h, wantHash)
	}
	if n := binary.LittleEndian.Uint32(payload[14:18]); n != uint32(len(e.design.Registers)) {
		return fmt.Errorf("native: handshake: %d registers, want %d", n, len(e.design.Registers))
	}
	if n := binary.LittleEndian.Uint32(payload[18:22]); n != uint32(len(e.design.Rules)) {
		return fmt.Errorf("native: handshake: %d rules, want %d", n, len(e.design.Rules))
	}
	return nil
}

// tailBuf keeps the last few KB of the child's stderr for crash reports.
type tailBuf struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuf) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > 4096 {
		t.buf = t.buf[len(t.buf)-4096:]
	}
	t.mu.Unlock()
	return len(p), nil
}

func (t *tailBuf) tail() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

func (e *Engine) kill() {
	syscall.Kill(-e.reap.pid, syscall.SIGKILL)
	select {
	case <-e.waitDone:
	case <-time.After(10 * time.Second):
	}
}

// fail records a sticky transport failure: the subprocess is killed, waited
// on, and every future call reports the composed crash error.
func (e *Engine) fail(err error) error {
	if e.dead != nil {
		return e.dead
	}
	e.kill()
	msg := fmt.Sprintf("native: simulator subprocess failed: %v", err)
	if tail := e.errs.tail(); tail != "" {
		msg += "\nstderr: " + tail
	}
	e.dead = fmt.Errorf("%s", msg)
	return e.dead
}

// Pid returns the subprocess pid (for tests and diagnostics).
func (e *Engine) Pid() int { return e.reap.pid }

// Dead returns the sticky subprocess failure, if any.
func (e *Engine) Dead() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dead
}

func (e *Engine) writeFrame(op byte, payload []byte) error {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = op
	if _, err := e.stdin.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := e.stdin.Write(payload); err != nil {
		return err
	}
	return e.stdin.Flush()
}

func (e *Engine) readResp() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(e.out, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("frame length %d out of range", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(e.out, buf); err != nil {
		return nil, err
	}
	if buf[0] == 'E' {
		return nil, &RemoteError{Msg: string(buf[1:])}
	}
	if buf[0] != 'K' {
		return nil, fmt.Errorf("unknown response status %#x", buf[0])
	}
	return buf[1:], nil
}

// callLocked performs one request/response round trip. Transport failures
// become sticky; RemoteErrors pass through without poisoning the engine.
func (e *Engine) callLocked(op byte, payload []byte) ([]byte, error) {
	if e.dead != nil {
		return nil, e.dead
	}
	if e.closed {
		return nil, fmt.Errorf("native: engine closed")
	}
	if err := e.writeFrame(op, payload); err != nil {
		return nil, e.fail(err)
	}
	resp, err := e.readResp()
	if err != nil {
		var re *RemoteError
		if asRemote(err, &re) {
			return nil, err
		}
		return nil, e.fail(err)
	}
	return resp, nil
}

func asRemote(err error, out **RemoteError) bool {
	re, ok := err.(*RemoteError)
	if ok {
		*out = re
	}
	return ok
}

// StepN executes n cycles in the subprocess (one round trip) and refreshes
// the cycle counter and fired flags.
func (e *Engine) StepN(n uint64) error {
	return e.step('s', binary.LittleEndian.AppendUint64(nil, n))
}

// step runs one step request — 's' (n cycles) or 'c' (one cycle whose
// reply also carries every register value) — and refreshes the cycle
// counter and fired flags, plus the register mirror for 'c'.
func (e *Engine) step(op byte, payload []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	resp, err := e.callLocked(op, payload)
	if err != nil {
		return err
	}
	nf := len(e.fired)
	want := 8 + nf
	if op == 'c' {
		want += 8 * len(e.mirror)
	}
	if len(resp) != want {
		return e.fail(fmt.Errorf("step: response length %d", len(resp)))
	}
	e.cycles = binary.LittleEndian.Uint64(resp[:8])
	copy(e.fired, resp[8:8+nf])
	e.mirrorOK = op == 'c'
	if e.mirrorOK {
		for i := range e.mirror {
			e.mirror[i] = binary.LittleEndian.Uint64(resp[8+nf+8*i:])
		}
	}
	return nil
}

// PeekAll refreshes the local register mirror with one round trip.
func (e *Engine) PeekAll() ([]uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.refreshLocked(); err != nil {
		return nil, err
	}
	out := make([]uint64, len(e.mirror))
	copy(out, e.mirror)
	return out, nil
}

func (e *Engine) refreshLocked() error {
	if e.mirrorOK {
		return nil
	}
	resp, err := e.callLocked('A', nil)
	if err != nil {
		return err
	}
	if len(resp) != 8*len(e.mirror) {
		return e.fail(fmt.Errorf("peek-all: response length %d", len(resp)))
	}
	for i := range e.mirror {
		e.mirror[i] = binary.LittleEndian.Uint64(resp[8*i:])
	}
	e.mirrorOK = true
	return nil
}

// Poke overwrites register i.
func (e *Engine) Poke(i int, v uint64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	payload := binary.LittleEndian.AppendUint32(nil, uint32(i))
	payload = binary.LittleEndian.AppendUint64(payload, v)
	if _, err := e.callLocked('P', payload); err != nil {
		return err
	}
	if e.mirrorOK {
		e.mirror[i] = v & bits.Mask(e.design.Registers[i].Type.BitWidth())
	}
	return nil
}

// TakeSnapshot captures the subprocess state as a sim.Snapshot.
func (e *Engine) TakeSnapshot() (sim.Snapshot, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	resp, err := e.callLocked('S', nil)
	if err != nil {
		return sim.Snapshot{}, err
	}
	var s sim.Snapshot
	if err := s.UnmarshalBinary(resp); err != nil {
		return sim.Snapshot{}, e.fail(fmt.Errorf("snapshot: %w", err))
	}
	return s, nil
}

// RestoreSnapshot rewinds the subprocess to a captured snapshot.
func (e *Engine) RestoreSnapshot(s sim.Snapshot) error {
	raw, err := s.MarshalBinary()
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, err := e.callLocked('R', raw); err != nil {
		return err
	}
	e.cycles = s.Cycle
	for i := range e.fired {
		e.fired[i] = 0
	}
	e.mirrorOK = false
	return nil
}

// Profile fetches the per-rule attempt/commit/skip counters.
func (e *Engine) Profile() ([]RuleProfile, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	resp, err := e.callLocked('f', nil)
	if err != nil {
		return nil, err
	}
	if len(resp) != 24*len(e.design.Rules) {
		return nil, e.fail(fmt.Errorf("profile: response length %d", len(resp)))
	}
	out := make([]RuleProfile, len(e.design.Rules))
	for i := range out {
		out[i] = RuleProfile{
			Rule:     e.design.Rules[i].Name,
			Attempts: binary.LittleEndian.Uint64(resp[24*i:]),
			Commits:  binary.LittleEndian.Uint64(resp[24*i+8:]),
			Skips:    binary.LittleEndian.Uint64(resp[24*i+16:]),
		}
	}
	return out, nil
}

// Close shuts the subprocess down: a best-effort quit, then escalation to a
// process-group kill if it lingers. Always reaps the child.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	alreadyDead := e.dead != nil
	if !alreadyDead {
		// Best-effort graceful quit; ignore errors, the kill path follows.
		if err := e.writeFrame('q', nil); err == nil {
			e.readResp()
		}
	}
	e.inPipe.Close()
	e.mu.Unlock()

	select {
	case <-e.waitDone:
	case <-time.After(5 * time.Second):
		e.kill()
	}
	reaperRemove(e.reap)
	return nil
}

// --- sim.Engine facade -----------------------------------------------------

// Design implements sim.Engine.
func (e *Engine) Design() *ast.Design { return e.design }

// Cycle implements sim.Engine: one cycle whose response also carries the
// post-cycle register row, so ReadRow and Reg after it need no round trip.
// Subprocess failures panic (toolchain-bug territory); diag.Guard
// boundaries upstream convert them to errors.
func (e *Engine) Cycle() {
	if err := e.step('c', nil); err != nil {
		panic(err)
	}
}

// Advance implements sim.Advancer: a whole run of cycles in one round trip.
func (e *Engine) Advance(n uint64) uint64 {
	if err := e.StepN(n); err != nil {
		panic(err)
	}
	return n
}

// Reg implements sim.Engine.
func (e *Engine) Reg(name string) bits.Bits {
	i, ok := e.regIdx[name]
	if !ok {
		panic(fmt.Sprintf("native: unknown register %q", name))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.refreshLocked(); err != nil {
		panic(err)
	}
	return bits.New(e.design.Registers[i].Type.BitWidth(), e.mirror[i])
}

// ReadRow implements sim.RowReader from the register mirror, refreshing it
// first if a bulk step or restore invalidated it.
func (e *Engine) ReadRow(dst []uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.refreshLocked(); err != nil {
		panic(err)
	}
	copy(dst, e.mirror)
}

// SetReg implements sim.Engine.
func (e *Engine) SetReg(name string, v bits.Bits) {
	i, ok := e.regIdx[name]
	if !ok {
		panic(fmt.Sprintf("native: unknown register %q", name))
	}
	if err := e.Poke(i, v.Val); err != nil {
		panic(err)
	}
}

// CycleCount implements sim.Engine.
func (e *Engine) CycleCount() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cycles
}

// RuleFired implements sim.Engine.
func (e *Engine) RuleFired(rule string) bool {
	i, ok := e.ruleIdx[rule]
	if !ok {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fired[i>>3]&(1<<(i&7)) != 0
}

// Snapshot implements sim.Snapshotter.
func (e *Engine) Snapshot() sim.Snapshot {
	s, err := e.TakeSnapshot()
	if err != nil {
		panic(err)
	}
	return s
}

// Restore implements sim.Snapshotter.
func (e *Engine) Restore(s sim.Snapshot) {
	if err := e.RestoreSnapshot(s); err != nil {
		panic(err)
	}
}

// Engine builds (or reuses) the design's compiled binary and launches a
// supervised subprocess over it. A cached binary that fails to launch or
// identifies as the wrong design is quarantined and rebuilt once before
// giving up.
func (c *Cache) Engine(d *ast.Design, b *gomodel.Bindings) (*Engine, error) {
	res, err := c.Build(d, b)
	if err != nil {
		return nil, err
	}
	eng, lerr := Launch(d, res)
	if lerr == nil {
		return eng, nil
	}
	if !res.Cached {
		return nil, lerr
	}
	c.Quarantine(res.Key, lerr)
	res, err = c.Build(d, b)
	if err != nil {
		return nil, err
	}
	return Launch(d, res)
}
