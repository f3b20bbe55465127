package main

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"cuttlego/internal/debug"
	"cuttlego/internal/kclient"
	"cuttlego/internal/server"
)

// The interactive op mix: what one kdbg or kdap user does to a recorded
// session, one request at a time (a closed loop of one client). Each op
// sends the request those clients send for it:
//
//	step     Step(1): DAP next/stepIn/stepOut, kdbg "step"
//	regs     Regs{All: true}: DAP variables, kdbg "print"
//	fork     Fork: kdbg "fork"
//	query    TraceQuery{Query: "<mode> <expr> in A..B"}: kdbg "query"
//	reverse  Reverse(1): DAP stepBack, kdbg "reverse"
type opKind uint8

const (
	opStep opKind = iota
	opRegs
	opFork
	opQuery
	opReverse
	numOpKinds
)

var opNames = [numOpKinds]string{"step", "regs", "fork", "query", "reverse"}

// opWeights are the per-mille shares of each command; a step or reverse
// command is then repeated 1..maxRun times, as a user holds the key for
// next or stepBack. Nothing in the repository records how often users
// issue each command; the shares and the repeats are assumptions (see
// NOTES.md).
var opWeights = [numOpKinds]int{250, 150, 200, 200, 200}

// op is one scripted request. at is the session's cycle before the op; the
// script tracks it, so every answer is known before the op is sent.
type op struct {
	kind opKind
	at   uint64
	reg  int    // query: the signal
	mode string // query: first, last or count
	cmp  string // query: "==" or "<u"
	from uint64 // query window, inclusive
	to   uint64
	val  uint64 // query: the cycle whose signal value is the constant
}

// scriptBounds keep the session's cycle inside [floor, cap]: the reference
// rows cover it, and the daemon's snapshot ring (256 snapshots every 64
// cycles) reaches every reverse target without a replay from cycle 0.
type scriptBounds struct {
	start, floor, cap uint64
	nregs             int
}

const (
	maxRun    = 3   // a step or reverse command repeats 1..maxRun times
	minWindow = 16  // query windows span minWindow..maxWindow cycles
	maxWindow = 512 //
	maxForks  = 8   // forks kept alive; the oldest is deleted past this
)

// script is the interactive loop's input: ops drawn one at a time from
// the seed alone, so the same seed always gives the same sequence.
type script struct {
	rng  *rand.Rand
	b    scriptBounds
	at   uint64
	kind opKind // the command being repeated
	left int    // repeats of it still to come
}

func newScript(seed int64, b scriptBounds) *script {
	return &script{rng: rand.New(rand.NewSource(seed)), b: b, at: b.start}
}

var queryModes = []string{"first", "last", "count"}

func (s *script) next() op {
	rng := s.rng
	o := op{at: s.at, kind: s.kind}
	if s.left > 0 {
		s.left--
	} else {
		w := rng.Intn(1000)
		for k := opKind(0); k < numOpKinds; k++ {
			if w < opWeights[k] {
				o.kind = k
				break
			}
			w -= opWeights[k]
		}
		if o.kind == opStep || o.kind == opReverse {
			s.kind, s.left = o.kind, rng.Intn(maxRun)
		}
	}
	switch o.kind {
	case opStep, opReverse:
		if o.kind == opStep && s.at+1 > s.b.cap {
			o.kind = opReverse
		} else if o.kind == opReverse && s.at-1 < s.b.floor {
			o.kind = opStep
		}
		if o.kind == opStep {
			s.at++
		} else {
			s.at--
		}
	case opQuery:
		o.reg = rng.Intn(s.b.nregs)
		o.mode = queryModes[rng.Intn(len(queryModes))]
		o.cmp = "=="
		if rng.Intn(2) == 0 {
			o.cmp = "<u"
		}
		span := uint64(minWindow + rng.Intn(maxWindow-minWindow+1))
		o.from = uint64(rng.Int63n(int64(s.at - span + 1)))
		o.to = o.from + span - 1
		o.val = o.from + uint64(rng.Int63n(int64(span)))
	}
	return o
}

// interactive drives the scripted op mix against one recorded, durable fft
// session and checks every answer against the reference rows.
type interactive struct {
	c      *kclient.Client
	sh     *shadow
	tr     *tracer
	id     string
	script *script
	forks  []string

	lat   [numOpKinds]samples
	rates []float64     // ops per CPU second of each timed burst
	busy  time.Duration // summed CPU time of the current burst's ops
	tally *tally
}

// expr renders a query op's predicate.
func (it *interactive) expr(o op) string {
	r := it.sh.design.Registers[o.reg]
	w := r.Type.BitWidth()
	return fmt.Sprintf("%s.rd0() %s %d'd%d", r.Name, o.cmp, w, it.sh.row(o.val)[o.reg])
}

// open creates the session, starts recording at cycle 0 and steps to the
// script's start cycle. None of it is timed.
func (it *interactive) open(ctx context.Context, start uint64) error {
	info, err := it.c.Create(ctx, server.CreateRequest{Catalog: "fft"})
	if err != nil {
		return fmt.Errorf("create interactive session: %w", err)
	}
	it.id = info.ID
	if _, err := it.c.TraceRecord(ctx, it.id, true); err != nil {
		return fmt.Errorf("start recording: %w", err)
	}
	res, err := it.c.Step(ctx, it.id, start)
	if err != nil {
		return fmt.Errorf("warm-up step: %w", err)
	}
	if res.Cycle != start {
		return fmt.Errorf("warm-up step reached cycle %d, want %d", res.Cycle, start)
	}
	return nil
}

// moveTo steps or reverses the session to cycle c (untimed) and checks
// that it got there.
func (it *interactive) moveTo(ctx context.Context, c uint64) error {
	info, err := it.c.Info(ctx, it.id)
	if err != nil {
		return fmt.Errorf("info: %w", err)
	}
	switch {
	case info.Cycle < c:
		_, err = it.c.Step(ctx, it.id, c-info.Cycle)
	case info.Cycle > c:
		_, err = it.c.Reverse(ctx, it.id, info.Cycle-c)
	}
	if err != nil {
		return fmt.Errorf("move from cycle %d to %d: %w", info.Cycle, c, err)
	}
	if info, err = it.c.Info(ctx, it.id); err != nil || info.Cycle != c {
		return fmt.Errorf("move to cycle %d: at cycle %d (%v)", c, info.Cycle, err)
	}
	return nil
}

// run executes the next k ops; a timed burst adds to the CPU time series,
// and its throughput (ops over their summed CPU time, so the reference
// checks between ops do not count) to rates.
func (it *interactive) run(ctx context.Context, k int, timed bool) error {
	it.busy = 0
	done := 0
	defer func() {
		if timed && done > 0 {
			it.rates = append(it.rates, float64(done)/it.busy.Seconds())
		}
	}()
	for ; done < k; done++ {
		o := it.script.next()
		if err := it.do(ctx, o, timed); err != nil {
			it.tally.fail(err)
			return err
		}
		it.tally.ok()
	}
	return nil
}

func (it *interactive) do(ctx context.Context, o op, timed bool) error {
	sid, start := it.tr.begin()
	cctx := withSpan(ctx, sid)
	c0 := procCPU()
	var check func() error
	switch o.kind {
	case opStep:
		res, err := it.c.Step(cctx, it.id, 1)
		if err != nil {
			return fmt.Errorf("step at cycle %d: %w", o.at, err)
		}
		check = func() error {
			if res.Ran != 1 || res.Cycle != o.at+1 || res.Stopped != "" {
				return fmt.Errorf("step at cycle %d: ran %d to cycle %d (stopped %q)", o.at, res.Ran, res.Cycle, res.Stopped)
			}
			return nil
		}
	case opRegs:
		res, err := it.c.Regs(cctx, it.id, server.RegsRequest{All: true})
		if err != nil {
			return fmt.Errorf("regs at cycle %d: %w", o.at, err)
		}
		check = func() error {
			if res.Cycle != o.at || len(res.Values) != it.sh.nregs {
				return fmt.Errorf("regs at cycle %d: %d registers at cycle %d, want %d", o.at, len(res.Values), res.Cycle, it.sh.nregs)
			}
			row := it.sh.row(o.at)
			for i, r := range it.sh.design.Registers {
				v := res.Values[r.Name]
				if got, err := strconv.ParseUint(v.Hex, 16, 64); err != nil || got != row[i] {
					return fmt.Errorf("regs at cycle %d: %s = %q, want %x", o.at, r.Name, v.Hex, row[i])
				}
			}
			return nil
		}
	case opFork:
		info, err := it.c.Fork(cctx, it.id)
		if err != nil {
			return fmt.Errorf("fork at cycle %d: %w", o.at, err)
		}
		it.forks = append(it.forks, info.ID)
		check = func() error {
			if want := fmt.Sprintf("%016x", it.sh.digests[o.at]); info.Cycle != o.at || info.Digest != want {
				return fmt.Errorf("fork at cycle %d: child at cycle %d digest %s, want %s", o.at, info.Cycle, info.Digest, want)
			}
			return nil
		}
	case opQuery:
		expr := it.expr(o)
		q := fmt.Sprintf("%s %s in %d..%d", o.mode, expr, o.from, o.to)
		res, err := it.c.TraceQuery(cctx, it.id, server.TraceQueryRequest{Query: q})
		if err != nil {
			return fmt.Errorf("query %s: %w", q, err)
		}
		check = func() error { return it.checkQuery(o, expr, res) }
	case opReverse:
		info, err := it.c.Reverse(cctx, it.id, 1)
		if err != nil {
			return fmt.Errorf("reverse at cycle %d: %w", o.at, err)
		}
		check = func() error {
			want := o.at - 1
			if info.Cycle != want || info.Digest != fmt.Sprintf("%016x", it.sh.digests[want]) {
				return fmt.Errorf("reverse at cycle %d: reached cycle %d digest %s, want cycle %d digest %016x", o.at, info.Cycle, info.Digest, want, it.sh.digests[want])
			}
			return nil
		}
	}
	el := procCPU() - c0
	it.tr.end(sid, 0, "client."+opNames[o.kind], start)
	it.busy += el
	if timed {
		it.lat[o.kind].add(el)
	}
	if err := check(); err != nil {
		return err
	}
	if o.kind == opFork && len(it.forks) > maxForks {
		if err := it.c.Delete(ctx, it.forks[0]); err != nil {
			return fmt.Errorf("delete fork %s: %w", it.forks[0], err)
		}
		it.forks = it.forks[1:]
	}
	return nil
}

// checkQuery compares a daemon answer with a linear scan of the reference
// rows under the same compiled predicate.
func (it *interactive) checkQuery(o op, expr string, res server.TraceQueryResponse) error {
	eval, err := debug.CompileCondition(it.sh.design, expr)
	if err != nil {
		return err
	}
	var first, last, count uint64
	for c := o.from; c <= o.to; c++ {
		if eval(it.sh.rowEngine(c)) {
			if count == 0 {
				first = c
			}
			last = c
			count++
		}
	}
	bad := false
	switch o.mode {
	case "first":
		bad = res.Matched != (count > 0) || (count > 0 && res.Cycle != first)
	case "last":
		bad = res.Matched != (count > 0) || (count > 0 && res.Cycle != last)
	case "count":
		bad = res.Count != count
	}
	if bad {
		return fmt.Errorf("query %s %s in %d..%d: got matched=%v cycle=%d count=%d, want first=%d last=%d count=%d",
			o.mode, expr, o.from, o.to, res.Matched, res.Cycle, res.Count, first, last, count)
	}
	return nil
}
