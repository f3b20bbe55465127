package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cuttlego/internal/ast"
	"cuttlego/internal/bench"
	"cuttlego/internal/circuit"
	"cuttlego/internal/cuttlesim"
	"cuttlego/internal/debug"
	"cuttlego/internal/faultinj"
	"cuttlego/internal/interp"
	"cuttlego/internal/kclient"
	"cuttlego/internal/native"
	"cuttlego/internal/rtlsim"
	"cuttlego/internal/server"
	"cuttlego/internal/sim"
	"cuttlego/internal/tracedb"
)

// e2eSamples are the raw end-to-end samples of some rounds.
type e2eSamples struct {
	cps   map[string][]float64
	lat   [numOpKinds]samples
	rates []float64
}

// takeSamples moves every sample gathered since the last call out of the
// cells and the interactive loop.
func (b *benchState) takeSamples() e2eSamples {
	s := e2eSamples{cps: make(map[string][]float64), lat: b.it.lat, rates: b.it.rates}
	for _, c := range b.cells {
		s.cps[c.metric] = c.cps
		c.cps = nil
	}
	b.it.lat = [numOpKinds]samples{}
	b.it.rates = nil
	return s
}

func (s *e2eSamples) add(o e2eSamples) {
	if s.cps == nil {
		s.cps = make(map[string][]float64)
	}
	for k, v := range o.cps {
		s.cps[k] = append(s.cps[k], v...)
	}
	for k := range s.lat {
		s.lat[k] = append(s.lat[k], o.lat[k]...)
	}
	s.rates = append(s.rates, o.rates...)
}

// headline are the end-to-end values the tracing overhead is reported for.
func (s e2eSamples) headline() map[string]float64 {
	out := make(map[string]float64)
	for k, v := range s.cps {
		out[k] = iqm(v)
	}
	for _, k := range reportedOps {
		out[opNames[k]+"_p50_ms"] = median(s.lat[k])
	}
	out["ops_s"] = median(s.rates)
	return out
}

// traced is the --trace 1 run: the workload's rounds alternately with and
// without spans (their difference is the tracing overhead, and the traced
// rounds' spans give each layer's self time), then every layer's public
// functions timed in-process.
func (b *benchState) traced(ctx context.Context) (map[string]metric, error) {
	ms := make(map[string]metric)
	total := time.Duration(b.cfg.seconds) * time.Second
	var on, off e2eSamples
	start := time.Now()
	for i := 0; i < 4 || time.Since(start) < total/2 || len(off.lat[opFork]) < minLatSamples; i++ {
		b.rounds++
		b.tr.on.Store(i%2 == 1)
		if err := b.round(ctx); err != nil {
			return ms, nil // tallied; the result reports the run incorrect
		}
		if i%2 == 1 {
			on.add(b.takeSamples())
		} else {
			off.add(b.takeSamples())
		}
	}
	b.tr.on.Store(false)
	// The end-to-end figures too unsteady to carry a bound, from the
	// untraced rounds.
	ms["cps_rv32i_native"] = sampled(iqm(off.cps["cps_rv32i_native"]), "cycles/cpu-s", off.cps["cps_rv32i_native"])
	forks := off.lat[opFork]
	ms["fork_p90_ms"] = metric{Value: percentile(forks, 90), Unit: "cpu-ms", n: len(forks)}
	hon, hoff := on.headline(), off.headline()
	for k, v := range hoff {
		ms["trace.overhead_pct."+k] = metric{Value: 100 * (hon[k] - v) / v, Unit: "%", n: len(on.rates)}
	}
	spanLayers(b.tr.take(), ms)

	l := &layerRun{b: b, ms: ms, slice: total / 2 / 24}
	for _, f := range []func(context.Context) error{
		l.engines, l.nativeRoundTrips, l.nativeBuild, l.conditions, l.tracedb,
		l.snapshots, l.handlers, l.clientAndRouter,
	} {
		runtime.GC()
		if err := f(ctx); err != nil {
			b.tally.fail(err)
			return ms, nil
		}
		b.tally.ok()
	}
	return ms, nil
}

// spanLayers splits each traced interactive op into client, router and
// daemon time: the client span's self time (kclient plus the loopback
// hops), the router span's self time, and the daemon handler span.
func spanLayers(spans []span, ms map[string]metric) {
	// The router re-issues some requests itself (fork pins the child to its
	// parent's backend) without the span header; such a daemon span is
	// parented by time instead: one client means at most one router span
	// is open at any moment.
	var routers, orphans []int
	for i, s := range spans {
		switch {
		case s.name == "router":
			routers = append(routers, i)
		case s.name == "server" && s.parent == 0:
			orphans = append(orphans, i)
		}
	}
	for _, o := range orphans {
		for _, r := range routers {
			if !spans[o].start.Before(spans[r].start) && !spans[o].end.After(spans[r].end) {
				spans[o].parent = spans[r].id
				break
			}
		}
	}
	self := selfTimes(spans)
	child := make(map[uint64]span)
	for _, s := range spans {
		if s.parent != 0 {
			child[s.parent] = s
		}
	}
	for k := opKind(0); k < numOpKinds; k++ {
		var cl, rt, sv []float64
		for _, s := range spans {
			if s.name != "client."+opNames[k] {
				continue
			}
			r, ok := child[s.id]
			if !ok {
				continue
			}
			d, ok := child[r.id]
			if !ok {
				continue
			}
			cl = append(cl, us(self[s.id]))
			rt = append(rt, us(self[r.id]))
			sv = append(sv, us(self[d.id]))
		}
		pre := "span." + opNames[k] + "."
		ms[pre+"client_self_us"] = metric{Value: median(cl), Unit: "us", n: len(cl)}
		ms[pre+"router_self_us"] = metric{Value: median(rt), Unit: "us", n: len(rt)}
		ms[pre+"server_us"] = metric{Value: median(sv), Unit: "us", n: len(sv)}
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// layerRun times calls into each layer's public functions.
type layerRun struct {
	b     *benchState
	ms    map[string]metric
	slice time.Duration // time given to one measurement
}

// series calls f until the slice has passed and at least minN samples
// exist (but never more than maxN, when maxN > 0), and records the median
// of f's values as name.
func (l *layerRun) series(name, unit string, minN, maxN int, f func() (float64, error)) error {
	var xs []float64
	start := time.Now()
	for (len(xs) < minN || time.Since(start) < l.slice) && (maxN <= 0 || len(xs) < maxN) {
		v, err := f()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		xs = append(xs, v)
	}
	l.ms[name] = metric{Value: median(xs), Unit: unit, n: len(xs)}
	return nil
}

// perCall times n calls of f, in the given unit of time per call.
func perCall(n int, unit time.Duration, f func() error) (float64, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := f(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0)) / float64(unit) / float64(n), nil
}

func instance(name string) (bench.Instance, error) {
	bm, ok := bench.Lookup(name)
	if !ok {
		return bench.Instance{}, fmt.Errorf("no catalogue design %q", name)
	}
	return bm.New(), nil
}

// engines times large in-process runs of each engine the daemon or the
// paper's baselines use. rv32i runs stop short of the testbench halt.
func (l *layerRun) engines(context.Context) error {
	type eng struct {
		name  string
		make  func(bench.Instance) (sim.Engine, error)
		chunk map[string]uint64
	}
	cache, err := native.OpenCache(l.b.ncache, native.CacheOptions{})
	if err != nil {
		return err
	}
	engs := []eng{
		{"cuttlesim", func(in bench.Instance) (sim.Engine, error) {
			return cuttlesim.New(in.Design, cuttlesim.Options{Level: cuttlesim.LStatic, Backend: cuttlesim.Closure, Profile: true})
		}, map[string]uint64{"rv32i": 20_000, "fft": 10_000}},
		{"native", func(in bench.Instance) (sim.Engine, error) { return cache.Engine(in.Design, in.Native) },
			map[string]uint64{"rv32i": 100_000, "fft": 50_000}},
		{"rtlsim", bench.EngRTLOpt(circuit.StyleKoika, rtlsim.Fused, true).Make,
			map[string]uint64{"rv32i": 10_000, "fft": 5_000}},
		{"interp", func(in bench.Instance) (sim.Engine, error) { return interp.New(in.Design) },
			map[string]uint64{"fft": 500}},
	}
	for _, en := range engs {
		for _, design := range []string{"rv32i", "fft"} {
			chunk, ok := en.chunk[design]
			if !ok {
				continue
			}
			inst, err := instance(design)
			if err != nil {
				return err
			}
			e, err := en.make(inst)
			if err != nil {
				return fmt.Errorf("%s %s: %w", en.name, design, err)
			}
			tb := inst.Bench
			if en.name == "native" {
				tb = nil // the binary embeds the testbench; sim.Run batches through Advance
			}
			ran := sim.Run(e, tb, chunk) // warm-up
			maxN := 0
			if design == "rv32i" {
				maxN = int((l.b.rv.halt-1)/chunk) - 1
			}
			err = l.series(fmt.Sprintf("%s.ns_per_cycle.%s", en.name, design), "ns", 3, maxN, func() (float64, error) {
				if design == "rv32i" {
					if err := checkBudget(design, ran+chunk, l.b.rv.halt); err != nil {
						return 0, err
					}
				}
				t0 := time.Now()
				n := sim.Run(e, tb, chunk)
				ran += n
				if n != chunk {
					return 0, fmt.Errorf("ran %d of %d cycles", n, chunk)
				}
				return float64(time.Since(t0).Nanoseconds()) / float64(chunk), nil
			})
			closeEngine(e)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func closeEngine(e sim.Engine) {
	if c, ok := e.(interface{ Close() error }); ok {
		_ = c.Close() // a reaped subprocess has nothing left to report
	}
}

// nativeRoundTrips times the single-cycle protocol the daemon's debug
// loop uses on a native session, and the snapshot a durable one takes
// every 64 cycles.
func (l *layerRun) nativeRoundTrips(context.Context) error {
	cache, err := native.OpenCache(l.b.ncache, native.CacheOptions{})
	if err != nil {
		return err
	}
	inst, err := instance("fft")
	if err != nil {
		return err
	}
	e, err := cache.Engine(inst.Design, inst.Native)
	if err != nil {
		return err
	}
	defer e.Close()
	err = l.series("native.stepn1_us", "us", 3, 0, func() (float64, error) {
		return perCall(200, time.Microsecond, func() error { return e.StepN(1) })
	})
	if err != nil {
		return err
	}
	// The engine mirrors registers and re-reads them only after a step, so
	// each timed peek follows an untimed single-cycle step.
	err = l.series("native.peekall_us", "us", 3, 0, func() (float64, error) {
		var total time.Duration
		for i := 0; i < 200; i++ {
			if err := e.StepN(1); err != nil {
				return 0, err
			}
			t0 := time.Now()
			if _, err := e.PeekAll(); err != nil {
				return 0, err
			}
			total += time.Since(t0)
		}
		return us(total) / 200, nil
	})
	if err != nil {
		return err
	}
	return l.series("native.snapshot_us", "us", 3, 0, func() (float64, error) {
		return perCall(100, time.Microsecond, func() error { _, err := e.TakeSnapshot(); return err })
	})
}

// nativeBuild compiles both designs into a fresh cache: the compile cost
// setup_s pays.
func (l *layerRun) nativeBuild(context.Context) error {
	dir := filepath.Join(l.b.work, "layer-ncache")
	cache, err := native.OpenCache(dir, native.CacheOptions{})
	if err != nil {
		return err
	}
	var xs []float64
	for _, design := range []string{"rv32i", "fft"} {
		inst, err := instance(design)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := cache.Build(inst.Design, inst.Native); err != nil {
			return err
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	l.ms["native.build_cold_ms"] = metric{Value: (xs[0] + xs[1]) / 2, Unit: "ms", n: len(xs)}
	return nil
}

// firstBitsReg picks a plain bit-vector register at least 16 bits wide.
func firstBitsReg(d *ast.Design) (ast.Register, int) {
	for _, r := range d.Registers {
		if bt, ok := r.Type.(ast.BitsType); ok && bt.W >= 16 {
			return r, bt.W
		}
	}
	return d.Registers[0], d.Registers[0].Type.BitWidth()
}

// conditions times one evaluation of a compiled breakpoint condition
// against a live in-process engine (what the daemon does every cycle of a
// debug step), and compiling the interactive loop's query predicates.
func (l *layerRun) conditions(context.Context) error {
	for _, design := range []string{"rv32i", "fft"} {
		inst, err := instance(design)
		if err != nil {
			return err
		}
		e, err := cuttlesim.New(inst.Design, cuttlesim.Options{Level: cuttlesim.LStatic, Backend: cuttlesim.Closure})
		if err != nil {
			return err
		}
		tb := inst.Bench
		if tb == nil {
			tb = sim.NopBench{}
		}
		sim.Run(e, tb, 1000)
		r, w := firstBitsReg(inst.Design)
		eval, err := debug.CompileCondition(inst.Design, fmt.Sprintf("%s.rd0() == %d'd%d", r.Name, w, e.Reg(r.Name).Val+1))
		if err != nil {
			return err
		}
		err = l.series("debug.cond_eval_ns."+design, "ns", 3, 0, func() (float64, error) {
			return perCall(1000, time.Nanosecond, func() error { eval(e); return nil })
		})
		if err != nil {
			return err
		}
	}
	_, exprs := l.queryOps()
	i := 0
	return l.series("debug.compile_cond_us", "us", 3, 0, func() (float64, error) {
		return perCall(20, time.Microsecond, func() error {
			_, err := debug.CompileCondition(l.b.fft.design, exprs[i%len(exprs)])
			i++
			return err
		})
	})
}

// queryOps are the first queries of the interactive script for this
// run's seed, with their predicates rendered.
func (l *layerRun) queryOps() ([]op, []string) {
	sb := bounds
	sb.nregs = l.b.fft.nregs
	sc := newScript(l.b.cfg.seed, sb)
	var ops []op
	var exprs []string
	for len(ops) < 256 {
		if o := sc.next(); o.kind == opQuery {
			ops = append(ops, o)
			exprs = append(exprs, l.b.it.expr(o))
		}
	}
	return ops, exprs
}

// tracedb records reference rows the way a debug session does (one Append
// per cycle), with a Flush of the open tail chunk every flushEvery rows (a
// session flushes before it answers a query), then answers the interactive
// script's queries from the recording.
func (l *layerRun) tracedb(context.Context) error {
	fsys := faultinj.OS()
	for _, design := range []string{"rv32i", "fft"} {
		inst, err := instance(design)
		if err != nil {
			return err
		}
		rows, err := recordRows(inst, l.b.fft, design)
		if err != nil {
			return err
		}
		dir := filepath.Join(l.b.work, "layer-trace-"+design)
		rec, err := tracedb.Create(dir, fsys, tracedb.MetaFor(inst.Design, tracedb.DefaultChunkCycles))
		if err != nil {
			return err
		}
		var appendNs float64
		var flushes []float64
		for c, row := range rows {
			t0 := time.Now()
			if err := rec.Append(uint64(c), row); err != nil {
				return err
			}
			appendNs += float64(time.Since(t0).Nanoseconds())
			if (c+1)%flushEvery == 0 {
				t0 = time.Now()
				if err := rec.Flush(); err != nil {
					return err
				}
				flushes = append(flushes, float64(time.Since(t0).Nanoseconds())/1e6)
			}
		}
		if err := rec.Close(); err != nil {
			return err
		}
		l.ms["tracedb.append_ns_per_row."+design] = metric{Value: appendNs / float64(len(rows)), Unit: "ns", n: len(rows)}
		if design != "fft" {
			continue
		}
		l.ms["tracedb.flush_ms"] = metric{Value: median(flushes), Unit: "ms", n: len(flushes)}
		size, err := dirBytes(dir)
		if err != nil {
			return err
		}
		l.ms["tracedb.bytes_per_row"] = metric{Value: float64(size) / float64(len(rows)), Unit: "bytes", n: len(rows)}
		rd, err := tracedb.Open(dir, fsys)
		if err != nil {
			return err
		}
		ops, exprs := l.queryOps()
		var evaluated, scanned float64
		var nq int
		err = l.series("tracedb.query_ms", "ms", len(ops), 0, func() (float64, error) {
			o := ops[nq%len(ops)]
			t0 := time.Now()
			res, err := rd.Query(inst.Design, tracedb.Query{Mode: o.mode, Expr: exprs[nq%len(ops)], From: o.from, To: o.to})
			el := time.Since(t0)
			if nq < len(ops) {
				evaluated += float64(res.RowsEvaluated)
				scanned += float64(res.ChunksScanned)
			}
			nq++
			return float64(el.Nanoseconds()) / 1e6, err
		})
		if err != nil {
			return err
		}
		l.ms["tracedb.rows_evaluated_per_query"] = metric{Value: evaluated / float64(len(ops)), Unit: "count", n: len(ops)}
		l.ms["tracedb.chunks_scanned_per_query"] = metric{Value: scanned / float64(len(ops)), Unit: "count", n: len(ops)}
	}
	return nil
}

// recordRows returns the rows a recording of design holds: fft's come
// from the reference run, rv32i's from a fresh in-process run.
// flushEvery is prime to the 1024-row chunk size, so flushes land inside
// open chunks.
const flushEvery = 1000

func recordRows(inst bench.Instance, fft *shadow, design string) ([][]uint64, error) {
	if design == "fft" {
		out := make([][]uint64, fft.limit()+1)
		for c := range out {
			out[c] = fft.row(uint64(c))
		}
		return out, nil
	}
	e, err := cuttlesim.New(inst.Design, cuttlesim.Options{Level: cuttlesim.LStatic, Backend: cuttlesim.Closure})
	if err != nil {
		return nil, err
	}
	out := make([][]uint64, 8192)
	for c := range out {
		if c > 0 {
			inst.Bench.BeforeCycle(e)
			e.Cycle()
			inst.Bench.AfterCycle(e)
		}
		row := make([]uint64, len(inst.Design.Registers))
		for i, r := range inst.Design.Registers {
			row[i] = e.Reg(r.Name).Val
		}
		out[c] = row
	}
	return out, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// snapshots times the state captures a fork pays: an overlay fork, the
// snapshot's wire encoding, and its digest.
func (l *layerRun) snapshots(context.Context) error {
	inst, err := instance("fft")
	if err != nil {
		return err
	}
	e, err := cuttlesim.New(inst.Design, cuttlesim.Options{Level: cuttlesim.LStatic, Backend: cuttlesim.Closure})
	if err != nil {
		return err
	}
	sim.Run(e, sim.NopBench{}, 1000)
	snap := e.Snapshot()
	ov := sim.NewOverlay(snap)
	for i := 0; i < 4; i++ {
		ov.Set(i, e.Reg(inst.Design.Registers[i].Name))
	}
	if err := l.series("sim.overlay_fork_us", "us", 3, 0, func() (float64, error) {
		return perCall(1000, time.Microsecond, func() error { ov.Fork(); return nil })
	}); err != nil {
		return err
	}
	if err := l.series("sim.snapshot_marshal_us", "us", 3, 0, func() (float64, error) {
		return perCall(100, time.Microsecond, func() error { _, err := snap.MarshalBinary(); return err })
	}); err != nil {
		return err
	}
	return l.series("sim.digest_us", "us", 3, 0, func() (float64, error) {
		return perCall(100, time.Microsecond, func() error { snap.Digest(); return nil })
	})
}

// handlers calls the daemon's HTTP handler directly with a response
// recorder (no socket, no router, no client) on a recorded fft session.
func (l *layerRun) handlers(context.Context) error {
	h := l.b.sys.srv.Handler()
	call := func(method, path string, body any, out any) (time.Duration, error) {
		var rd io.Reader = http.NoBody
		if body != nil {
			raw, err := json.Marshal(body)
			if err != nil {
				return 0, err
			}
			rd = bytes.NewReader(raw)
		}
		req := httptest.NewRequest(method, path, rd)
		w := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(w, req)
		el := time.Since(t0)
		if w.Code != http.StatusOK && w.Code != http.StatusCreated && w.Code != http.StatusNoContent {
			return el, fmt.Errorf("%s %s: status %d: %s", method, path, w.Code, strings.TrimSpace(w.Body.String()))
		}
		if out != nil {
			return el, json.Unmarshal(w.Body.Bytes(), out)
		}
		return el, nil
	}
	var info server.SessionInfo
	if _, err := call("POST", "/v1/sessions", server.CreateRequest{Catalog: "fft"}, &info); err != nil {
		return err
	}
	base := "/v1/sessions/" + info.ID
	defer call("DELETE", base, nil, nil)
	if _, err := call("POST", base+"/trace/record", server.TraceRecordRequest{Enable: true}, nil); err != nil {
		return err
	}
	if _, err := call("POST", base+"/step", server.StepRequest{Cycles: bounds.start}, nil); err != nil {
		return err
	}
	// maxN keeps the session inside the interactive session's cycle range,
	// so its recording and snapshot ring are the same size.
	timed := func(name, method, path string, body any, maxN int, after func(out *server.SessionInfo) error) error {
		return l.series("server."+name+"_us", "us", 20, maxN, func() (float64, error) {
			var out server.SessionInfo
			el, err := call(method, path, body, &out)
			if err == nil && after != nil {
				err = after(&out)
			}
			return us(el), err
		})
	}
	if err := timed("step", "POST", base+"/step", server.StepRequest{Cycles: 1}, int(bounds.cap-bounds.start), nil); err != nil {
		return err
	}
	if err := timed("regs", "POST", base+"/regs", server.RegsRequest{All: true}, 0, nil); err != nil {
		return err
	}
	if err := timed("fork", "POST", base+"/fork", nil, 0, func(out *server.SessionInfo) error {
		_, err := call("DELETE", "/v1/sessions/"+out.ID, nil, nil)
		return err
	}); err != nil {
		return err
	}
	if err := timed("reverse", "POST", base+"/reverse", server.ReverseRequest{Cycles: 1}, 0, func(*server.SessionInfo) error {
		_, err := call("POST", base+"/step", server.StepRequest{Cycles: 1}, nil)
		return err
	}); err != nil {
		return err
	}
	ops, exprs := l.queryOps()
	nq := 0
	if err := l.series("server.query_us", "us", 20, 0, func() (float64, error) {
		o := ops[nq%len(ops)]
		nq++
		to := o.to
		if to > bounds.start {
			to = bounds.start
		}
		q := fmt.Sprintf("%s %s in %d..%d", o.mode, exprs[(nq-1)%len(ops)], o.from%(to+1), to)
		el, err := call("POST", base+"/trace/query", server.TraceQueryRequest{Query: q}, nil)
		return us(el), err
	}); err != nil {
		return err
	}
	if err := l.series("store.checkpoint_disk_ms", "ms", 5, 0, func() (float64, error) {
		el, err := call("POST", base+"/checkpoint", nil, nil)
		return float64(el.Nanoseconds()) / 1e6, err
	}); err != nil {
		return err
	}
	// Allocation and heap deltas around the call, averaged over many calls.
	const nSteps, nForks = 200, 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < nSteps; i++ {
		if _, err := call("POST", base+"/step", server.StepRequest{Cycles: 1}, nil); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	l.ms["server.allocs_per_step"] = metric{Value: float64(m1.Mallocs-m0.Mallocs) / nSteps, Unit: "count", n: nSteps}
	runtime.GC()
	runtime.ReadMemStats(&m0)
	var forks []string
	for i := 0; i < nForks; i++ {
		var out server.SessionInfo
		if _, err := call("POST", base+"/fork", nil, &out); err != nil {
			return err
		}
		forks = append(forks, out.ID)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	l.ms["server.heap_bytes_per_fork"] = metric{Value: (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / nForks, Unit: "bytes", n: nForks}
	for _, id := range forks {
		if _, err := call("DELETE", "/v1/sessions/"+id, nil, nil); err != nil {
			return err
		}
	}
	return nil
}

// clientAndRouter isolates the client and router costs on a register peek
// of the interactive session. The router hop is a routed call minus a
// direct one, alternated, with tracing off for both. kclient's round trip
// is then a traced direct call's client span minus its handler span.
func (l *layerRun) clientAndRouter(ctx context.Context) error {
	it := l.b.it
	req := server.RegsRequest{All: true}
	timeCall := func(c *kclient.Client, sctx context.Context) (float64, error) {
		t0 := time.Now()
		_, err := c.Regs(sctx, it.id, req)
		return us(time.Since(t0)), err
	}
	var routed, direct []float64
	start := time.Now()
	for len(direct) < 50 || time.Since(start) < l.slice {
		d, err := timeCall(l.b.sys.direct, ctx)
		if err != nil {
			return err
		}
		r, err := timeCall(l.b.sys.routed, ctx)
		if err != nil {
			return err
		}
		direct, routed = append(direct, d), append(routed, r)
	}
	l.ms["router.hop_us"] = metric{Value: median(routed) - median(direct), Unit: "us", n: len(routed)}

	tr := l.b.tr
	tr.on.Store(true)
	start = time.Now()
	for n := 0; n < 50 || time.Since(start) < l.slice; n++ {
		id, t0 := tr.begin()
		if _, err := l.b.sys.direct.Regs(withSpan(ctx, id), it.id, req); err != nil {
			tr.on.Store(false)
			return err
		}
		tr.end(id, 0, "client.direct", t0)
	}
	tr.on.Store(false)
	spans := tr.take()
	self := selfTimes(spans)
	var rtt []float64
	for _, s := range spans {
		if s.name == "client.direct" {
			rtt = append(rtt, us(self[s.id]))
		}
	}
	l.ms["kclient.rtt_us"] = metric{Value: median(rtt), Unit: "us", n: len(rtt)}
	if math.IsNaN(l.ms["kclient.rtt_us"].Value) {
		return fmt.Errorf("no client spans recorded")
	}
	return nil
}
