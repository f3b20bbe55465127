package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cuttlego/internal/server"
)

// workloadSpec sizes one workload's rounds. Each round samples every cell
// (in a fixed interleaved order, so host drift hits all cells alike) and
// then runs burst ops of the interactive loop.
type workloadSpec struct {
	debug bool // cells record and stop at a breakpoint
	burst int  // interactive ops per round
}

var workloads = map[string]workloadSpec{
	"sim":   {burst: 200},
	"debug": {debug: true, burst: 200},
}

// Per cell: warm-up cycles, timed cycles, and samples per round. rv32i
// budgets must end before the primes testbench halts (checkBudget). Native
// cells take several short samples per round: a native session's IPC cost
// depends on where the scheduler puts its simulator process, so each fresh
// session is an independent draw and more of them steady the estimate.
var (
	simBudgets = map[string][3]uint64{
		"cps_rv32i_cuttlesim": {20_000, 150_000, 1},
		"cps_rv32i_native":    {100_000, 300_000, 4},
		"cps_fft_cuttlesim":   {5_000, 60_000, 1},
		"cps_fft_native":      {20_000, 120_000, 3},
	}
	debugBudgets = map[string][3]uint64{
		"cps_rv32i_cuttlesim": {2_000, 25_000, 1},
		"cps_rv32i_native":    {1_000, 2_000, 2},
		"cps_fft_cuttlesim":   {1_000, 15_000, 1},
		"cps_fft_native":      {500, 1_250, 2},
	}
	cellOrder = []struct{ metric, design, engine string }{
		{"cps_rv32i_cuttlesim", "rv32i", "cuttlesim"},
		{"cps_fft_native", "fft", "native"},
		{"cps_fft_cuttlesim", "fft", "cuttlesim"},
		{"cps_rv32i_native", "rv32i", "native"},
	}
)

// The interactive session lives in cycles [floor, cap].
var bounds = scriptBounds{start: 2048, floor: 1024, cap: 12_288}

const (
	setupReps     = 5   // setup_s is the median of this many cold starts
	warmOps       = 40  // untimed interactive ops before measuring
	minLatSamples = 100 // p90 needs ten samples beyond it
	maxReps       = 4   // the most samples any cell takes per round
)

type benchState struct {
	cfg      config
	spec     workloadSpec
	work     string
	storeDir string
	ncache   string // the run's warm native compile cache
	setup    []float64
	sys      *system
	tr       *tracer
	cells    []*cell
	rv, fft  *shadow
	it       *interactive
	tally    tally
	rounds   int // rounds measured
}

func newBench(ctx context.Context, cfg config, work string) (_ *benchState, err error) {
	b := &benchState{cfg: cfg, spec: workloads[cfg.workload], work: work}
	defer func() {
		if err != nil {
			b.close()
		}
	}()
	b.storeDir = filepath.Join(work, "store")
	// Set-up: daemon and router start plus a cold native compile of both
	// designs, each time into a fresh compile cache at a fresh path (the
	// path is part of the go build cache key, so nothing is reused). The
	// last cache stays warm for the run.
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var ncache string
	for i := 0; i < reps; i++ {
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		ncache = filepath.Join(dir, "ncache")
		d, serr := coldSetup(ctx, dir, ncache)
		if serr != nil {
			return nil, fmt.Errorf("setup: %w", serr)
		}
		b.setup = append(b.setup, d.Seconds())
	}
	b.ncache = ncache
	if err := b.buildCells(); err != nil {
		return nil, err
	}
	if cfg.trace {
		b.tr = &tracer{}
	}
	if b.sys, err = startSystem(b.storeDir, ncache, b.tr); err != nil {
		return nil, err
	}
	sb := bounds
	sb.nregs = b.fft.nregs
	b.it = &interactive{c: b.sys.routed, sh: b.fft, tr: b.tr, tally: &b.tally, script: newScript(cfg.seed, sb)}
	if err := b.it.open(ctx, bounds.start); err != nil {
		return nil, err
	}
	if err := b.it.run(ctx, warmOps, false); err != nil {
		return nil, err
	}
	return b, nil
}

func (b *benchState) close() {
	if b.sys != nil {
		if err := b.sys.close(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: shutdown: %v\n", err)
		}
	}
}

// coldSetup times one system start plus native compiles of rv32i and fft
// through the router, then tears the system down.
func coldSetup(ctx context.Context, dir, ncache string) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	sys, err := startSystem(filepath.Join(dir, "store"), ncache, nil)
	if err != nil {
		return 0, err
	}
	var ids []string
	for _, d := range []string{"rv32i", "fft"} {
		info, cerr := sys.routed.Create(ctx, server.CreateRequest{Catalog: d, Engine: "native"})
		if cerr != nil {
			err = cerr
			break
		}
		ids = append(ids, info.ID)
	}
	el := time.Since(t0)
	for _, id := range ids {
		if derr := sys.routed.Delete(ctx, id); derr != nil && err == nil {
			err = derr
		}
	}
	if cerr := sys.close(); cerr != nil && err == nil {
		err = cerr
	}
	return el, err
}

// buildCells sizes the four cells for this workload and runs the reference
// runs that check them: the rv32i run to its testbench halt (which also
// guards the budgets), and the fft run whose rows back the interactive
// session.
func (b *benchState) buildCells() error {
	budgets := simBudgets
	if b.spec.debug {
		budgets = debugBudgets
	}
	var rvNeed, fftNeed []uint64
	rvLimit, fftLimit := uint64(0), bounds.cap
	for _, co := range cellOrder {
		bu := budgets[co.metric]
		c := &cell{metric: co.metric, design: co.design, engine: co.engine, debug: b.spec.debug,
			warm: bu[0], budget: bu[1], reps: int(bu[2])}
		b.cells = append(b.cells, c)
		if co.design == "rv32i" {
			rvNeed = append(rvNeed, c.end())
			if c.debug && c.end() > rvLimit {
				rvLimit = c.end()
			}
		} else {
			fftNeed = append(fftNeed, c.end())
			if c.debug && c.end() > fftLimit {
				fftLimit = c.end()
			}
		}
	}
	var err error
	if b.rv, err = runShadow("rv32i", rvLimit, rvNeed, true); err != nil {
		return err
	}
	if b.rv.halt == 0 {
		return fmt.Errorf("rv32i testbench did not halt within %d cycles", haltBudget)
	}
	if b.fft, err = runShadow("fft", fftLimit, fftNeed, false); err != nil {
		return err
	}
	for _, c := range b.cells {
		sh := b.fft
		if c.design == "rv32i" {
			sh = b.rv
			if err := checkBudget(c.design, c.end(), sh.halt); err != nil {
				return err
			}
		}
		if c.debug {
			if c.cond, err = sh.breakCondition(c.end()); err != nil {
				return err
			}
		}
	}
	// Only the rows the interactive loop reads stay live.
	b.rv.rows = nil
	b.rv.digests = nil
	return nil
}
