package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"

	"cuttlego/internal/kclient"
	"cuttlego/internal/server"
)

// tally counts operations attempted and failed (an error, or an answer
// that disagrees with the in-process reference).
type tally struct {
	attempted, failed int
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(err error) {
	t.attempted++
	t.failed++
	if t.failed <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", err)
	}
}

func (t *tally) okRatio() float64 { return float64(t.attempted-t.failed) / float64(t.attempted) }

// cell is one engine x design throughput measurement through the daemon:
// each sample is a fresh session, an untimed warm-up step, then one timed
// step of a fixed cycle budget.
type cell struct {
	metric string // end-to-end metric name
	design string // catalogue design
	engine string // "cuttlesim" or "native"
	warm   uint64
	budget uint64
	reps   int // samples per round
	// debug mode: recording on and a breakpoint on cond, which the
	// reference run shows first holds at cycle warm+budget.
	debug bool
	cond  string
	cps   []float64 // per sample
}

func (c *cell) end() uint64 { return c.warm + c.budget }

// sample runs one session through the routed client and appends its
// simulated cycles per CPU second (of the daemon, router, client and the
// session's native simulator).
func (c *cell) sample(ctx context.Context, cl *kclient.Client, sh *shadow) (err error) {
	req := server.CreateRequest{Catalog: c.design}
	if c.engine == "native" {
		req.Engine = "native"
	}
	info, err := cl.Create(ctx, req)
	if err != nil {
		return fmt.Errorf("%s: create: %w", c.metric, err)
	}
	defer func() {
		if derr := cl.Delete(ctx, info.ID); derr != nil && err == nil {
			err = fmt.Errorf("%s: delete: %w", c.metric, derr)
		}
	}()
	if c.debug {
		if _, err := cl.TraceRecord(ctx, info.ID, true); err != nil {
			return fmt.Errorf("%s: record: %w", c.metric, err)
		}
		if err := cl.Break(ctx, info.ID, server.BreakRequest{Cond: c.cond}); err != nil {
			return fmt.Errorf("%s: break: %w", c.metric, err)
		}
	}
	warm, err := cl.Step(ctx, info.ID, c.warm)
	if err != nil {
		return fmt.Errorf("%s: warm-up step: %w", c.metric, err)
	}
	if warm.Ran != c.warm || warm.Stopped != "" {
		return fmt.Errorf("%s: warm-up step ran %d of %d cycles (stopped %q)", c.metric, warm.Ran, c.warm, warm.Stopped)
	}
	ask := c.budget
	if c.debug {
		ask = 2 * c.budget // the breakpoint, not the budget, ends the step
	}
	runtime.GC() // so no collection that set-up triggered runs inside the timed step
	c0 := cpuNow()
	res, err := cl.Step(ctx, info.ID, ask)
	cpu := cpuNow() - c0
	if err != nil {
		return fmt.Errorf("%s: step: %w", c.metric, err)
	}
	if res.Ran != c.budget || res.Cycle != c.end() {
		return fmt.Errorf("%s: step ran %d cycles to cycle %d, want %d to %d (stopped %q)", c.metric, res.Ran, res.Cycle, c.budget, c.end(), res.Stopped)
	}
	if c.debug != strings.HasPrefix(res.Stopped, "condition") {
		return fmt.Errorf("%s: step stopped %q", c.metric, res.Stopped)
	}
	after, err := cl.Info(ctx, info.ID)
	if err != nil {
		return fmt.Errorf("%s: info: %w", c.metric, err)
	}
	if want := fmt.Sprintf("%016x", sh.at[c.end()]); after.Cycle != c.end() || after.Digest != want {
		return fmt.Errorf("%s: digest %s at cycle %d, reference %s at cycle %d", c.metric, after.Digest, after.Cycle, want, c.end())
	}
	c.cps = append(c.cps, float64(c.budget)/cpu.Seconds())
	return nil
}
