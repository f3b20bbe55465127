package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// round samples every cell its reps times, then runs one interactive
// burst. A failed check is tallied; a failed cell sample is skipped, but a
// failed interactive op ends the run, since the session no longer follows
// the script.
func (b *benchState) round(ctx context.Context) error {
	runtime.GC()
	// Repeated samples of a cell are spread over the round, not bunched.
	for rep := 0; rep < maxReps; rep++ {
		for _, c := range b.cells {
			if rep >= c.reps {
				continue
			}
			sh := b.fft
			if c.design == "rv32i" {
				sh = b.rv
			}
			if err := c.sample(ctx, b.sys.routed, sh); err != nil {
				b.tally.fail(err)
			} else {
				b.tally.ok()
			}
		}
	}
	return b.it.run(ctx, b.spec.burst, true)
}

// measure runs rounds for the configured seconds, then interactive bursts
// alone until every latency series can report its p90.
func (b *benchState) measure(ctx context.Context, d time.Duration) error {
	start := time.Now()
	for ; b.rounds < 2 || time.Since(start) < d; b.rounds++ {
		if err := b.round(ctx); err != nil {
			return err
		}
	}
	for b.rarestOpSamples() < minLatSamples {
		if time.Since(start) > 3*d {
			return fmt.Errorf("interactive loop too slow: %d samples of its rarest op after %v", b.rarestOpSamples(), time.Since(start))
		}
		if err := b.it.run(ctx, b.spec.burst, true); err != nil {
			return err
		}
	}
	return nil
}

// reportedOps are the op kinds with latency metrics; only they need enough
// samples for a p90.
var reportedOps = []opKind{opStep, opFork, opQuery, opReverse}

func (b *benchState) rarestOpSamples() int {
	n := len(b.it.lat[reportedOps[0]])
	for _, k := range reportedOps[1:] {
		n = min(n, len(b.it.lat[k]))
	}
	return n
}

func (b *benchState) endToEnd(ctx context.Context) (map[string]metric, error) {
	err := b.measure(ctx, time.Duration(b.cfg.seconds)*time.Second)
	if err != nil && b.tally.failed == 0 {
		return nil, err
	}
	ms := map[string]metric{
		"setup_s": sampled(median(b.setup), "s", b.setup),
	}
	for _, c := range b.cells {
		ms[c.metric] = sampled(iqm(c.cps), "cycles/cpu-s", c.cps)
	}
	for _, k := range reportedOps {
		l := b.it.lat[k]
		ms[opNames[k]+"_p50_ms"] = sampled(median(l), "cpu-ms", l)
		if p, ok := tailPercentile(len(l)); ok && p >= 90 {
			ms[opNames[k]+"_p90_ms"] = metric{Value: percentile(l, 90), Unit: "cpu-ms", n: len(l)}
		} else if b.tally.failed == 0 {
			return nil, fmt.Errorf("%s: %d samples cannot support a p90", opNames[k], len(l))
		}
	}
	ms["ops_s"] = sampled(median(b.it.rates), "1/cpu-s", b.it.rates)
	heap, err := b.endHeapMB(ctx)
	if err != nil {
		b.tally.fail(err)
	} else {
		b.tally.ok()
	}
	ms["heap_mb"] = metric{Value: heap, Unit: "MB", n: 1}
	ms["ok_ratio"] = metric{Value: b.tally.okRatio(), Unit: "ratio", n: b.tally.attempted}
	for _, k := range unsteadyNames {
		delete(ms, k)
	}
	return ms, nil
}

// endCycle is where the interactive session ends before heap_mb is read,
// so the snapshot ring and the recorder's open chunk have the same size in
// every run.
const endCycle = 4096

// endHeapMB brings the interactive session to endCycle, releases what the
// benchmark itself holds (reference runs, script, samples), and returns the
// heap still reachable after two full collections (the second empties the
// sync.Pools the first only moves to their victim caches): the daemon,
// router and client with the session and its live forks.
func (b *benchState) endHeapMB(ctx context.Context) (float64, error) {
	err := b.it.moveTo(ctx, endCycle)
	b.rv, b.fft, b.it.sh, b.it.script, b.setup = nil, nil, nil, nil, nil
	b.it.lat, b.it.rates = [numOpKinds]samples{}, nil
	for _, c := range b.cells {
		c.cps = nil
	}
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6, err
}
