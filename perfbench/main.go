// Command perfbench is cuttlego's end-to-end benchmark. It boots an
// in-process ksimd daemon with a router in front of it, drives them over
// loopback HTTP with kclient from one client goroutine, checks every answer
// against an in-process reference run, and prints one JSON result line.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	bash perfbench/run.sh --workload sim|debug --seed N --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics instead, timed by calling each layer's public functions, plus the
// cost of the tracing itself. NOTES.md explains the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "sim or debug")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 prints per-layer metrics instead of end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() != 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown workload %q (want sim or debug)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	return cfg, nil
}

func main() {
	// One P: with one client in a closed loop, the client, router and
	// daemon take turns anyway, and a second P would spin looking for work
	// at every wake-up, CPU time that lands in the measured op by a
	// different amount in every run. Child processes keep their default.
	runtime.GOMAXPROCS(1)
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	work, err := os.MkdirTemp(filepath.Join(".bench_build"), "perfbench-run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	res, err := run(context.Background(), cfg, work, os.Stdout)
	if rerr := os.RemoveAll(work); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	n      int
	spread string // the within-run quartiles of the samples, for the report
}

// sampled is the metric v over samples xs, with their quartiles for the
// report.
func sampled(v float64, unit string, xs []float64) metric {
	m := metric{Value: v, Unit: unit, n: len(xs)}
	if len(xs) >= 4 {
		m.spread = fmt.Sprintf("  q1..q3 %.4f..%.4f", percentile(xs, 25), percentile(xs, 75))
	}
	return m
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report prints the metrics as a table with sample counts, then the run
// facts, ahead of the result line.
func report(w io.Writer, ms map[string]metric, f facts) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := ms[k]
		fmt.Fprintf(w, "%-44s %14.4f %-8s n=%d%s\n", k, m.Value, m.Unit, m.n, m.spread)
	}
	b, _ := json.Marshal(f)
	fmt.Fprintf(w, "facts %s\n", b)
}

func run(ctx context.Context, cfg config, work string, out io.Writer) (*result, error) {
	t0 := time.Now()
	steal0, stealOK := stealTicks()
	b, err := newBench(ctx, cfg, work)
	if err != nil {
		return nil, err
	}
	defer b.close()
	var ms map[string]metric
	if cfg.trace {
		ms, err = b.traced(ctx)
	} else {
		ms, err = b.endToEnd(ctx)
	}
	if err != nil {
		return nil, err
	}
	want := endToEndNames
	if cfg.trace {
		want = perLayerNames
	}
	if err := checkMetrics(ms, want); err != nil {
		if b.tally.failed == 0 {
			return nil, err
		}
		// A failed check already makes the result incorrect; report what
		// was measured and zero for what could not be.
		for _, k := range want {
			if m, ok := ms[k]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				ms[k] = metric{Unit: m.Unit}
			}
		}
	}
	f := hostFacts(b.storeDir)
	f.Rounds = b.rounds
	f.WallS = time.Since(t0).Seconds()
	if steal1, ok := stealTicks(); ok && stealOK {
		f.StealS = float64(steal1-steal0) / 100
		f.StealPct = 100 * f.StealS / (f.WallS * float64(runtime.NumCPU()))
	}
	report(out, ms, f)
	if b.tally.attempted == 0 {
		return nil, errors.New("no operations attempted")
	}
	return &result{
		Correct:   b.tally.failed == 0,
		Attempted: b.tally.attempted,
		Failed:    b.tally.failed,
		Metrics:   ms,
	}, nil
}
