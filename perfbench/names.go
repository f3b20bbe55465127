package main

import (
	"fmt"
	"math"
)

// endToEndNames are printed by every --trace 0 run, perLayerNames by
// every --trace 1 run; BENCHMARK.json declares the same lists.
var endToEndNames = []string{
	"setup_s",
	"cps_rv32i_cuttlesim", "cps_fft_cuttlesim", "cps_fft_native",
	"step_p50_ms", "step_p90_ms", "fork_p50_ms",
	"query_p50_ms", "query_p90_ms", "reverse_p50_ms", "reverse_p90_ms",
	"ops_s", "heap_mb", "ok_ratio",
}

// unsteadyNames are end-to-end figures whose run-to-run spread exceeded the
// 0.25 bound on the VM the benchmark was built on (NOTES.md). The traced
// run prints them with the per-layer metrics, which carry no bound.
var unsteadyNames = []string{"cps_rv32i_native", "fork_p90_ms"}

var perLayerNames = func() []string {
	names := []string{
		"cuttlesim.ns_per_cycle.rv32i", "cuttlesim.ns_per_cycle.fft",
		"native.ns_per_cycle.rv32i", "native.ns_per_cycle.fft",
		"native.stepn1_us", "native.peekall_us", "native.snapshot_us", "native.build_cold_ms",
		"rtlsim.ns_per_cycle.rv32i", "rtlsim.ns_per_cycle.fft", "interp.ns_per_cycle.fft",
		"debug.cond_eval_ns.rv32i", "debug.cond_eval_ns.fft", "debug.compile_cond_us",
		"tracedb.append_ns_per_row.rv32i", "tracedb.append_ns_per_row.fft", "tracedb.flush_ms",
		"tracedb.query_ms", "tracedb.rows_evaluated_per_query", "tracedb.chunks_scanned_per_query",
		"tracedb.bytes_per_row",
		"sim.overlay_fork_us", "sim.snapshot_marshal_us", "sim.digest_us",
		"server.step_us", "server.fork_us", "server.reverse_us", "server.query_us", "server.regs_us",
		"server.allocs_per_step", "server.heap_bytes_per_fork",
		"kclient.rtt_us", "router.hop_us", "store.checkpoint_disk_ms",
	}
	for _, m := range []string{"cps_rv32i_cuttlesim", "cps_rv32i_native", "cps_fft_cuttlesim", "cps_fft_native",
		"step_p50_ms", "fork_p50_ms", "query_p50_ms", "reverse_p50_ms", "ops_s"} {
		names = append(names, "trace.overhead_pct."+m)
	}
	for k := opKind(0); k < numOpKinds; k++ {
		for _, l := range []string{"client_self_us", "router_self_us", "server_us"} {
			names = append(names, "span."+opNames[k]+"."+l)
		}
	}
	return append(names, unsteadyNames...)
}()

// checkMetrics insists on exactly the declared names, each a finite value.
func checkMetrics(ms map[string]metric, want []string) error {
	for _, k := range want {
		m, ok := ms[k]
		if !ok {
			return fmt.Errorf("metric %s missing", k)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no value (%d samples)", k, m.n)
		}
	}
	if len(ms) != len(want) {
		return fmt.Errorf("%d metrics measured, %d declared", len(ms), len(want))
	}
	return nil
}
