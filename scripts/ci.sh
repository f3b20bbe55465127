#!/usr/bin/env bash
# CI entry point: formatting, vet, build, the full test suite, and a short
# benchmark smoke pass (100 iterations per Figure 1 cell — enough to catch
# an engine that crashes or hangs under the bench harness, not a timing
# gate). Run from anywhere; it cds to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== race: parallel bench runner"
go test -race -run 'Parallel|Ctx|Fuzz' ./internal/bench ./internal/sim

echo "== race: parallel lockstep (intra-design engines, workers 1/2/4/8)"
# Both parallel tiers — BSP-sharded rtlsim levels and conflict-free
# Cuttlesim rule groups — sweep every zoo design at every pool width under
# the race detector; digests must match the sequential engines exactly.
go test -race -run 'Parallel' ./internal/rtlsim ./internal/cuttlesim

echo "== race: ksimd concurrent sessions"
go test -race -run 'TestConcurrentSessions|TestSessionDurability|TestEviction|TestParallelEngineConfig' ./internal/server

echo "== race: fault injection, robustness, client retries"
# The whole fault-injection harness and the retrying client run under the
# race detector, plus the server's failure-path tests: torn writes,
# corrupt-checkpoint fallback, engine-panic quarantine, the step watchdog,
# load shedding, and idempotent replay.
go test -race ./internal/faultinj ./internal/kclient ./internal/router
go test -race -run 'Fault|Torn|Corrupt|Quarantine|Wedge|Shedding|Idempotent|RecoverStore' ./internal/server

echo "== race: fleet — CoW forks, export/import parity gates, migration faults"
# The copy-on-write fork paths, the export→import digest+cycle equality
# gate, source-death re-homing, and the leak audit all run under the race
# detector; fork parity is checked from 8 concurrent clients.
go test -race -run 'TestFork|TestExport|TestImport|TestMigrationSource|TestFleetLeak|TestIdemKey' ./internal/server

echo "== race: trace store + DAP — chunked recording, queries, time travel"
# The full tracedb suite (append/resume/truncate, index skipping, VCD
# re-emit, torn-write recovery) and the DAP adapter's scripted sessions
# against a local daemon and a routed fleet run under the race detector,
# plus the server's recording lifecycle: record across restart, fork
# diffing, and durable fork checkpoints. Watched stepping (recording and
# breakpoints in batched chunks) is held to unwatched runs on every engine,
# and the compiled breakpoint predicate to the interp probe.
go test -race ./internal/tracedb ./internal/dap
go test -race -run 'TestTrace|TestForkDurable|TestWatched' ./internal/server
go test -race -run 'Compiled' ./internal/debug

echo "== fuzz smoke (5s per target)"
go test ./internal/lang -run='^$' -fuzz='^FuzzLexer$' -fuzztime=5s
go test ./internal/lang -run='^$' -fuzz='^FuzzParser$' -fuzztime=5s
go test ./internal/lang -run='^$' -fuzz='^FuzzElaborate$' -fuzztime=5s
go test ./internal/bench -run='^$' -fuzz='^FuzzLockstep$' -fuzztime=5s
go test ./internal/bench -run='^$' -fuzz='^FuzzStallLockstep$' -fuzztime=5s
go test ./internal/difftest -run='^$' -fuzz='^FuzzDifftest$' -fuzztime=5s
go test -race ./internal/difftest -run='^$' -fuzz='^FuzzParallelLockstep$' -fuzztime=5s
go test ./internal/sim -run='^$' -fuzz='^FuzzSnapshotUnmarshal$' -fuzztime=5s
go test ./internal/server -run='^$' -fuzz='^FuzzServerRequest$' -fuzztime=5s
go test ./internal/tracedb -run='^$' -fuzz='^FuzzParseQuery$' -fuzztime=5s
go test ./internal/debug -run='^$' -fuzz='^FuzzCompiledCondition$' -fuzztime=5s

echo "== kdiff generative sweep (fixed seeds, all engines, shrink on failure)"
# Every engine in the matrix must track the reference interpreter in
# lockstep over 200 generated designs; any divergence is shrunk and written
# to the temp dir for the log.
go run ./cmd/kdiff -seed 1 -count 200 -cycles 200 -engines all -o "$(mktemp -d)"

echo "== kdiff regression gate (examples/regress + Case Study 1 deadlock)"
# The committed corpus is covered by TestRegressCorpus in go test; here CI
# additionally asserts the injected msi-buggy dropped-ack deadlock stays
# detectable through the CLI's stall oracle.
go run ./cmd/kdiff -cycles 2000 -engines interp \
    -progress c0_ops_done,c1_ops_done -stall 200 -check 'p_state==1,c0_ops_done>=1' \
    -expect-bug -o "$(mktemp -d)" msi-buggy

echo "== bench smoke (Fig1, 100x)"
go test -run='^$' -bench=Fig1 -benchtime=100x .

echo "== quick-bench smoke (kbench -json, digest gate)"
# Two designs through the whole engine grid (static and activity levels
# included); -digest-check fails the run if any two engines disagree on the
# final register state.
go run ./cmd/kbench -json "$(mktemp)" -designs collatz,idle -digest-check -cycles 2000 -parallel 0 -workers 4

echo "== scaling smoke (kbench -scaling, digest parity across pool widths)"
# The scaling sweep enforces digest parity unconditionally: every engine at
# every width must land on the same final state per design.
go run ./cmd/kbench -scaling -json "$(mktemp)" -designs collatz,pstress -cycles 2000

echo "== native tier: build-cache smoke + digest gate (kbench -engines native)"
# collatz through the AOT grid on a throwaway compile cache: one cold go
# build, one warm cache hit, and unconditional digest parity between the
# compiled subprocess and the in-process engines.
go run ./cmd/kbench -engines native -designs collatz -cycles 2000 -json "$(mktemp)"

echo "== native tier: lockstep gate over the zoo (subprocess vs interp)"
# Every standalone zoo design runs compiled under the supervisor in
# cycle-by-cycle lockstep with the reference interpreter; the differential
# net repeats the gate over generated designs (most of which exercise the
# unsupported-design skip path).
go test -run 'TestLockstep' ./internal/native
go test -run 'TestNativeSpec' ./internal/difftest

echo "== native tier: ksimd promotion smoke (tier flip, digest parity, reap)"
# A hot cuttlesim session must promote onto a compiled binary with no
# observable state change, demote back in-process when the binary is
# SIGKILLed mid-step, and a closing daemon must leave no orphan subprocess.
go test -run 'TestPromotionDigestParity|TestPromotedSessionDemotesOnCrash|TestCloseReapsSubprocesses' ./internal/server

echo "== ksimd durability smoke (create, step, checkpoint, restart, restore)"
# Builds the daemon, drives it over HTTP on an ephemeral port, kills it
# mid-session, restarts it over the same store, and asserts the resumed
# run's digest matches an uninterrupted in-process one.
go run ./scripts/ksimd-smoke

echo "== ksimd crash gate (3x SIGKILL under chaos load, race build)"
# Race-built daemon, killed -9 under kbench -chaos load three times; after
# each restart every acknowledged checkpoint must resurrect with its
# promised digest and keep simulating in lockstep with an in-process
# replay. See scripts/ksimd-crash.sh.
RACE=1 bash scripts/ksimd-crash.sh

echo "== ksimd fleet smoke (3 backends + router, swarm load, 1 migration)"
# A 3-backend fleet behind ksimd -router under kbench -swarm: routed
# creates, copy-on-write fork storm, one forced live migration. Gated on
# StateDigest parity across every fork and the migration, zero failed
# requests, and clean shutdown of all four processes. See
# scripts/ksimd-swarm.sh.
bash scripts/ksimd-swarm.sh

echo "== kdap smoke (DAP session vs local backend and routed fleet)"
# Real processes end to end: two ksimd backends plus a router over a shared
# store, a kdap bridge in TCP mode, and a scripted DAP client — attach,
# conditional breakpoint, continue, trace-query evaluate, stepBack,
# reverseContinue — run against a backend directly and through the router.
bash scripts/kdap-smoke.sh

echo "CI OK"
