#!/bin/sh
# Tier-1 verification gate: build, static checks, tests, benchmark smoke.
# Run from anywhere; operates on the repository root.
set -eu

cd "$(dirname "$0")/.."

echo "== go build =="
go build ./...

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== operator semantics written once =="
# What an operator computes is defined in internal/interp/kernel.go and
# nowhere else (see DESIGN.md, "Operator semantics"): an engine that
# names a unary op or calls the binary evaluator directly has started a
# second copy.
copies=$(grep -rn 'lang\.OpNeg\|lang\.OpNot\|interp\.Apply(' --include='*.go' \
    internal/machine internal/chanexec | grep -v '_test\.go:' || true)
if [ -n "$copies" ]; then
    echo "operator semantics restated outside the kernel:" >&2
    echo "$copies" >&2
    exit 1
fi

echo "== go test =="
go test ./...

echo "== go test -race =="
go test -race -timeout 5m ./...

echo "== sharded machine -race (W=4) =="
# The sharded engine's byte-exactness suites (worker counts 2, 3, 4, 8,
# forced through the worker pool) under the race detector — the check
# that holds the parallel phases to the shared-nothing discipline
# described in SCALING.md. Also covered by the full -race run above;
# this named step keeps the gate visible and independently runnable.
go test -race -run 'Sharded' -count=1 ./internal/machine ./internal/obs/journal

echo "== concurrent runs of one Dataflow -race =="
# A run lowers the graph into a private flat program and only reads the
# graph itself, so goroutines may share a *Dataflow across all engines
# (sequential, sharded, channels). Also covered by the full -race run
# above; this named step keeps the gate visible and independently
# runnable.
go test -race -run 'ConcurrentRuns' -count=1 .

echo "== chaos smoke matrix =="
go run ./cmd/ctdf chaos -smoke

echo "== checkpoint determinism -race =="
# Checkpoint capture/restore property tests (byte-exact resume at every
# boundary, worker portability, fault-taint refusal) under the race
# detector — the foundation the recovery supervisor rests on
# (see ROBUSTNESS.md). Also covered by the full -race run above; this
# named step keeps the gate visible and independently runnable.
go test -race -run 'Checkpoint' -count=1 ./internal/machine

echo "== recovery matrix =="
# Every transient fault class × engine × schema × workload × workers
# {1,4} must be survived byte-identically by the supervisor, with zero
# leaked goroutines. Regenerates the committed artifact; exit is
# non-zero on any unrecovered cell (see ROBUSTNESS.md).
go run ./cmd/ctdf chaos -recover -json artifacts/recover.json

echo "== vet suite (plain + optimized) =="
# Every committed workload × schema must verify statically clean, both
# as translated and after the graph optimizer — whose certificate vet
# validates rather than trusts (see ANALYSIS.md). The run rewrites the
# committed snapshot artifacts/vet.json, which must come out unchanged:
# a verifier change that moves any verdict shows up as a diff here.
go run ./cmd/ctdf vet -suite -optimize -jsonfile artifacts/vet.json
git diff --exit-code artifacts/vet.json

echo "== replay divergence gate =="
# Record and replay every serializable workload × schema, plain and
# optimized, at worker counts 1 and 4: the machine is deterministic, so
# every journal must reproduce with zero divergences
# (see OBSERVABILITY.md).
go run ./cmd/ctdf replay -suite

echo "== pprof export acceptance =="
# The hand-rolled profile.proto encoding must be accepted by go tool pprof.
go run ./cmd/ctdf trace -workload running-example -latency 4 \
    -pprof /tmp/ctdf-verify.pprof.pb.gz >/dev/null
go tool pprof -raw /tmp/ctdf-verify.pprof.pb.gz >/dev/null
rm -f /tmp/ctdf-verify.pprof.pb.gz

echo "== benchmark smoke =="
go test -run=NONE -bench='BenchmarkE11|BenchmarkObs|BenchmarkTelemetry|BenchmarkVet|BenchmarkMachineRun|BenchmarkCompile' -benchtime=1x . ./internal/vet ./internal/machine

echo "== /metrics endpoint smoke =="
# Serve the telemetry registry over real HTTP, run an instrumented
# sharded workload, scrape /metrics, check OpenMetrics framing, and
# require zero leaked goroutines after Close (see OBSERVABILITY.md).
go test -run 'TestMetricsHTTPSmoke' -count=1 .

echo "== bench trajectory gate =="
# Fails when a steady-state cell's allocs/op regresses beyond tolerance
# against the committed BENCH_machine.json (see PERFORMANCE.md), when
# the sharded machine's worker-scaling matrix falls below the host-aware
# fires/sec floors (see SCALING.md), or when an optimized cell takes
# more cycles / fires more operators than its unoptimized counterpart
# (the graph-optimizer non-regression gate, bench.OptGate), or when the
# telemetry-enabled engine falls below TelemetryOverheadFloor of the
# uninstrumented throughput (the instrumentation-overhead tripwire,
# bench.TelemetryGate; see OBSERVABILITY.md).
go run ./cmd/ctdf bench -smoke -cpu 1,4

echo "== OK =="
