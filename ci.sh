#!/bin/sh
# Tier-1+ gate for this repository. Run before every merge:
#
#   ./ci.sh
#
# Stages:
#   1. go vet       — static checks across the module
#   2. gofmt        — no file under internal/, cmd/ or examples/ may
#                     differ from gofmt's output
#   3. go build     — everything compiles, including cmds and examples
#   4. chaos smoke  — the bounded (-short) chaos soak first: randomized
#                     fault schedules against the cross-layer invariants,
#                     cheap enough to fail fast before the long stages
#   5. wall-clock gate — no simulator code may read the host clock:
#                     trace timestamps come from simulated picoseconds
#                     only, so any time.Now() inside internal/ breaks
#                     byte-reproducible traces and fails the build;
#                     and the overlap gate: a memory-level-parallelism
#                     constant or a division by one may appear in
#                     non-test Go only in internal/memsys, which owns
#                     the bulk-access overlap rule (DESIGN §7); and the
#                     soft-deflate gate: a compress/flate writer may be
#                     built in non-test Go only in internal/core, whose
#                     SoftCompressPage is the one software page
#                     producer, and a compress/flate reader only in
#                     internal/deflate, whose Decompress is the one
#                     decoder (DESIGN §9)
#   6. race tests   — the concurrency-bearing packages (the runner pool
#                     and its SameBytes determinism helper, the event kernel, the offload/nettcp layers the
#                     server model drives from pool workers, the fleet
#                     dispatcher's determinism gate, telemetry
#                     tracing under the parallel runner, and the DSAs'
#                     datapath workers in core with the aesgcm engine
#                     and the deflate encoder they run) under -race;
#                     then core's settle, hand-off and hint tests at
#                     GOMAXPROCS=1, where the datapath pool has no
#                     worker, every hint is dropped and every record
#                     runs inline
#   7. golden trace — the Perfetto exporter against its committed golden
#                     file plus the full-stack byte-reproducibility gate
#   8. tracestat golden — the trace analyzers (profile tree, critical
#                     path) against their committed golden table, plus
#                     the serial/pooled/GOMAXPROCS=2 byte-identity gate
#                     and the `go tool pprof` acceptance check
#   9. shard gate   — the sharded PDES engine: the serial-reference vs
#                     parallel-epoch vs GOMAXPROCS=2 byte-identity gates
#                     (engine, full cluster, fault-injected soak) under
#                     -race, plus structural grep gates: goroutines in
#                     internal/sim only in the sharded executor, no
#                     package-level mutable state in the shard code
#  10. KPI bench    — the pinned deterministic scenarios from
#                     internal/profile, gated against BENCH_baseline.json
#                     (writes BENCH_results.json); re-pin an intended
#                     change with `go run ./cmd/tracestat -bench
#                     -update-baseline`
#  11. go test      — the full suite with a shuffled test order: the
#                     serial-vs-parallel sweep determinism gate plus the
#                     full 200-schedule chaos soak, and -shuffle guards
#                     against inter-test state leaking into results
#
#  12. cluster gate — the replicated tier: the bounded cluster chaos
#                     soak (kills, asymmetric partitions, drain/rejoin
#                     against the linearizability checker) under -race,
#                     the cluster byte-identical-trace and
#                     any-worker-count determinism gates, and the KPI
#                     bench gate (which includes the pinned
#                     cluster-3node scenario)
#
#  13. rdma gate   — the zero-copy peer-DMA data path: the RDMA NIC
#                     and fleet MR-locality tests and the
#                     serial-vs-pooled-vs-GOMAXPROCS=2 byte-identity
#                     gate for the rdma figure under -race, the bounded
#                     RDMA chaos soak (doorbell loss, RNR, MR-unregister
#                     and mid-migration races), and the KPI bench gate
#                     (which includes the pinned rdma-4rank scenario)
#
#  14. workload gate — the production workload suite + SLO autoscaler:
#                     the zipf/KV/embed source unit tests, the arrival
#                     trace determinism gates, the autoscaler hysteresis
#                     tests, the fleet admin-drain/telemetry tests, and
#                     the bounded flash-crowd + rank-fault soak — all
#                     under -race — plus the KPI bench gate (which
#                     includes the pinned kv-4rank/embed-4rank
#                     scenarios)
#
#  15. obs gate   — the observability plane: the series store / alert
#                     engine / flight recorder unit tests under -race,
#                     and the incident soak — the hardened flash-crowd +
#                     rank-fault scenario with alerting and recording
#                     armed — whose run canonical AND every incident
#                     bundle must replay byte-identically serial vs
#                     pooled vs GOMAXPROCS=2
##  16. alloc gate — the steady state allocates nothing: a TLS
#                     cacheline on a kept key schedule, a GCM Open
#                     into a kept buffer, a full
#                     write-queue drain, a TLS source line's rdCAS
#                     through the device into the Scratchpad, all 64
#                     source lines of consecutive compression records
#                     (the encoder run and page framing included), a
#                     whole TLS record from registration to retirement
#                     on pooled device state, a whole HTTPS request
#                     on the serial stack (server, SmartDIMM offload,
#                     TX DMA), a whole compressed HTTP request with its
#                     parse-stage hint live, and a modelled CPU, SmartNIC or
#                     QuickAssist request
#
#  17. benchmod    — bench/ is its own Go module, so the root `go build
#                     ./...` never compiles it: vet and test it in place
#                     (TestBuilderMatchesPinnedRunners pins its workloads
#                     against the KPI bench's pinned runners), so an API
#                     change that breaks bench/ fails here, not only in
#                     `bash bench/run.sh`
#
#  18. examples    — build ./examples/... once and run every binary; a
#                     non-zero exit fails the gate (`go build` alone only
#                     compiles them)
#
# `./ci.sh <stage>` runs one gate alone: bench (the KPI bench — the
# quick loop while tuning performance), shard, cluster, rdma, workload
# (each of these three followed by the KPI bench), obs, alloc, benchmod,
# examples, or fuzz (each
# Fuzz* target run for a bounded 10 s of coverage-guided fuzzing on top
# of the committed seed corpora, which plain `go test` already replays;
# not part of the full gate). An unknown stage name fails with the
# stage list.
set -eu
cd "$(dirname "$0")"

# gate PATTERN [FLAGS] PKG... runs `go test FLAGS -run PATTERN PKG...`,
# but first fails if PATTERN selects no test in one of the packages, or
# if one of its |-alternatives selects no test in any of them: a renamed
# test must fail the gate, not turn it into a silent "no tests to run".
gate() {
	pattern=$1
	shift
	selected=""
	for pkg in $(printf '%s\n' "$@" | grep -v '^-'); do
		names=$(go test -list . "$pkg" | grep '^Test' | grep -E "$pattern" || true)
		if [ -z "$names" ]; then
			echo "ci.sh: -run '$pattern' selects no test in $pkg" >&2
			exit 1
		fi
		selected="$selected $names"
	done
	for alt in $(echo "$pattern" | tr '|' ' '); do
		if ! echo "$selected" | tr ' ' '\n' | grep -qE "$alt"; then
			echo "ci.sh: -run alternative '$alt' selects no test in $*" >&2
			exit 1
		fi
	done
	go test "$@" -run "$pattern"
}

# The targeted test runs, one row each: stage, flags (comma-separated;
# - for none; a NAME=value flag is set in the environment of the row's
# go commands instead of passed to go test), -run pattern, packages. A
# row with pattern - runs every test of its packages with plain
# `go test`; any other row goes through gate. run_stage runs a stage's
# rows in table order.
TESTS='
smoke    -short        -                                                  ./internal/chaos/
race     -race         -                                                  ./internal/runner/... ./internal/sim/ ./internal/offload/ ./internal/nettcp/ ./internal/fleet/ ./internal/telemetry/ ./internal/core/ ./internal/aesgcm/ ./internal/deflate/
race     GOMAXPROCS=1  TestSettle|TestAbortUnsettled|TestAbortQueued|TestHandedOff|TestCompressVerify|TestStaleHint|TestHint|TestUnhinted ./internal/core/
golden   -             TestPerfettoGolden|TestFullStackTraceReproducible  ./internal/telemetry/
golden   -             TestCritPathGolden|TestTracestatByteIdenticalAcrossSchedulers ./internal/experiments/
golden   -             TestGoToolPprofAcceptsExport                       ./internal/profile/
shard    -race         Shard                                              ./internal/sim/ ./internal/fleet/ ./internal/chaos/
cluster  -race,-short  TestClusterSoak|TestClusterScheduleDerivation      ./internal/chaos/
cluster  -race         TestClusterDeterministicAcrossWorkers|TestClusterServesLinearizably ./internal/cluster/
rdma     -race         RDMA                                               ./internal/rdma/ ./internal/fleet/ ./internal/experiments/
rdma     -race,-short  TestRDMASoak|TestRDMASameSeedSameTrace             ./internal/chaos/
workload -race         -                                                  ./internal/workload/ ./internal/autoscale/ ./internal/wrkgen/
workload -race         TestFleetDrainAdmitHeld|TestFleetSetPolicyLive|TestFleetQDepthTelemetry|TestFleetMetricsConcurrentRegistration ./internal/fleet/
workload -race,-short  TestWorkloadSoak                                   ./internal/chaos/
obs      -race         -                                                  ./internal/obs/
obs      -             TestIncidentSoak                                   ./internal/chaos/
alloc    -             TestCachelineZeroAllocs|TestDrainWritesZeroAllocs|TestFeedDSAZeroAllocs|TestCompressRecordZeroAllocs|TestTLSRecordZeroAllocs|TestRequestZeroAllocs|TestCompressedRequestZeroAllocs|TestCPURequestKeepsBuffers|TestOpenZeroAllocs ./internal/aesgcm/ ./internal/memctrl/ ./internal/core/ ./internal/server/ ./internal/offload/
'

run_stage() {
	while read -r stage flags pattern pkgs; do
		[ "$stage" = "$1" ] || continue
		vars=""
		args=""
		for f in $(echo "$flags" | tr ',' ' '); do
			case $f in
			-) ;;
			-*) args="$args $f" ;;
			*) vars="$vars $f" ;;
			esac
		done
		# $vars, $args and $pkgs are deliberately unquoted: each is a
		# word list. The subshell keeps the row's variables to its row.
		if [ "$pattern" = "-" ]; then
			echo "== $stage:$vars go test$args $pkgs"
			(
				[ -z "$vars" ] || export $vars
				go test $args $pkgs
			)
		else
			echo "== $stage:$vars go test$args $pkgs -run '$pattern'"
			(
				[ -z "$vars" ] || export $vars
				gate "$pattern" $args $pkgs
			)
		fi
	done <<EOF
$TESTS
EOF
}

run_bench() {
	echo "== KPI bench gate (BENCH_baseline.json, results in BENCH_results.json)"
	go run ./cmd/tracestat -bench -baseline BENCH_baseline.json -out BENCH_results.json
}

run_shard() {
	run_stage shard

	# Parallel epoch execution must stay confined to the sharded executor:
	# shard-local model code is written single-threaded and relies on it.
	if grep -rn "go func" internal/sim/ --include="*.go" --exclude="*_test.go" --exclude="shard.go"; then
		echo "ci.sh: goroutine outside internal/sim/shard.go — only the epoch executor may spawn" >&2
		exit 1
	fi
	# The shard executor itself must hold no cross-run mutable state:
	# package-level vars would be shared across shards and break the
	# nothing-shared determinism argument.
	if grep -n "^var " internal/sim/shard.go; then
		echo "ci.sh: package-level var in internal/sim/shard.go — shard state must live in ShardedEngine" >&2
		exit 1
	fi
}

run_benchmod() {
	echo "== benchmod: go vet + go test in the bench/ module"
	(cd bench && export GOWORK=off GOPROXY=off && go vet . && go test .)
}

run_examples() {
	echo "== examples: build ./examples/... and run each binary"
	bin=$(mktemp -d)
	go build -o "$bin/" ./examples/...
	for ex in "$bin"/*; do
		echo "-- $(basename "$ex")"
		if ! "$ex" >/dev/null; then
			rm -rf "$bin"
			echo "ci.sh: example $(basename "$ex") failed" >&2
			exit 1
		fi
	done
	rm -rf "$bin"
}

run_fuzz() {
	echo "== fuzz: every Fuzz* target for 10s each"
	for pkg in $(go list ./...); do
		for target in $(go test -list '^Fuzz' "$pkg" | grep '^Fuzz' || true); do
			echo "-- $pkg $target"
			go test -run '^$' -fuzz "^$target\$" -fuzztime=10s "$pkg"
		done
	done
}

run_all() {
	echo "== go vet ./..."
	go vet ./...

	echo "== gofmt -l internal cmd examples"
	unformatted=$(gofmt -l internal cmd examples)
	if [ -n "$unformatted" ]; then
		echo "$unformatted"
		echo "ci.sh: files above are not gofmt-formatted — run gofmt -w on them" >&2
		exit 1
	fi

	echo "== go build ./..."
	go build ./...

	run_stage smoke

	echo "== wall-clock gate (no time.Now() in internal/ or cmd/)"
	# internal/ is absolute: simulator code must use simulated picoseconds.
	# cmd/ may measure host wall-clock only where annotated `wallclock:ok`
	# (the shard-scaling figure, the bench's injected clock).
	if grep -rn "time\.Now()" internal/ --include="*.go"; then
		echo "ci.sh: time.Now() found in internal/ — simulator code must use simulated time" >&2
		exit 1
	fi
	if grep -rn "time\.Now()" cmd/ --include="*.go" | grep -v "wallclock:ok"; then
		echo "ci.sh: unannotated time.Now() in cmd/ — annotate intentional host-clock reads with wallclock:ok" >&2
		exit 1
	fi

	echo "== overlap gate (the MLP rule only in internal/memsys)"
	# Every bulk memory access charges its overlapped latency through
	# internal/memsys (a bulk form or memsys.Overlap): a second MLP
	# constant or division elsewhere would fork the rule.
	if grep -rnE '\b[A-Za-z_]*(MLP|mlp)\b[A-Za-z0-9_ ]*:?=|[^/]/ *[A-Za-z_.]*(MLP|mlp)\b' internal/ cmd/ examples/ --include="*.go" --exclude="*_test.go" | grep -v "^internal/memsys/"; then
		echo "ci.sh: MLP constant or division outside internal/memsys — charge bulk accesses through its bulk forms or memsys.Overlap" >&2
		exit 1
	fi

	echo "== soft-deflate gate (compress/flate writers only in internal/core, readers only in internal/deflate)"
	# core.SoftCompressPage is the one software page producer: a second
	# compress/flate writer elsewhere would fork the CPU baseline's pages.
	if grep -rn "flate\.NewWriter" internal/ cmd/ examples/ --include="*.go" --exclude="*_test.go" | grep -v "^internal/core/"; then
		echo "ci.sh: flate.NewWriter outside internal/core — produce software pages with core.SoftCompressPage" >&2
		exit 1
	fi
	# deflate.Decompress is the one decoder: a second compress/flate
	# reader elsewhere would bypass its pool, limit and ErrCorrupt.
	if grep -rn "flate\.NewReader" internal/ cmd/ examples/ --include="*.go" --exclude="*_test.go" | grep -v "^internal/deflate/"; then
		echo "ci.sh: flate.NewReader outside internal/deflate — inflate with deflate.Decompress" >&2
		exit 1
	fi

	for stage in race golden; do
		run_stage $stage
	done
	run_shard
	for stage in cluster rdma workload obs alloc; do
		run_stage $stage
	done
	run_bench
	run_benchmod
	run_examples

	echo "== go test -shuffle=on ./..."
	go test -shuffle=on ./...

	echo "ci.sh: all gates passed"
}

case "${1:-}" in
"") run_all ;;
bench) run_bench ;;
shard) run_shard ;;
cluster | rdma | workload)
	run_stage "$1"
	run_bench
	;;
obs | alloc) run_stage "$1" ;;
benchmod) run_benchmod ;;
examples) run_examples ;;
fuzz) run_fuzz ;;
*)
	echo "ci.sh: unknown stage '$1' (stages: bench shard cluster rdma workload obs alloc benchmod examples fuzz; no argument runs the full gate)" >&2
	exit 2
	;;
esac
