#!/bin/sh
# ci.sh — the repository's full verification gate. Run from the module
# root. Every step must pass; the script stops at the first failure.
#
#   build         go build ./...
#   main tests    every main package in the module (commands under
#                 cmd/) has test files of its own: a program nothing
#                 runs under `go test` is one nothing checks
#   vet           go vet ./...
#   unroller-vet  the project's own analyzers (see internal/analysis):
#                 determinism, hotpath, wirewidth, errctx, nodeps,
#                 lockscope, deadline, commitorder, atomicfield,
#                 directive — exit 1 on findings, 2 on load errors.
#                 Run three ways: the module driver (text), the driver's
#                 -json mode checked against the stable empty shape, and
#                 as a `go vet -vettool=` unitchecker so the fact
#                 transport through .vetx files stays honest
#   race tests    go test -race ./...  (includes the concurrency
#                 regression tests in internal/core and
#                 internal/dataplane, and the churn/scenario suite —
#                 worker-invariance under fault injection runs under
#                 the race detector every time)
#   collector e2e a second, explicit race-enabled run of the collectord
#                 end-to-end suite (16 concurrent clients streaming a
#                 scenario through the framed TCP protocol, connection
#                 kills, exact aggregate accounting), all at the
#                 production shard-queue depth, including the seeded
#                 chaosnet gate (latency, fragmented writes, mid-frame
#                 resets — accounting must stay exact), the
#                 back-pressure tests (with the shard workers held, a
#                 reader waits for queue room and drops nothing,
#                 DisconnectAll and Shutdown wake it, a multi-connection
#                 flood grows a ring, every frame lands once) and the
#                 in-package journal kill-recover property, whose
#                 stream floods the queues past where they once shed
#                 and whose live admission totals must equal the
#                 recovered ones — the service gate
#   kill-recover  race-enabled run of the process-level crash test: a
#                 journaled collectord SIGKILLed mid-ingest, restarted
#                 on the same journal directory, final accounting shows
#                 every event ingested exactly once and delivered to a
#                 controller, at the default queue depth. Every collectord
#                 is a cluster node (a standalone one is a cluster of
#                 one), so this exercises the node bootstrap path:
#                 staged replay, peerless reconcile, post-commit
#                 rotation. The merged daemon test (1-node and 3-node
#                 runs, admin endpoints, drop-free drain) rides along
#   cluster e2e   race-enabled run of the collectord cluster suite
#                 (internal/cluster): 3 journaled nodes under seeded
#                 SWIM membership, a node killed mid-churn plus an
#                 asymmetric partition, the killed node restarted on
#                 its journal and reconciled against the peers that
#                 took over its partitions — the cluster-wide
#                 exactly-once identity (sent = ingested + dropped,
#                 no double-counting) must hold exactly
#   oracle gate   the cross-plane verification oracle under -race:
#                 every named scenario at 1/4/16 workers, reconciling every
#                 Unroller detection against static FIB ground truth —
#                 zero unexplained false positives, zero missed loops
#                 in telemetry-carrying corruption-free epochs,
#                 confusion matrices identical at every worker count —
#                 plus the multi-seed property sweep (Theorem 1 bound
#                 on every confirmed detection, incremental FIB mirror
#                 ≡ from-scratch snapshot at every epoch), and the
#                 internal/verify oracle tests: incremental truth ≡ a
#                 full classification of a fresh snapshot at every
#                 epoch of a torus churn run (route deltas, link flap,
#                 restart), report reuse for untouched destinations,
#                 and a Clear for an unknown destination as a no-op
#   fuzz smoke    5s of each bitpack fuzz target, of the Unroller
#                 header decoder and visit-sequence targets, of the
#                 distance-vector engine against its from-scratch
#                 reference, of the shortest-path FIB installer
#                 against its reference and of journal recovery
#                 against its reference recovery, and 10s
#                 each of the packet wire-format, collector
#                 report-frame, journal segment, and static FIB
#                 verifier targets (`-fuzz
#                 Fuzz` would refuse to run because several targets
#                 match, so each is invoked by exact name)
#   perfbench     the benchmark harness is a module of its own, so the
#                 root `go build ./...` never compiles it: vet and test
#                 it in place, then run each workload (fwd-fattree32,
#                 churn-microloop, ingest-journal) for 1 s through
#                 perfbench/run.sh; its last line must report
#                 "correct":true. Then one 6 s traced run
#                 (`--trace 1`), which makes the three traced passes
#                 (ingest-journal, fwd-fattree32, churn-microloop) and
#                 fails a pass whose layer spans cover less of its
#                 timed region than the workload's margin; it must
#                 exit 0 and report "correct":true
#   bench smoke   100 ms of the traffic-engine (workers swept up to
#                 GOMAXPROCS) and network-send benchmarks, one
#                 iteration each of journal append, of a snapshot
#                 rotation over 4 shards x 32768 flows, of a restart
#                 on a fixed multi-segment journal and of a
#                 distance-vector isolate/restore cycle on a 12x12
#                 torus (proof those paths stay runnable; not logged),
#                 plus 2000-iteration collector-ingest (plain and
#                 journaled) and cluster-ingest runs that ARE
#                 measurements. The traffic-engine, collector-ingest,
#                 and cluster-ingest lines are appended to the
#                 checked-in BENCH_collector.json via
#                 cmd/unroller-benchlog, which fails the gate if a
#                 gated entry is missing or its Mpps regressed >20%
#                 against the last checked-in entry
set -eu

cd "$(dirname "$0")"

echo "==> go build ./..."
go build ./...

echo "==> every main package has tests"
untested="$(go list -f '{{if and (eq .Name "main") (not .TestGoFiles)}}{{.ImportPath}}{{end}}' ./... | grep . || true)"
if [ -n "$untested" ]; then
	echo "main packages without test files:" >&2
	echo "$untested" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> unroller-vet ./... (module driver)"
go run ./cmd/unroller-vet ./...

echo "==> unroller-vet -json ./... (stable empty shape)"
vet_json="$(go run ./cmd/unroller-vet -json ./...)"
if [ "$vet_json" != "$(printf '{\n  "findings": []\n}')" ]; then
	echo "unroller-vet -json: findings or unstable shape:" >&2
	echo "$vet_json" >&2
	exit 1
fi

echo "==> go vet -vettool (unitchecker mode, facts via .vetx)"
vettool_dir="$(mktemp -d)"
trap 'rm -rf "$vettool_dir"' EXIT
go build -o "$vettool_dir/unroller-vet" ./cmd/unroller-vet
go vet -vettool="$vettool_dir/unroller-vet" ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> collector e2e under race (16 clients, kills, chaosnet, journal recovery, exact accounting)"
go test -race -run 'TestCollector|TestRecovery' -count 1 ./internal/collectorsvc

echo "==> collectord kill-recover under race (SIGKILL mid-ingest, exactly-once across restart)"
go test -race -run 'TestCollectordKillRecover|TestRun' -count 1 ./cmd/unroller-collectord

echo "==> cluster e2e under race (3 nodes, node kill + asymmetric partition, reshard, exactly-once cluster-wide)"
go test -race -run 'TestCluster|TestAgents|TestAsymmetric|TestFullPartition' -count 1 ./internal/cluster

echo "==> oracle gate under race (every scenario x 1/4/16 workers + multi-seed property sweep + incremental truth)"
go test -race -run 'TestOracle' -count 1 ./internal/scenario ./internal/verify

echo "==> fuzz smoke (internal/bitpack, 5s per target)"
go test -run '^$' -fuzz '^FuzzReader$' -fuzztime 5s ./internal/bitpack
go test -run '^$' -fuzz '^FuzzWriterRoundTrip$' -fuzztime 5s ./internal/bitpack

echo "==> fuzz smoke (internal/core header decoder and visit sequences, 5s per target)"
go test -run '^$' -fuzz '^FuzzDecodeHeader$' -fuzztime 5s ./internal/core
go test -run '^$' -fuzz '^FuzzVisitSequence$' -fuzztime 5s ./internal/core

echo "==> fuzz smoke (internal/routing incremental engine vs from-scratch reference, 5s)"
go test -run '^$' -fuzz '^FuzzStepReference$' -fuzztime 5s ./internal/routing

echo "==> fuzz smoke (internal/dataplane shortest-path installer vs reference, 5s)"
go test -run '^$' -fuzz '^FuzzInstallShortestPaths$' -fuzztime 5s ./internal/dataplane

echo "==> fuzz smoke (internal/collectorsvc journal recovery vs reference recovery, 5s)"
go test -run '^$' -fuzz '^FuzzRecoverReference$' -fuzztime 5s ./internal/collectorsvc

echo "==> fuzz smoke (internal/dataplane packet wire format, 10s)"
go test -run '^$' -fuzz '^FuzzPacket$' -fuzztime 10s ./internal/dataplane

echo "==> fuzz smoke (internal/collectorsvc report frames, 10s)"
go test -run '^$' -fuzz '^FuzzReportFrame$' -fuzztime 10s ./internal/collectorsvc

echo "==> fuzz smoke (internal/collectorsvc journal segments, 10s)"
go test -run '^$' -fuzz '^FuzzJournalSegment$' -fuzztime 10s ./internal/collectorsvc

echo "==> fuzz smoke (internal/verify static FIB classifier vs naive reference, 10s)"
go test -run '^$' -fuzz '^FuzzVerifyFIB$' -fuzztime 10s ./internal/verify

echo "==> perfbench (own module: vet, tests, 1 s run of each workload, 6 s traced run)"
(cd perfbench && go vet ./... && go test ./...)
for w in fwd-fattree32 churn-microloop ingest-journal; do
	last="$(bash perfbench/run.sh --workload "$w" --seconds 1 --trace 0 | tail -n 1)"
	echo "$w: $last"
	case $last in
	*'"correct":true'*) ;;
	*)
		echo "perfbench $w: the run is not correct: $last" >&2
		exit 1
		;;
	esac
done
traced_out="$vettool_dir/traced.out"
if ! bash perfbench/run.sh --workload ingest-journal --seconds 6 --trace 1 >"$traced_out"; then
	grep -E '^# (CHECK FAILED|[a-z0-9-]+: trace overhead)' "$traced_out" >&2 || true
	echo "perfbench traced run: exited nonzero" >&2
	exit 1
fi
last="$(tail -n 1 "$traced_out")"
grep -E '^# [a-z0-9-]+: trace overhead' "$traced_out"
case $last in
*'"correct":true'*) ;;
*)
	echo "perfbench traced run: the run is not correct: $last" >&2
	exit 1
	;;
esac

echo "==> bench smoke (traffic engine 100ms + collector ingest 2000x, logged + gated)"
bench_out="$vettool_dir/bench.out"
# The traffic-engine and network-send lines are logged, so each runs
# 100 ms: at 1x a line is one ~300 µs batch, a sample of noise.
go test -run '^$' -bench 'TrafficEngine|NetworkSend' -benchtime 100ms . | tee "$bench_out"
# Collector ingest runs long enough to measure steady-state batching:
# at 1x the number is dial + warmup noise, and the regression gate
# below would compare garbage against garbage.
go test -run '^$' -bench 'CollectorIngest|ClusterIngest' -benchtime 2000x . | tee -a "$bench_out"
go test -run '^$' -bench 'JournalAppend|SnapshotRotate|Recover' -benchtime 1x ./internal/collectorsvc
go test -run '^$' -bench 'ConvergeChurn' -benchtime 1x ./internal/routing
# benchlog exits 1 if the run lacks a gated entry or its Mpps fell
# >20% below the last checked-in BENCH_collector.json entry.
go run ./cmd/unroller-benchlog -gate 'BenchmarkCollectorIngest=20,BenchmarkClusterIngest=20' -o BENCH_collector.json "$bench_out"

echo "==> ci.sh: all gates passed"
