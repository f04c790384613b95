#!/bin/sh
# CI gate: static checks, full build, a code-size ratchet, the quick-scale
# paper reproduction compared byte for byte with the checked-in results, the
# complete test suite under the race detector, dedicated crash-consistency
# and WAL kill-every-point smokes, a repeated verified-restore smoke, a
# race-enabled sustained-write soak,
# a live dedupd debug-endpoint smoke (/metrics.json, /healthz,
# /events.json, pprof), a gateway loopback smoke plus a live dedup-gw
# admin-endpoint smoke, the cluster fault-matrix short preset, 30-second
# cluster churn soaks (one plain, one with a shard hard-killed mid-run
# at R=2) under the race detector, and short fuzz smokes of the decoder
# surfaces. This is the command the concurrency and
# robustness work is held to — `go test -race` covers the 8-goroutine
# ingest stress test, the striped index and LRU hammer tests, the pipeline
# shutdown/leak tests, and the kill-point persistence tests.
#
# Performance has no separate smoke here: `go test -race ./...` runs
# ./benchmark's four-workload smoke (the one harness every number comes
# from), and the differential properties — chunker cut parity, WAL replay,
# parallel-vs-serial and tree-vs-flat restore, failover after a rebalance —
# are ordinary tests in that same run.
#
# Usage: ./ci.sh
set -eu

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== code size =="
# ROADMAP item 5 is judged by this number going down: non-test Go lines
# outside benchmark/ (25,588 before the item's first PR). The ceiling is a
# ratchet — a PR that deletes code lowers it to its own count; nothing
# raises it.
SIZE_CEILING=23323
size=$(find . -name '*.go' ! -name '*_test.go' \
    ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l)
echo "non-test Go lines outside benchmark/: $size (ceiling $SIZE_CEILING)"
if [ "$size" -gt "$SIZE_CEILING" ]; then
    echo "code size: $size non-test Go lines exceeds SIZE_CEILING=$SIZE_CEILING" >&2; exit 1
fi

echo "== paper reproduction (quick scale, byte for byte) =="
# The reproduction is a gate (ROADMAP aim 3): the quick-scale run must
# regenerate quick_results.csv byte for byte — 36 runs x 25 measured columns
# over all nine engines, disk accesses, manifest loads, inodes and RAM among
# them, so a refactor that reorders one disk access inside one engine fails
# here — and print quick_results.txt, bar its last line, which names the
# export path. A plain build: the run is deterministic and single-threaded,
# so -race would add minutes and find nothing.
repro=$(mktemp -d)
go run ./cmd/experiments -scale quick -csv "$repro/q.csv" > "$repro/q.txt"
cmp "$repro/q.csv" quick_results.csv
grep -v '^# [0-9]* run records exported to ' quick_results.txt > "$repro/want.txt"
grep -v '^# [0-9]* run records exported to ' "$repro/q.txt" | diff "$repro/want.txt" -
rm -rf "$repro"

echo "== go test -race =="
# The experiment suite (internal/exp) takes ~1 minute plain; under the race
# detector on a small machine it can exceed go test's default 10-minute
# per-package timeout, so raise it.
go test -race -timeout 45m ./...

echo "== crash-consistency smoke (10 seeds, race) =="
# Kill SaveDir at a random injection point per seed (payloads torn half the
# time), then demand recovery mounts exactly the old or the new store —
# never a hybrid — and passes fsck. -short runs 10 seeds; the full suite
# above already ran 100.
go test -race -short -count=1 -run 'TestCrashConsistency' ./internal/store

echo "== WAL crash smoke (kill-every-point, race) =="
# Kill the durable store at every log-append, group-commit and compaction
# injection point (torn final frames half the time), plus inside Recover
# itself over a table of debris layouts, and demand the remount equal some
# acknowledged prefix of the mutation history — never a hybrid. -short
# runs one seed; the full suite above already ran the 100+-run matrix.
go test -race -short -count=1 \
    -run 'TestWALKillEveryPoint|TestRecoverIdempotentDebris' ./internal/simdisk

echo "== verified restore smoke (race, 5x) =="
# Whole verified restores run concurrently on one Verifier, each fanning
# planned reads out to workers: the four trust invariants, the exact
# read/hash count gates and the scrub tests, repeated to shake out
# interleavings.
go test -race -count=5 -run 'TestVerified|TestVerifier|TestScrub' ./internal/store ./dedup

echo "== session lifecycle smoke (race, 20x) =="
# The one attach/detach/expire epoch machine, the drain contract (parked
# sessions expire at once, attached ones are waited for) and the
# handshake against hostile peers on both sides, repeated to shake out
# timer/lock interleavings.
go test -race -count=20 -run 'Epoch|Drain|Handshake' ./internal/session

echo "== loopback server integration smoke (race) =="
# The wire-service acceptance gate: a near-duplicate second backup must
# move <15% of its raw bytes over loopback and restore bit-identically
# through the verifying path, and a connection killed mid-ingest must
# resume into a store object-identical to an uninterrupted run's.
go test -race -count=1 \
    -run 'TestLoopbackBackupAndVerifiedRestore|TestSecondGenerationMovesFewBytes|TestKillConnectionResumeStoreEquality|TestDrainWaitsForInFlightSession|TestDrainExpiresParkedSession|TestServerCheckpointSurvivesKill|TestOverloadShedding' \
    ./internal/server

echo "== gateway loopback smoke (race) =="
# The cluster acceptance gate: a 2-shard cluster behind the gateway must
# restore bit-identically to a single node, chunk routing must keep a
# cross-shard re-ingest under 15% of its bytes on the client link, a
# mid-run shard drain must stay fully restorable with the newest bytes,
# a killed client connection must resume through the gateway, tenant
# auth/isolation/quota must hold, and an R=2 cluster with one shard
# rebalanced away must restore everything after another shard dies.
go test -race -count=1 \
    -run 'TestClusterRoundTripMatchesSingleNode|TestClusterChunkRoutingSavesClientBandwidth|TestClusterDrainMidRun|TestClusterKillConnectionResume|TestClusterTenants|TestGatewayDrainExpiresParkedSession|TestRebalanceShardConverges' \
    ./internal/cluster

echo "== cluster fault matrix (short preset, race) =="
# The replication acceptance gate: {kill shard mid-ingest, kill shard
# mid-restore, drain+rebalance under live traffic, kill gateway and
# reattach, corrupt a replica on disk}, each cell gated on bit-identical
# verified restores of every acked file and a full replication factor
# after repair. -short runs every cell at R=2 seed=1; the full suite
# above already ran the R=1..3 x seeds matrix.
go test -race -short -count=1 -run 'TestClusterFaultMatrix' ./internal/cluster

echo "== cluster churn soak (30s, race) =="
# In-process shards + gateway hammered by concurrent tenants: ingest,
# restore-and-verify, injected connection deaths, quota sheds and a
# mid-run shard drain. Gated on zero corruption and a bounded heap.
go run -race ./cmd/soak -short

echo "== cluster kill-shard soak (30s, race, R=2) =="
# The same churn with one shard hard-killed mid-run: with 2-way
# replication every file acked before or after the kill must still
# verify bit-identical, and a post-churn repair scan must restore the
# full replication factor. Gated on zero corruption.
go run -race ./cmd/soak -short -replication 2 -kill-shard

echo "== sustained-write soak (race) =="
# Concurrent ingest + verified restores against a live durable store while
# group commits, background compaction and online scrub churn underneath,
# then a reopen verifying every acked file bit-exact.
go test -race -count=1 -run 'TestSustainedWriteSoak' ./internal/server

echo "== dedupd debug endpoint smoke =="
# The server must serve /healthz, a histogram-bearing /metrics.json, the
# event ring and pprof while running, and drain cleanly on SIGTERM.
go build -o /tmp/dedupd.ci ./cmd/dedupd
/tmp/dedupd.ci -addr 127.0.0.1:7471 -metrics-addr 127.0.0.1:7472 &
DEDUPD_PID=$!
trap 'kill "$DEDUPD_PID" 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
    curl -fsS http://127.0.0.1:7472/healthz >/dev/null 2>&1 && break
    sleep 0.1
done
curl -fsS http://127.0.0.1:7472/healthz | grep -q ok
curl -fsS http://127.0.0.1:7472/metrics.json | grep -q '"histograms"'
curl -fsS http://127.0.0.1:7472/metrics.json | grep -q '"server.apply_ns"'
curl -fsS http://127.0.0.1:7472/events.json | grep -q '"events"'
curl -fsS http://127.0.0.1:7472/debug/pprof/cmdline >/dev/null
kill -TERM "$DEDUPD_PID"
wait "$DEDUPD_PID"
trap - EXIT
rm -f /tmp/dedupd.ci

echo "== dedup-gw admin endpoint smoke =="
# The gateway must serve /healthz, a shard-balance-bearing /metrics.json
# and the drain-shard / rebalance-shard / repair-scan / replication
# admin verbs in front of live shards, and drain cleanly on SIGTERM.
go build -o /tmp/dedupd.ci ./cmd/dedupd
go build -o /tmp/dedup-gw.ci ./cmd/dedup-gw
/tmp/dedupd.ci -addr 127.0.0.1:7473 &
SHARD0_PID=$!
/tmp/dedupd.ci -addr 127.0.0.1:7476 &
SHARD1_PID=$!
/tmp/dedup-gw.ci -addr 127.0.0.1:7474 -metrics-addr 127.0.0.1:7475 \
    -shards s0=127.0.0.1:7473,s1=127.0.0.1:7476 &
GW_PID=$!
trap 'kill "$SHARD0_PID" "$SHARD1_PID" "$GW_PID" 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
    curl -fsS http://127.0.0.1:7475/healthz >/dev/null 2>&1 && break
    sleep 0.1
done
curl -fsS http://127.0.0.1:7475/healthz | grep -q ok
curl -fsS http://127.0.0.1:7475/metrics.json | grep -q '"shards"'
curl -fsS http://127.0.0.1:7475/events.json | grep -q '"events"'
curl -fsS http://127.0.0.1:7475/replication | grep -q '"fully_replicated"'
curl -fsS -X POST http://127.0.0.1:7475/repair-scan | grep -q '"repaired"'
curl -fsS -X POST 'http://127.0.0.1:7475/rebalance-shard?id=s1' | grep -q '"dropped"'
curl -fsS -X POST 'http://127.0.0.1:7475/drain-shard?id=s1' | grep -q draining
# Draining an unknown shard must be refused.
if curl -fsS -X POST 'http://127.0.0.1:7475/drain-shard?id=nope' >/dev/null 2>&1; then
    echo "dedup-gw smoke: draining an unknown shard succeeded" >&2; exit 1
fi
# Rebalancing an unknown shard must be refused too.
if curl -fsS -X POST 'http://127.0.0.1:7475/rebalance-shard?id=nope' >/dev/null 2>&1; then
    echo "dedup-gw smoke: rebalancing an unknown shard succeeded" >&2; exit 1
fi
kill -TERM "$GW_PID"
wait "$GW_PID"
kill -TERM "$SHARD0_PID" "$SHARD1_PID"
wait "$SHARD0_PID" "$SHARD1_PID"
trap - EXIT
rm -f /tmp/dedupd.ci /tmp/dedup-gw.ci

echo "== fuzz smokes (5s each) =="
# Each target runs alone: `go test -fuzz` accepts only one matching fuzz
# target per invocation.
go test -run '^$' -fuzz 'FuzzEncodeDecodeName' -fuzztime 5s ./internal/simdisk
go test -run '^$' -fuzz 'FuzzDecodeManifest$' -fuzztime 5s ./internal/store
go test -run '^$' -fuzz 'FuzzDecodeFileManifest' -fuzztime 5s ./internal/store
go test -run '^$' -fuzz 'FuzzDecompressRecipe' -fuzztime 5s ./internal/store
go test -run '^$' -fuzz 'FuzzWireDecode$' -fuzztime 5s ./internal/wire
go test -run '^$' -fuzz 'FuzzWireReplicaDecode' -fuzztime 5s ./internal/wire
go test -run '^$' -fuzz 'FuzzChunkerParity' -fuzztime 5s ./internal/chunker

echo "CI OK"
