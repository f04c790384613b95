#!/bin/sh
# CI gate: static checks, full build, a code-size ratchet, the SHA-1 kernel
# gate (both kernels against crypto/sha1 under the race detector, a fuzz of
# the same differential, and the purego and arm64 file sets), the Rabin scan
# gate (the four-lane candidate scan against per-byte Roll under fuzzing, and
# its speed over one lane as a ratio inside one process), the quick-scale
# paper reproduction compared byte for byte with the checked-in results, the
# complete test suite under the race detector, dedicated crash-consistency
# and WAL kill-every-point smokes (streamed appends, staged containers and
# compactions under them included), a repeated restore smoke (the one
# executor's width / memory / error / quiescence properties, the
# differential table against the test-code ref walk, and the verified
# path's trust invariants), a race-enabled sustained-write soak,
# a loopback server smoke (including the hostile-client table, the
# client-vs-local store equality that pre-chunked ingest rests on, and the
# restore stream's frame bound and abandoned-stream behaviour),
# a live dedupd debug-endpoint smoke (/metrics.json, /healthz,
# /events.json, pprof), a gateway loopback smoke (including the restore
# link pool: stale link, tenant scoping, mid-frame failover splice) plus a
# live dedup-gw admin-endpoint smoke, the cluster fault-matrix short
# preset, 30-second
# cluster churn soaks (one plain, one with a shard hard-killed mid-run
# at R=2) under the race detector, and short fuzz smokes of the decoder
# surfaces. This is the command the concurrency and
# robustness work is held to — `go test -race` covers the 8-goroutine
# ingest stress test, the striped index and LRU hammer tests, the ingest
# pipeline's and PutChunks' parity/shutdown/leak tests (once more on a
# single P), the kill-point persistence tests, and the wire differential
# (the vectored frame writer against the assembling encoder, over a buffer,
# a pipe and loopback TCP).
#
# Performance has no separate smoke here: `go test -race ./...` runs
# ./benchmark's four-workload smoke (the one harness every number comes
# from), and the differential properties — chunker cut parity, WAL replay,
# every restore entry point against the ref-walk oracle, tree-vs-flat
# restore, failover after a rebalance — are ordinary tests in that same run.
#
# Usage: ./ci.sh
set -eu

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== code size =="
# ROADMAP item 8 is judged by this number going down: non-test Go lines
# outside benchmark/ (25,588 before the item's first PR). The ceiling is a
# ratchet — a PR that deletes code lowers it to its own count; nothing
# raises it.
SIZE_CEILING=23087
size=$(find . -name '*.go' ! -name '*_test.go' \
    ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l)
echo "non-test Go lines outside benchmark/: $size (ceiling $SIZE_CEILING)"
if [ "$size" -gt "$SIZE_CEILING" ]; then
    echo "code size: $size non-test Go lines exceeds SIZE_CEILING=$SIZE_CEILING" >&2; exit 1
fi

echo "== hashutil: both SHA-1 kernels against crypto/sha1 =="
# Every SHA-1 in the product is internal/hashutil's, and on a CPU with the
# SHA extensions that is a hand-written block function: the table, vector,
# split-write and concurrency tests run against both kernels (they say which
# they ran; a machine without SHA-NI runs crypto/sha1 only), then the same
# differential as a fuzz. The purego and arm64 lines keep the file sets that
# this machine never executes building: one under its own tests, the other
# through vet and a full cross-build.
go test -race -count=3 ./internal/hashutil
go test -run '^$' -fuzz FuzzDigestMatchesStdlib -fuzztime 20s ./internal/hashutil
go vet -tags purego ./internal/hashutil && go test -tags purego ./internal/hashutil
GOARCH=arm64 go vet ./... && GOARCH=arm64 go build ./...
# The log's write-back hint is the other build-tagged pair: the arm64 line
# above compiled its Linux side (syscall.SyncFileRange) for a second
# architecture; this compiles the no-op every other OS gets, and the purego
# tag runs the log's and the durable store's tests on it here — nothing may
# rest on the hint.
GOOS=darwin go vet ./internal/simdisk
go test -tags purego -count=1 ./internal/simdisk ./internal/store

echo "== rabin: the candidate scan against per-byte Roll, and what the lanes buy =="
# FastRabin's cuts are Window.Candidates' (DESIGN §12), and Window.Roll is its
# oracle: any bytes, window size, modulus, mask width, starting point and
# split across calls must give Roll's candidates and leave Roll's window. The
# arm64 line above already builds the scan — it is plain Go. Then the reason
# the lanes exist, as a ratio that cannot rot silently: the same 1 MiB
# scanned on four lanes and on one, in one process, so the machine's speed
# cancels; measured 2.66x, and below 1.5x the lanes no longer pay for their
# code.
go test -run '^$' -fuzz FuzzCandidatesMatchRoll -fuzztime 20s ./internal/rabin
go test -run '^$' -bench 'BenchmarkCandidates1M' -benchtime 200x ./internal/rabin | awk '
    { for (i = 2; i <= NF; i++) if ($i == "MB/s") { if ($1 ~ /lanes=4/) four = $(i-1); if ($1 ~ /lanes=1/) one = $(i-1) } }
    END {
        if (one == 0 || four == 0) { print "rabin lanes: benchmark printed no MB/s" > "/dev/stderr"; exit 1 }
        printf "four lanes %.0f MB/s, one lane %.0f MB/s: %.2fx\n", four, one, four / one
        if (four < 1.5 * one) { print "rabin lanes: below 1.5x of one lane" > "/dev/stderr"; exit 1 }
    }'

echo "== paper reproduction (quick scale, byte for byte) =="
# The reproduction is a gate (ROADMAP aim 3): the quick-scale run must
# regenerate quick_results.csv byte for byte — 36 runs x 25 measured columns
# over all nine engines, disk accesses, manifest loads, inodes and RAM among
# them, so a refactor that reorders one disk access inside one engine fails
# here — and print quick_results.txt, bar its last line, which names the
# export path. It is also the second oracle of the ingest pipeline: the
# checked-in results were generated by the synchronous ingest path it
# replaced. A plain build: the run is deterministic but no longer
# single-threaded (every PutFile chunks and hashes ahead of its dedup
# stage); the pipeline's schedules get their -race run below.
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

echo "== ingest pipeline on one P (race) =="
# The batched chunk/hash pipeline is the only ingest path and has no serial
# twin, so the one-P schedule — producer, hashers and the ordered stage
# taking turns on a single P — is exercised under the race detector too:
# batch-edge parity, the golden-snapshot determinism test, teardown and
# cancellation, and the pre-chunked source beside it (PutChunks against
# PutFile, any cuts, teardown).
GOMAXPROCS=1 go test -race -count=1 -run 'Pipeline|Determinism|Context|PutChunks' ./internal/core

echo "== crash-consistency smoke (10 seeds, race) =="
# Kill SaveDir at a random injection point per seed (payloads torn half the
# time), then demand recovery mounts exactly the old or the new store —
# never a hybrid — and passes fsck. -short runs 10 seeds; the full suite
# above already ran 100.
go test -race -short -count=1 -run 'TestCrashConsistency' ./internal/store

echo "== WAL crash smoke (kill-every-point, race) =="
# Kill the durable store at every log-append (streamed in the background or
# written at commit), group-commit and compaction injection point (torn
# final frames half the time) — over the object history and over the staged
# one, where two sessions stage, seal and commit containers across two
# compactions — plus inside Recover itself over a table of debris layouts,
# and demand the remount equal some acknowledged prefix of the mutation
# history — never a hybrid, never a partly staged container. Then the
# stage/seal replay table, the early write-back contract (streamed bytes
# stay pending, one fsync per Sync, a background write error is sticky) and
# the concurrent-sessions run. -short runs one seed of the matrix; the full
# suite above already ran the 100+-run one.
go test -race -short -count=1 \
    -run 'TestWALKillEveryPoint|TestRecoverIdempotentDebris|TestWALReplayStagedObjects|TestWALStreamsAheadOfSync|TestWALBackgroundWriteErrorIsSticky|TestWALConcurrentSessionsStream' \
    ./internal/simdisk
go test -race -count=1 -run 'TestDurableContainerStreamsWhileCut' ./dedup

echo "== restore smoke (race, 5x) =="
# There is one restore executor, so this is the restore smoke: its contract
# as properties (look-ahead width, the memory bound behind a frozen writer,
# the real cause of a failure, no read left behind one) and the differential
# table against the ref-walk oracle, then the verified path on top of it —
# whole verified restores running concurrently on one Verifier, each with
# its own reads in flight, the four trust invariants, the exact read/hash
# count gates and the scrub tests — repeated to shake out interleavings.
go test -race -count=5 \
    -run 'TestPipeline|TestRestoreDifferential|TestVerified|TestVerifier|TestScrub' \
    ./internal/store ./dedup

echo "== session lifecycle smoke (race, 20x) =="
# The one attach/detach/expire epoch machine, the drain contract (parked
# sessions expire at once and sessionless connections parked between
# requests are closed — TestDrainClosesParkedSessionlessConns — while
# attached sessions and a restore in mid-stream are waited for —
# TestDrainLetsStreamingRestoreFinish) and the handshake against hostile
# peers on both sides, repeated to shake out timer/lock interleavings.
go test -race -count=20 -run 'Epoch|Drain|Handshake' ./internal/session

echo "== loopback server integration smoke (race) =="
# The wire-service acceptance gate: a near-duplicate second backup must
# move <15% of its raw bytes over loopback and restore bit-identically
# through the verifying path, a connection killed mid-ingest must
# resume into a store object-identical to an uninterrupted run's, a
# file whose FileEnd claim does not match its stream must not exist, and —
# the shard stores the client's cuts and digests as offered — a client
# lying about a cut's shape, a chunk's bytes or a file's sum must be
# refused and commit nothing, while an honest client's store must equal a
# local PutFile's object for object. On the way back a restore is frames of
# at most 64 KiB whatever the request, and a client that abandons one
# mid-stream costs the server that connection and nothing else.
go test -race -count=1 \
    -run 'TestLoopbackBackupAndVerifiedRestore|TestSecondGenerationMovesFewBytes|TestKillConnectionResumeStoreEquality|TestDrainWaitsForInFlightSession|TestDrainExpiresParkedSession|TestServerCheckpointSurvivesKill|TestOverloadShedding|TestFileEndBadSumCommitsNothing|TestHostileClientCommitsNothing|TestClientPutMatchesLocalPutFile|TestRestoreStreamIsBoundedFrames|TestAbandonedRestoreStream' \
    ./internal/server

echo "== gateway loopback smoke (race) =="
# The cluster acceptance gate: a 2-shard cluster behind the gateway must
# restore bit-identically to a single node, chunk routing must keep a
# cross-shard re-ingest under 15% of its bytes on the client link, a
# mid-run shard drain must stay fully restorable with the newest bytes,
# a killed client connection must resume through the gateway, tenant
# auth/isolation/quota must hold, an R=2 cluster with one shard
# rebalanced away must restore everything after another shard dies, and
# a hostile client's oversized cut or stream-summed FileEnd must land on
# no replica at R=2. The restore link pool: a link the shard dropped while
# parked is retried on a fresh dial and is no failover, a link is only ever
# reused for the tenant of its Hello, and a failover whose cut falls inside
# a replica's frame splices there and verifies.
go test -race -count=1 \
    -run 'TestClusterRoundTripMatchesSingleNode|TestClusterChunkRoutingSavesClientBandwidth|TestClusterDrainMidRun|TestClusterKillConnectionResume|TestClusterTenants|TestGatewayDrainExpiresParkedSession|TestRebalanceShardConverges|TestClusterHostileClientCommitsOnNoReplica|TestStaleRestoreLinkIsRetriedNotFailedOver|TestRestoreLinksAreTenantScoped|TestFailoverSpliceMidFrame' \
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
curl -fsS http://127.0.0.1:7472/metrics.json | grep -q '"core.scan_wait_ns"'
curl -fsS http://127.0.0.1:7472/metrics.json | grep -q '"core.hash_wait_ns"'
curl -fsS http://127.0.0.1:7472/metrics.json | grep -q '"server.restore.frames"'
curl -fsS http://127.0.0.1:7472/metrics.json | grep -q '"hashutil.sha_ni"'
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
curl -fsS http://127.0.0.1:7475/metrics.json | grep -q '"gateway.restore_ns"'
curl -fsS http://127.0.0.1:7475/metrics.json | grep -q '"gateway.restore.shard_dials"'
curl -fsS http://127.0.0.1:7475/metrics.json | grep -q '"hashutil.sha_ni"'
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

echo "== fuzz smokes (5s each; the log's replay 20s) =="
# Each target runs alone: `go test -fuzz` accepts only one matching fuzz
# target per invocation. FuzzWALScanReplay holds the segment scan, the
# stage/seal replay, the repair and the mount to a byte-at-a-time model
# over arbitrary segment bytes: refuse loudly or mount exactly the model's
# objects, never a partly staged one.
go test -run '^$' -fuzz 'FuzzWALScanReplay' -fuzztime 20s ./internal/simdisk
go test -run '^$' -fuzz 'FuzzEncodeDecodeName' -fuzztime 5s ./internal/simdisk
go test -run '^$' -fuzz 'FuzzDecodeManifest$' -fuzztime 5s ./internal/store
go test -run '^$' -fuzz 'FuzzDecodeFileManifest' -fuzztime 5s ./internal/store
go test -run '^$' -fuzz 'FuzzDecompressRecipe' -fuzztime 5s ./internal/store
go test -run '^$' -fuzz 'FuzzWireDecode$' -fuzztime 5s ./internal/wire
go test -run '^$' -fuzz 'FuzzWireReplicaDecode' -fuzztime 5s ./internal/wire
go test -run '^$' -fuzz 'FuzzChunkerParity' -fuzztime 5s ./internal/chunker
go test -run '^$' -fuzz 'FuzzPutChunksAnyCuts' -fuzztime 5s ./internal/core

echo "CI OK"
