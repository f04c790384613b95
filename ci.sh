#!/bin/sh
# CI gate: static checks, full build, a code-size ratchet, no committed
# binary, the SHA-1 kernel gate (every kernel, SumRuns' 16 lanes among
# them, against crypto/sha1 under the race detector, fuzzes of the same
# differentials, the purego and arm64 file sets, and what the lanes buy
# over one message at a time as a ratio inside one process), the Rabin scan gate (both candidate-scan kernels, four-lane
# and byte-sliced, against per-byte Roll under fuzzing, the purego file set,
# and each kernel's speed over the next simpler one as a ratio inside one
# process), the quick-scale paper reproduction compared byte for byte with
# the checked-in results, the complete test suite under the race detector,
# dedicated crash-consistency and WAL kill-every-point smokes (streamed
# appends, staged containers and compactions under them included), a repeated restore smoke (the one
# executor's width / byte-window / error / quiescence properties, the
# differential table against the test-code ref walk, the verified path's
# trust invariants at its default width and again on one P, where that
# width is inline, and the CLI's refusal to write outside -out), a
# race-enabled sustained-write soak,
# a loopback server smoke (including the hostile-client table, the
# client-vs-local store equality that pre-chunked ingest rests on, and the
# restore stream's frame bound and abandoned-stream behaviour),
# a live dedupd debug-endpoint smoke (/metrics.json, /healthz,
# /events.json, pprof), a live dedupd cut-contract smoke (a store refuses a
# restart that would cut it otherwise, and clients pass no engine flags), a
# gateway loopback smoke (including the restore
# link pools, the gateway's and the client's: stale link, tenant scoping,
# mid-frame failover splice, idle bounds, drain, migration by ingest
# session) plus a live dedup-gw admin-endpoint smoke that rebalances real
# files between processes, the cluster fault-matrix short
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
SIZE_CEILING=21825
size=$(find . -name '*.go' ! -name '*_test.go' \
    ! -path './benchmark/*' ! -path './.bench_build/*' -print0 | xargs -0 cat | wc -l)
echo "non-test Go lines outside benchmark/: $size (ceiling $SIZE_CEILING)"
if [ "$size" -gt "$SIZE_CEILING" ]; then
    echo "code size: $size non-test Go lines exceeds SIZE_CEILING=$SIZE_CEILING" >&2; exit 1
fi

echo "== one engine configuration =="
# All nine engines take one algo.Options, whose Resolve is the one place a
# default is written, and the parameters no sweep varies are constants
# beside their algorithm. A second configuration type, default set or
# copy of those parameters must not come back.
copies=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
    xargs -0 grep -nwE 'DefaultConfig|DefaultParams|UseBloom|BloomHashes|SegmentFactor|MaxChampions|MaxManifestsPerHook|FreqThreshold|SketchRows|SketchWidth' || true)
if [ -n "$copies" ]; then
    echo "engine configuration restated outside algo.Options:" >&2; echo "$copies" >&2; exit 1
fi

echo "== one engine substrate =="
# All nine engines stand on internal/algo's Substrate: it alone builds the
# bloom filter and the manifest cache (and probes and publishes hooks,
# tracks RAM and reports), so Table III-V numbers come from one
# implementation. A second copy of it must not come back.
copies=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' ! -path './internal/algo/*' -print0 |
    xargs -0 grep -nE 'bloom\.New\(|lru\.New\[' || true)
if [ -n "$copies" ]; then
    echo "engine substrate built outside internal/algo:" >&2; echo "$copies" >&2; exit 1
fi

echo "== one set of session limits =="
# What a shard and its gateway must agree on — the window, the payload cap,
# the timeouts, the ring's virtual nodes — is a constant in internal/session
# or internal/cluster. A configurable ring, a payload floor or a daemon flag
# that restates one of them must not come back.
knobs=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
    xargs -0 grep -nwE 'RingConfig|DefaultVNodes|minMaxPayload' || true)
flags=$(find cmd/dedupd cmd/dedup-gw -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 grep -nE '"(window|max-sessions|idle-timeout|resume-timeout|drain-timeout|slow-op|vnodes)"' || true)
if [ -n "$knobs$flags" ]; then
    echo "session limits made configurable again:" >&2; echo "$knobs$flags" >&2; exit 1
fi

echo "== one copy per new byte =="
# A container is sealed as the runs of the slabs the chunker read its chunks
# into (chunker.Gather, DESIGN §7); a join of the flushed chunks in the
# engine would copy every new byte a second time.
joins=$(find internal/core -name '*.go' ! -name '*_test.go' -print0 | xargs -0 grep -n 'bytes\.Join' || true)
if [ -n "$joins" ]; then
    echo "internal/core joins chunk bytes again:" >&2; echo "$joins" >&2; exit 1
fi

echo "== chunks are hashed in batches =="
# The cluster's ingest path names and checks chunks with hashutil.SumChunks,
# 16 at a time on the lanes (DESIGN §12a.1): the client's Offer digests, the
# shard's ChunkData check and PeerPut, the gateway's ChunkData check and
# peerFetch. A per-chunk SumBytes at any of them would hash one at a time.
body() { awk "/$2/,/$3/" "$1" | grep -n 'hashutil\.SumBytes' | sed "s|^|$1, line of /$2/ |"; }
single=$( { grep -Hn 'hashutil\.SumBytes' internal/client/ingest.go internal/cluster/gwsession.go
    body internal/server/session.go '^func .*HandleChunkData' '^}'
    body internal/server/server.go 'case wire.TypePeerPut:' 'case wire.TypeFileDrop:'
    body internal/cluster/gateway.go '^func .*peerFetch' '^}'; } || true)
if [ -n "$single" ]; then
    echo "chunks hashed one at a time on the cluster ingest path:" >&2; echo "$single" >&2; exit 1
fi

echo "== one way to know where a file is =="
# The gateway learns which shards hold a file from one listing of every
# shard (listShards), and a file's owners come from one seam (home): new
# files are placed there, a restore probes there first, and rebalance,
# repair and the replication check fill and check it from the same
# listings. Only the restore probe order's full-ring tier computes owners
# itself. A presence query or a second owner computation must not come
# back (DESIGN §16).
dual=$(find internal/wire internal/server internal/cluster -name '*.go' ! -name '*_test.go' -print0 |
    xargs -0 grep -nE 'FileStat|statFiles|clusterNames' || true)
owners=$(find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.bench_build/*' -print0 |
    xargs -0 grep -n 'OwnersOfName(' | grep -vE \
    -e 'func \(r \*Ring\) OwnersOfName\(name string, n int\)' \
    -e '^\./internal/cluster/gateway\.go:[0-9]+:	return write\.OwnersOfName\(nsName, gw\.cfg\.Replication\)$' \
    -e '^\./internal/cluster/gateway\.go:[0-9]+:	for _, sh := range full\.OwnersOfName\(fullName, gw\.cfg\.Replication\) \{$' || true)
if [ -n "$dual$owners" ]; then
    echo "a second way to learn where a file is:" >&2
    { echo "$dual"; echo "$owners"; } | sed '/^$/d' >&2; exit 1
fi

echo "== no binaries committed =="
# A `go build ./cmd/...` at the root leaves a binary named after the command,
# and one was committed once. .gitignore lists those it can, but not dedup —
# that would hide the dedup/ package — so no tracked file may be an ELF.
elves=$(git ls-files -z | xargs -0 sh -c 'for f do
    [ -f "$f" ] && [ "$(head -c 4 "$f" | od -An -c | tr -d " ")" = 177ELF ] && echo "$f"; done; true' sh)
if [ -n "$elves" ]; then
    echo "committed binaries: $elves" >&2; exit 1
fi

echo "== hashutil: every SHA-1 kernel against crypto/sha1, and what the lanes buy =="
# Every SHA-1 in the product is internal/hashutil's, and on a CPU with the
# SHA extensions that is a hand-written block function: the table, vector,
# split-write and concurrency tests run against both kernels (they say which
# they ran; a machine without SHA-NI runs crypto/sha1 only). SumRuns' table
# runs on crypto/sha1, on SHA-NI one run at a time, and on the 16-lane
# AVX-512 kernel where CPUID offers it; then both differentials as fuzzes.
# The purego and arm64 lines keep the file sets that this machine never
# executes (kernel_other.go, lanes_other.go) building: one under its own
# tests, the other through vet of the code and the tests and a full
# cross-build. The engine's golden determinism, PutChunks parity, run fact
# and deferred-naming tests run once more under purego: the same goldens with the lanes
# (and SHA-NI) off as the race run below holds them to with the lanes on. So
# do the cluster ingest path's batched checks: a shard and a gateway refuse
# the same ChunkData frames, and drop the same peer chunk, without the lanes,
# and the client offers the same digests. Then the reason the lanes exist, as a ratio that cannot rot
# silently: one batch of 128 chunks of 1.5-5 KiB through SumRuns on the
# lanes and through SumBytes a chunk at a time, measured 2.7-2.9x on a
# two-vCPU AVX-512 Xeon; below 1.5x the lanes no longer pay for their
# assembly. As in the rabin gate below, five rounds each run both, and each
# side's best round is compared. Where CPUID lacks AVX-512 the lanes
# sub-benchmark skips, and so does the ratio.
go test -race -count=3 ./internal/hashutil
go test -run '^$' -fuzz FuzzDigestMatchesStdlib -fuzztime 20s -fuzzminimizetime 2s ./internal/hashutil
go test -run '^$' -fuzz FuzzSumRunsMatchesStdlib -fuzztime 20s -fuzzminimizetime 2s ./internal/hashutil
go vet -tags purego ./internal/hashutil && go test -tags purego ./internal/hashutil
go test -tags purego -count=1 -run 'TestSingleStreamDeterminism|TestPutChunksMatchesPutFile|TestRunFact|TestHHRNaming|TestUnnamedPiecesWrittenBackNamed' ./internal/core
go test -tags purego -count=1 -run 'TestChunkDataFrameCheckedWhole|TestPeerPutCachesUnderBatchedDigests' ./internal/server
go test -tags purego -count=1 -run 'TestGatewayChunkDataFrameCheckedWhole|TestPeerFetchDropsOnlyTheCorruptChunk' ./internal/cluster
go test -tags purego -count=1 -run 'TestOfferDigestsMatchSumBytes' ./internal/client
GOARCH=arm64 go vet ./... && GOARCH=arm64 go build ./...
for round in 1 2 3 4 5; do
    go test -run '^$' -bench 'BenchmarkSumRuns' -benchtime 200x ./internal/hashutil
done | awk '
    function best(old, v) { return v > old ? v : old }
    { for (i = 2; i <= NF; i++) if ($i == "MB/s") { v = $(i-1) + 0; if ($1 ~ /lanes=true/) lanes = best(lanes, v); if ($1 ~ /lanes=false/) one = best(one, v) } }
    END {
        if (one == 0) { print "hashutil lanes: benchmark printed no MB/s" > "/dev/stderr"; exit 1 }
        if (lanes == 0) { print "no lane kernel on this CPU: the SumRuns ratio is skipped"; exit 0 }
        printf "SumRuns on 16 lanes %.0f MB/s, SumBytes a chunk at a time %.0f MB/s: %.2fx\n", lanes, one, lanes / one
        if (lanes < 1.5 * one) { print "hashutil lanes: below 1.5x of SumBytes a chunk at a time" > "/dev/stderr"; exit 1 }
    }'
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
# split across calls must give Roll's candidates and leave Roll's window, on
# each kernel — the four-lane scan, and the byte-sliced 64-lane one where
# CPUID offers AVX-512 and GFNI (the fuzz runs both per input). The arm64
# line above already builds the portable file set; the purego line runs it
# here. Then the reason each kernel exists, as ratios that cannot rot
# silently, measured on the same machine so its speed cancels: the same
# 1 MiB scanned on four lanes (the byte-sliced kernel turned off) and on one,
# measured 2.66x, and below 1.5x the lanes no longer pay for their code; and
# on 64 lanes against four, measured 9-13x, below 2.0x the kernel no longer
# pays for its assembly. Where CPUID does not offer the kernel its
# sub-benchmark skips, and so does only that ratio. A single round read the
# first ratio anywhere from 1.32x to 1.91x as neighbours came and went, so
# there are five rounds, each scanning with every kernel in turn, and each
# kernel's best round is what is compared: a busy stretch of the machine
# slows one round of each, not one kernel's every round.
# The fuzzer's minimization (see the fuzz smokes below) is capped at 2 s.
go test -run '^$' -fuzz FuzzCandidatesMatchRoll -fuzztime 20s -fuzzminimizetime 2s ./internal/rabin
go vet -tags purego ./internal/rabin && go test -tags purego ./internal/rabin
for round in 1 2 3 4 5; do
    go test -run '^$' -bench 'BenchmarkCandidates1M' -benchtime 200x ./internal/rabin
done | awk '
    function best(old, v) { return v > old ? v : old }
    { for (i = 2; i <= NF; i++) if ($i == "MB/s") { v = $(i-1) + 0; if ($1 ~ /lanes=4/) four = best(four, v); if ($1 ~ /lanes=1/) one = best(one, v); if ($1 ~ /kernel=wide/) wide = best(wide, v) } }
    END {
        if (one == 0 || four == 0) { print "rabin lanes: benchmark printed no MB/s" > "/dev/stderr"; exit 1 }
        printf "four lanes %.0f MB/s, one lane %.0f MB/s: %.2fx\n", four, one, four / one
        if (four < 1.5 * one) { print "rabin lanes: below 1.5x of one lane" > "/dev/stderr"; exit 1 }
        if (wide == 0) { print "no byte-sliced kernel on this CPU: the 64-lane ratio is skipped"; exit 0 }
        printf "64 lanes %.0f MB/s: %.2fx four lanes\n", wide, wide / four
        if (wide < 2.0 * four) { print "rabin wide: below 2.0x of four lanes" > "/dev/stderr"; exit 1 }
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
# PutFile, any cuts, teardown), match extension's run facts (learned
# and read under the manifest lock by two streams at once), and HHR's
# deferred naming (pieces one stream left unnamed compared, split again and
# evicted by the other).
GOMAXPROCS=1 go test -race -count=1 -run 'Pipeline|Determinism|Context|PutChunks|RunFact|HHRNaming|UnnamedPieces' ./internal/core

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
# suite above already ran the 100+-run one. Beside them, the container read's
# own contract: a range whose end wraps past MaxInt64 is refused, not
# sliced; a ReadRange is a view, capacity clipped, that keeps its bytes
# through a flip, a truncation, a Write and a Delete; and a read transform,
# even one that writes into its bytes, never reaches the stored object.
go test -race -short -count=1 \
    -run 'TestWALKillEveryPoint|TestRecoverIdempotentDebris|TestWALReplayStagedObjects|TestWALStreamsAheadOfSync|TestWALBackgroundWriteErrorIsSticky|TestWALConcurrentSessionsStream|TestReadRangeOverflow|TestReadRangeView|TestReadFaultsNeverReachStore' \
    ./internal/simdisk
go test -race -count=1 -run 'TestDurableContainerStreamsWhileCut' ./dedup

echo "== restore smoke (race, 5x) =="
# There is one restore executor, so this is the restore smoke: its contract
# as properties (look-ahead width, the constant byte window behind a writer
# stopped at each emission, an oversized read alone, the real cause of a
# failure, no read left behind one) and the differential
# table against the ref-walk oracle, then the verified path on top of it —
# whole verified restores running concurrently on one Verifier, each with
# its own reads in flight, the four trust invariants, the exact read/hash
# count gates, a container sealed as several runs through every read path,
# the default width against Workers: 1 (FuzzVerifiedRestoreWidth's seeds), a
# manifest load that failed being retried, and the scrub tests (the online
# one inline) — repeated to shake out interleavings. Container reads are
# views of the stored bytes, so with them run the store-wide immutability
# guard (every container fingerprinted, then every reader run: restores at
# widths 1 and 8, an ingest with HHR, Scrub, VerifyContainer, a sweep, a
# compaction and a reopen) and verified restores racing stored bit flips
# (TestVerifiedRestoreRacesStoredBitFlips: no wrong byte ever emitted). Then
# the verified tests once more on a single P, where the default width must
# be inline. Last, the CLI's -all writes only strictly under -out: a name the
# store or a dedupd hands out that would climb out of it fails on its own.
go test -race -count=5 \
    -run 'TestPipeline|TestRestoreDifferential|TestVerified|TestVerifier|TestScrub|FuzzVerifiedRestoreWidth|TestStoredBytesStayImmutable|TestVerifiedRestoreRacesStoredBitFlips|TestMultiRunContainerReadPaths' \
    ./internal/store ./dedup
GOMAXPROCS=1 go test -race -count=1 -run 'TestVerif|TestScrub' ./internal/store ./dedup
go test -race -count=1 -run 'TestRestoreAllRefusesEscapingNames' ./cmd/restore

echo "== session lifecycle smoke (race, 20x) =="
# The one attach/detach/expire epoch machine, the drain contract (parked
# sessions expire at once and sessionless connections parked between
# requests are closed — TestDrainClosesParkedSessionlessConns — while
# attached sessions and a restore in mid-stream are waited for —
# TestDrainLetsStreamingRestoreFinish) and the handshake against hostile
# peers on both sides, repeated to shake out timer/lock interleavings.
go test -race -count=20 -run 'Epoch|Drain|Handshake' ./internal/session
# The kept restore links (session.Links) as the client uses them, repeated the
# same way: one dial for many requests, a stale link retried only while it
# said nothing, a broken stream never reused, keys by address, tenant and
# secret, the idle bound across 100 short-lived gateways, and drains of
# dedupd and dedup-gw that close the links a client keeps.
go test -race -count=20 -run 'TestClientLink' ./internal/cluster

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
# mid-stream costs the server that connection and nothing else. A command
# whose payload does not decode ends its session with a final protocol
# error instead of parking it for a replay of the same bytes, the
# client refuses a file name the wire cannot carry before sending it, a
# negative chunk-cache budget leaves the cache empty while zero is the
# default, and a put whose reader fails closes its session in order,
# committing nothing.
go test -race -count=1 \
    -run 'TestLoopbackBackupAndVerifiedRestore|TestSecondGenerationMovesFewBytes|TestKillConnectionResumeStoreEquality|TestDrainWaitsForInFlightSession|TestDrainExpiresParkedSession|TestServerCheckpointSurvivesKill|TestOverloadShedding|TestFileEndBadSumCommitsNothing|TestHostileClientCommitsNothing|TestClientPutMatchesLocalPutFile|TestRestoreStreamIsBoundedFrames|TestAbandonedRestoreStream|TestMalformedIngestCommandIsRefused|TestPutFileRefusesUnsendableName|TestServerChunkCacheBudget|TestPutFileReadFailureFreesSession' \
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
# no replica at R=2, and a command that does not decode must end its
# session through the gateway too. The restore link pools: a link the shard dropped while
# parked is retried on a fresh dial and is no failover, a link is only ever
# reused for the tenant of its Hello, and a failover whose cut falls inside
# a replica's frame splices there and verifies; the client keeps its links
# to the gateway by the same rules (TestClientLink*). A migration is a
# verified restore piped into an ingest session: the copy restores
# verified on its new owner and came pre-chunked, a source that fails
# mid-stream leaves no file and no session, a put whose reader fails
# leaves no session on the gateway or any shard, and a session is out of
# the gateway's table by its CloseOK. Rebalance reads the shards' listings:
# it copies only what an owner lacks, and keeps on the drained shard every
# file whose owner could not be listed.
go test -race -count=1 \
    -run 'TestClusterRoundTripMatchesSingleNode|TestClusterChunkRoutingSavesClientBandwidth|TestClusterDrainMidRun|TestClusterKillConnectionResume|TestClusterTenants|TestGatewayDrainExpiresParkedSession|TestRebalanceShardConverges|TestClusterHostileClientCommitsOnNoReplica|TestGatewayMalformedIngestCommandIsRefused|TestStaleRestoreLinkIsRetriedNotFailedOver|TestRestoreLinksAreTenantScoped|TestFailoverSpliceMidFrame|TestClientLink|TestRebalanceCopyIsPreChunkedAndVerified|TestRebalanceSourceFailsMidStream|TestGatewayPutFileReadFailureFreesSessions|TestGatewayCloseOKMeansSessionGone|TestRebalanceMigratesOnlyWhatOwnersLack|TestRebalanceKeepsFilesOfUnlistedOwner' \
    ./internal/cluster

echo "== cluster fault matrix (short preset, race) =="
# The replication acceptance gate: {kill shard mid-ingest, kill shard
# mid-restore, drain+rebalance under live traffic, kill gateway and
# reattach, corrupt a replica on disk, rebalance and repair off a rotted
# source}, each cell gated on bit-identical
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
# event ring and pprof while running, drain cleanly on SIGTERM, and refuse
# a tuning flag that is a constant now.
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
# Observed once per batch (chunk) or for one call in 16 (lookup, probe):
# each must still be exported.
curl -fsS http://127.0.0.1:7472/metrics.json | grep -q '"core.chunk_ns"'
curl -fsS http://127.0.0.1:7472/metrics.json | grep -q '"core.lookup_ns"'
curl -fsS http://127.0.0.1:7472/metrics.json | grep -q '"core.hook_probe_ns"'
curl -fsS http://127.0.0.1:7472/metrics.json | grep -q '"server.restore.frames"'
curl -fsS http://127.0.0.1:7472/metrics.json | grep -q '"hashutil.sha_ni"'
curl -fsS http://127.0.0.1:7472/metrics.json | grep -q '"hashutil.lanes"'
curl -fsS http://127.0.0.1:7472/events.json | grep -q '"events"'
curl -fsS http://127.0.0.1:7472/debug/pprof/cmdline >/dev/null
kill -TERM "$DEDUPD_PID"
wait "$DEDUPD_PID"
trap - EXIT
# The session limits are constants: a removed tuning flag is refused.
if refusal=$(/tmp/dedupd.ci -addr 127.0.0.1:7471 -window 4 2>&1); then
    echo "dedupd debug endpoint smoke: -window 4 was accepted" >&2; exit 1
fi
echo "$refusal" | grep -q 'flag provided but not defined' || {
    echo "dedupd debug endpoint smoke: -window 4 refused otherwise: $refusal" >&2; exit 1; }
rm -f /tmp/dedupd.ci

echo "== dedupd cut contract smoke =="
# A store records how it cuts. A dedupd creates one at the default
# contract; a restart that names another ECS must refuse to start and name
# the recorded ECS 4096; a restart with no engine flags adopts the record,
# and a client with no engine flags backs up into it and restores every
# file verified.
go build -o /tmp/dedupd.ci ./cmd/dedupd
go build -o /tmp/dedup.ci ./cmd/dedup
go build -o /tmp/restore.ci ./cmd/restore
contract=$(mktemp -d)
start_dedupd() {
    /tmp/dedupd.ci -addr 127.0.0.1:7477 -metrics-addr 127.0.0.1:7478 -store "$contract/store" &
    DEDUPD_PID=$!
    for i in $(seq 1 50); do
        curl -fsS http://127.0.0.1:7478/healthz >/dev/null 2>&1 && break
        sleep 0.1
    done
}
trap 'kill "$DEDUPD_PID" 2>/dev/null || true' EXIT
start_dedupd
kill -TERM "$DEDUPD_PID"
wait "$DEDUPD_PID"
if refusal=$(/tmp/dedupd.ci -addr 127.0.0.1:7477 -store "$contract/store" -ecs 2048 2>&1); then
    echo "dedupd cut contract smoke: -ecs 2048 over an ECS 4096 store started" >&2; exit 1
fi
echo "$refusal" | grep -q 'ECS 4096' || {
    echo "dedupd cut contract smoke: the refusal does not name ECS 4096: $refusal" >&2; exit 1; }
start_dedupd
/tmp/dedup.ci -workload -machines 2 -days 2 -snapshot 1048576 -remote 127.0.0.1:7477 >/dev/null
/tmp/restore.ci -remote 127.0.0.1:7477 -all -verify -out "$contract/restored" | tail -1 | grep -q ' 0 failed'
kill -TERM "$DEDUPD_PID"
wait "$DEDUPD_PID"
trap - EXIT
rm -rf "$contract" /tmp/dedupd.ci /tmp/dedup.ci /tmp/restore.ci

echo "== dedup-gw admin endpoint smoke =="
# The gateway must serve /healthz, a shard-balance-bearing /metrics.json
# and the drain-shard / rebalance-shard / repair-scan / replication
# admin verbs in front of live shards, and drain cleanly on SIGTERM. The
# rebalance moves real files between the processes: a directory is backed
# up through the gateway (its names are fixed, and s1 homes some of them),
# s1 is rebalanced away — each of its files a verified restore piped into
# an ingest session on s0 — and a restore of everything through the
# gateway must give back the directory byte for byte.
go build -o /tmp/dedupd.ci ./cmd/dedupd
go build -o /tmp/dedup-gw.ci ./cmd/dedup-gw
go build -o /tmp/dedup.ci ./cmd/dedup
go build -o /tmp/restore.ci ./cmd/restore
gwsmoke=$(mktemp -d)
mkdir "$gwsmoke/in"
for i in 1 2 3 4 5 6 7 8; do
    head -c 300000 /dev/urandom > "$gwsmoke/in/file$i"
done
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
curl -fsS http://127.0.0.1:7475/metrics.json | grep -q '"hashutil.lanes"'
curl -fsS http://127.0.0.1:7475/events.json | grep -q '"events"'
curl -fsS http://127.0.0.1:7475/replication | grep -q '"fully_replicated"'
curl -fsS -X POST http://127.0.0.1:7475/repair-scan | grep -q '"repaired"'
/tmp/dedup.ci -dir "$gwsmoke/in" -remote 127.0.0.1:7474 >/dev/null
rebalanced=$(curl -fsS -X POST 'http://127.0.0.1:7475/rebalance-shard?id=s1')
echo "$rebalanced" | grep -q '"migrated":[1-9]' || {
    echo "dedup-gw smoke: rebalancing s1 migrated nothing: $rebalanced" >&2; exit 1; }
echo "$rebalanced" | grep -q '"dropped":[1-9]'
/tmp/restore.ci -remote 127.0.0.1:7474 -all -out "$gwsmoke/out" | tail -1 | grep -q ' 0 failed'
diff -r "$gwsmoke/in" "$gwsmoke/out"
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
rm -rf "$gwsmoke" /tmp/dedupd.ci /tmp/dedup-gw.ci /tmp/dedup.ci /tmp/restore.ci

echo "== fuzz smokes (5s each; the log's replay, the verified width, the hostile server and the wire decoders 20s) =="
# Each target runs alone: `go test -fuzz` accepts only one matching fuzz
# target per invocation. FuzzWALScanReplay holds the segment scan, the
# stage/seal replay, the repair and the mount to a byte-at-a-time model
# over arbitrary segment bytes: refuse loudly or mount exactly the model's
# objects, never a partly staged one. FuzzVerifiedRestoreWidth holds the
# verified path at its default width to Workers: 1 over random ranges and
# random damage: the same bytes or both fail, never a wrong byte, and a
# failure exactly when a damaged claim overlaps a served byte.
# FuzzClientHostileServer bends an honest server model's every answer to
# PutFile, Restore, RestoreRange and List: the client never panics or hangs,
# claims a file only once its FileEnd was acked and a restore only for the
# declared size and SHA-1, and never parks a link that saw garbage. The wire
# decoders are fuzzed behind the wire format's oracle: every sample
# message's payload pinned as hex from the hand-written codec the field
# codec replaced, each message's Marshal at one allocation and its decode
# at no more than that codec made; then any payload a decoder accepts must
# re-encode byte for byte.
# Every fuzz line caps -fuzzminimizetime at 2 s. Minimizing a new input may
# otherwise take the fuzzer's default of 60 s, and with it the whole
# -fuzztime: uncapped, a 20 s run of FuzzCandidatesMatchRoll once executed
# about 20 inputs, capped about 40,000. -fuzztime is unchanged.
go test -run '^$' -fuzz 'FuzzWALScanReplay' -fuzztime 20s -fuzzminimizetime 2s ./internal/simdisk
go test -run '^$' -fuzz 'FuzzVerifiedRestoreWidth' -fuzztime 20s -fuzzminimizetime 2s ./dedup
go test -run '^$' -fuzz 'FuzzClientHostileServer' -fuzztime 20s -fuzzminimizetime 2s ./internal/client
go test -run '^$' -fuzz 'FuzzEncodeDecodeName' -fuzztime 5s -fuzzminimizetime 2s ./internal/simdisk
go test -run '^$' -fuzz 'FuzzDecodeManifest$' -fuzztime 5s -fuzzminimizetime 2s ./internal/store
go test -run '^$' -fuzz 'FuzzDecodeFileManifest' -fuzztime 5s -fuzzminimizetime 2s ./internal/store
go test -run '^$' -fuzz 'FuzzDecompressRecipe' -fuzztime 5s -fuzzminimizetime 2s ./internal/store
go test -count=1 -run 'TestGoldenPayloads|TestCodecAllocs|TestRestoreRangeBounds' ./internal/wire
go test -run '^$' -fuzz 'FuzzWireDecode$' -fuzztime 20s -fuzzminimizetime 2s ./internal/wire
go test -run '^$' -fuzz 'FuzzWireReplicaDecode' -fuzztime 20s -fuzzminimizetime 2s ./internal/wire
go test -run '^$' -fuzz 'FuzzChunkerParity' -fuzztime 5s -fuzzminimizetime 2s ./internal/chunker
go test -run '^$' -fuzz 'FuzzPutChunksAnyCuts' -fuzztime 5s -fuzzminimizetime 2s ./internal/core

echo "CI OK"
