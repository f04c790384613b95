package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json repeats these
// tables (bench_test.go pins the two against each other).
type metricDef struct {
	name, unit string
	// higher is true when a larger value is better.
	higher bool
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen; zero for per-layer metrics, which have no gate.
	bound float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one of them from real measurements, because the contract
// asks each run for the whole list: that is why the ISSUE's mount_s (which
// only a durable store has) is the per-layer store.open_s instead, and why
// failed_frac, which is 0 on every healthy run, is reported as ok_frac.
// The bounds cover the spread between ten seeds, which the driver's
// acceptance test measures, with about a factor of two to spare (README).
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"ingest_mb_s", "MiB/s", true, 0.20},
	{"restore_mb_s", "MiB/s", true, 0.20},
	{"restore_verified_mb_s", "MiB/s", true, 0.25},
	{"range_p50_ms", "ms", false, 0.20},
	{"put_p50_ms", "ms", false, 0.20},
	{"put_p90_ms", "ms", false, 0.20},
	{"stored_per_user_byte", "ratio", false, 0.10},
	{"metadata_per_user_byte", "ratio", false, 0.10},
	{"ok_frac", "ratio", true, 0.001},
}

// perLayer are the single-layer metrics of the traced run, grouped by the
// module they describe. A layer that is not on a workload's path reports 0.
var perLayer = []metricDef{
	{name: "trace.gen_mb_s", unit: "MiB/s", higher: true},

	{name: "chunker.scan_s", unit: "s"},
	{name: "chunker.mb_s", unit: "MiB/s", higher: true},
	{name: "chunker.chunks", unit: "count"},
	{name: "chunker.mean_chunk_bytes", unit: "bytes"},

	{name: "hashutil.sha1_mb_s", unit: "MiB/s", higher: true},
	{name: "hashutil.hashed_per_input_byte", unit: "ratio"},
	{name: "hashutil.est_s", unit: "s"},

	{name: "bloom.test_ns_per_op", unit: "ns"},
	{name: "bloom.add_ns_per_op", unit: "ns"},
	{name: "bloom.est_s", unit: "s"},

	{name: "core.put_s", unit: "s"},
	{name: "core.chunk_hash_s", unit: "s"},
	{name: "core.lookup_s", unit: "s"},
	{name: "core.hook_probe_s", unit: "s"},
	{name: "core.manifest_load_s", unit: "s"},
	{name: "core.chunks_in", unit: "count"},
	{name: "core.dup_chunk_frac", unit: "ratio", higher: true},
	{name: "core.dup_byte_frac", unit: "ratio", higher: true},
	{name: "core.dup_slices", unit: "count"},
	{name: "core.hhr_ops", unit: "count"},
	{name: "core.hhr_disk_accesses", unit: "count"},
	{name: "core.manifest_loads", unit: "count"},
	{name: "core.self_s", unit: "s"},

	{name: "store.container_write_s", unit: "s"},
	{name: "store.container_read_s", unit: "s"},
	{name: "store.restore_s", unit: "s"},
	{name: "store.restore_refs", unit: "count"},
	{name: "store.restore_reads", unit: "count"},
	{name: "store.coalesce_ratio", unit: "ratio", higher: true},
	{name: "store.range_p50_us", unit: "us"},
	{name: "store.range_p99_us", unit: "us"},
	{name: "store.recipe_reads_per_seek", unit: "count"},
	{name: "store.recipe_reads_max", unit: "count"},
	{name: "store.refs_per_file_max", unit: "count"},
	{name: "store.hook_bytes_per_user_mib", unit: "B/MiB"},
	{name: "store.manifest_bytes_per_user_mib", unit: "B/MiB"},
	{name: "store.file_manifest_bytes_per_user_mib", unit: "B/MiB"},
	{name: "store.recipe_bytes_per_user_mib", unit: "B/MiB"},
	{name: "store.commit_p50_ms", unit: "ms"},
	{name: "store.commit_p95_ms", unit: "ms"},
	{name: "store.open_s", unit: "s"},
	{name: "store.compact_s", unit: "s"},

	{name: "simdisk.accesses_per_user_mib", unit: "1/MiB"},
	{name: "simdisk.creates", unit: "count"},
	{name: "simdisk.reads", unit: "count"},
	{name: "simdisk.bytes_written_per_user_byte", unit: "ratio"},
	{name: "simdisk.bytes_read_per_user_byte", unit: "ratio"},
	{name: "simdisk.inodes_per_user_mib", unit: "1/MiB"},
	{name: "simdisk.create_mb_s", unit: "MiB/s", higher: true},
	{name: "simdisk.read_mb_s", unit: "MiB/s", higher: true},
	{name: "simdisk.create_s", unit: "s"},
	{name: "simdisk.wal_bytes_per_user_byte", unit: "ratio"},
	{name: "simdisk.wal_records", unit: "count"},
	{name: "simdisk.wal_syncs", unit: "count"},
	{name: "simdisk.replay_records", unit: "count"},
	{name: "simdisk.wal_append_mb_s", unit: "MiB/s", higher: true},
	{name: "simdisk.wal_sync_p50_ms", unit: "ms"},
	{name: "simdisk.replay_mb_s", unit: "MiB/s", higher: true},
	{name: "simdisk.dir_bytes_per_user_byte", unit: "ratio"},

	{name: "wire.frame_mb_s", unit: "MiB/s", higher: true},
	{name: "wire.decode_mb_s", unit: "MiB/s", higher: true},
	{name: "wire.bytes_out_per_user_byte", unit: "ratio"},
	{name: "wire.bytes_in_per_user_byte", unit: "ratio"},
	{name: "wire.est_s", unit: "s"},

	{name: "client.put_s", unit: "s"},
	{name: "client.connect_ms", unit: "ms"},
	{name: "client.restore_plain_mb_s", unit: "MiB/s", higher: true},
	{name: "client.offer_rtt_p50_ms", unit: "ms"},
	{name: "client.offer_rtt_p95_ms", unit: "ms"},
	{name: "client.chunks_offered", unit: "count"},
	{name: "client.chunks_sent_frac", unit: "ratio"},

	{name: "server.apply_s", unit: "s"},
	{name: "server.commit_s", unit: "s"},
	{name: "server.restore_s", unit: "s"},
	{name: "server.frame_chunk_data_s", unit: "s"},
	{name: "server.chunks_received", unit: "count"},
	{name: "server.cache_hit_frac", unit: "ratio", higher: true},
	{name: "server.peer_chunks_served", unit: "count"},
	{name: "server.shed", unit: "count"},

	{name: "cluster.from_client_chunks", unit: "count"},
	{name: "cluster.peer_routed_frac", unit: "ratio", higher: true},
	{name: "cluster.peer_seeded", unit: "count"},
	{name: "cluster.wire_bytes_in", unit: "bytes"},
	{name: "cluster.wire_bytes_out", unit: "bytes"},
	{name: "cluster.relay_amp", unit: "ratio"},
	{name: "cluster.balance_ratio", unit: "ratio"},
	{name: "cluster.restore_failovers", unit: "count"},
	{name: "cluster.idle_frac", unit: "ratio"},

	{name: "bench.machine_speed", unit: "ratio"},
	{name: "bench.user_cpu_s_per_gib", unit: "s/GiB"},
	{name: "bench.sys_cpu_s", unit: "s"},
	{name: "bench.minor_faults", unit: "count"},
	{name: "bench.alloc_bytes_per_user_byte", unit: "ratio"},
	{name: "bench.mallocs_per_user_mib", unit: "1/MiB"},
	{name: "bench.gc_cpu_frac", unit: "ratio"},
	{name: "bench.peak_rss_mb", unit: "MiB"},
	{name: "bench.rep_spread_frac", unit: "ratio"},
	{name: "bench.trace_overhead_frac", unit: "ratio"},
	{name: "bench.unattributed_frac", unit: "ratio"},
}

// exactAcrossReps names the per-repetition values that are pure functions
// of the input: a repetition that disagrees with the first fails the run.
// The cluster's chunk-routing split is left out because peer seeding races
// the next offer; what each shard ends up storing is still exact.
var exactAcrossReps = []string{
	"stored_per_user_byte", "metadata_per_user_byte",
	"hashutil.hashed_per_input_byte",
	"core.chunks_in", "core.dup_chunk_frac", "core.dup_byte_frac", "core.dup_slices",
	"core.hhr_ops", "core.hhr_disk_accesses", "core.manifest_loads",
	"store.restore_refs", "store.restore_reads", "store.recipe_reads_max", "store.refs_per_file_max",
	"store.hook_bytes_per_user_mib", "store.manifest_bytes_per_user_mib",
	"store.file_manifest_bytes_per_user_mib", "store.recipe_bytes_per_user_mib",
	"simdisk.creates", "simdisk.reads", "simdisk.bytes_written_per_user_byte",
	"simdisk.bytes_read_per_user_byte", "simdisk.inodes_per_user_mib",
	"simdisk.wal_records", "simdisk.wal_syncs", "simdisk.replay_records",
	"client.chunks_offered",
}

const mib = 1 << 20

func mbPerS(bytes int64, secs float64) float64 {
	if secs <= 0 {
		return 0
	}
	return float64(bytes) / mib / secs
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the nearest-rank q-quantile of v (0 for no samples).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// spreadFrac is (max − min) / median: how far repetitions of one run
// disagree. A noisy run shows here before it shows in a bound.
func spreadFrac(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return ratio(hi-lo, median(v))
}

// histQuantile is the q-quantile upper bound of the observations between
// two metrics.Histogram.BucketCounts snapshots (bucket b holds values in
// [2^(b-1), 2^b), so the answer is exact to within 2×).
func histQuantile(before, after []int64, q float64) float64 {
	var total int64
	for i := range after {
		total += after[i] - before[i]
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	var cum int64
	for i := range after {
		cum += after[i] - before[i]
		if cum >= rank {
			if i == 0 {
				return 0
			}
			return float64(int64(1)<<uint(i) - 1)
		}
	}
	return 0
}
