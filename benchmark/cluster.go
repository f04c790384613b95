package main

import (
	"bytes"
	"fmt"
	"math"
	"net"
	"time"

	"mhdedup/dedup"
	"mhdedup/internal/client"
	"mhdedup/internal/cluster"
	"mhdedup/internal/core"
	"mhdedup/internal/metrics"
	"mhdedup/internal/server"
)

const (
	clusterShards      = 3
	clusterReplication = 2
	// clusterSeekPasses is how often a repetition tries every ranged
	// restore; a seek's latency is the fastest of its tries. A seek through
	// the gateway is two fresh TCP connections and a dozen goroutine
	// hand-offs, so one try measures where the scheduler happened to put
	// them: the p50 of single tries moved between 0.58 and 0.95 ms from one
	// pass to the next over the same cluster, the p50 of the fastest of 8
	// between 0.50 and 0.58 ms. The machine speed is measured after every
	// pass, which also steadies the repetition's mean speed.
	clusterSeekPasses = 8
)

// benchCluster is an in-process gateway in front of in-memory dedupd
// shards on loopback, each with a registry of its own (the way
// cmd/bench/cluster.go builds them).
type benchCluster struct {
	engines []dedup.Engine
	servers []*server.Server
	regs    []*metrics.Registry
	shards  []cluster.Shard
	gw      *cluster.Gateway
	gwReg   *metrics.Registry
	cfg     client.Config
}

func (bc *benchCluster) close() {
	if bc.gw != nil {
		bc.gw.Close()
	}
	for _, s := range bc.servers {
		s.Close()
	}
}

func startCluster(in *input) (*benchCluster, error) {
	bc := &benchCluster{gwReg: metrics.NewRegistry()}
	for i := 0; i < clusterShards; i++ {
		eng, err := dedup.New(dedup.MHD, engineOptions(in))
		if err != nil {
			bc.close()
			return nil, err
		}
		reg := metrics.NewRegistry()
		srv, err := server.New(server.Config{Engine: eng.(*core.Dedup), Registry: reg})
		if err != nil {
			bc.close()
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			bc.close()
			return nil, err
		}
		go srv.Serve(ln) // returns when close() closes the server
		bc.engines = append(bc.engines, eng)
		bc.servers = append(bc.servers, srv)
		bc.regs = append(bc.regs, reg)
		bc.shards = append(bc.shards, cluster.Shard{ID: fmt.Sprintf("s%d", i), Addr: ln.Addr().String()})
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Shards: bc.shards, Replication: clusterReplication, Registry: bc.gwReg})
	if err != nil {
		bc.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		bc.close()
		return nil, err
	}
	go gw.Serve(ln) // returns when close() closes the gateway
	bc.gw = gw
	bc.cfg = client.Config{Addr: ln.Addr().String(), Options: bc.servers[0].Options()}
	return bc, nil
}

// sumCounter adds one counter over the shard registries.
func (bc *benchCluster) sumCounter(name string) float64 {
	var t int64
	for _, r := range bc.regs {
		t += r.Counter(name).Load()
	}
	return float64(t)
}

// sumHistSeconds adds one nanosecond histogram's sum over the shards.
func (bc *benchCluster) sumHistSeconds(name string) float64 {
	var t int64
	for _, r := range bc.regs {
		t += r.Histogram(name).Snapshot().Sum
	}
	return float64(t) / 1e9
}

// runCluster is one repetition of gen-cluster: one client.Ingestor puts
// every file through the gateway, then every file is restored verified
// and plain, and ranges are restored, all through the gateway.
func runCluster(h *harness, in *input, tr *tracer) (*rep, error) {
	r := h.newRep()
	bc, err := startCluster(in)
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	defer bc.close()

	rtt := metrics.GetHistogram("client.offer_rtt_ns")
	rttBefore := rtt.BucketCounts()
	marks := markHists() // the shards' engines record into the Default registry
	before := readProc()
	phase := tr.open("ingest", 0, "")
	start := time.Now()
	ing, err := client.Connect(bc.cfg)
	d := time.Since(start)
	tr.add("client.Connect", phase, "", start, d)
	if err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	r.v["client.connect_ms"] = ms(d)
	var putSecs float64
	var puts []float64
	for _, f := range in.files {
		t0 := time.Now()
		err := ing.PutFile(f.name, bytes.NewReader(f.data))
		d := time.Since(t0)
		tr.add("client.PutFile", phase, f.name, t0, d)
		r.attempted++
		if err != nil {
			return nil, fmt.Errorf("put %s: %w", f.name, err)
		}
		putSecs += d.Seconds()
		puts = append(puts, ms(d))
	}
	t0 := time.Now()
	err = ing.Close()
	tr.add("client.Close", phase, "", t0, time.Since(t0))
	if err != nil {
		return nil, fmt.Errorf("close ingest session: %w", err)
	}
	wall := time.Since(start).Seconds()
	tr.close(phase)
	after := readProc()
	rttAfter := rtt.BucketCounts()

	cs := ing.Stats()
	if cs.InputBytes != in.bytes {
		r.fail("client chunked %d bytes of the %d put", cs.InputBytes, in.bytes)
	}
	r.calibrate()
	r.throughput("ingest_mb_s", in.bytes, wall)
	r.samples["put"] = puts
	r.v["client.put_s"] = putSecs
	r.v["client.offer_rtt_p50_ms"] = histQuantile(rttBefore, rttAfter, 0.5) / 1e6
	r.v["client.offer_rtt_p95_ms"] = histQuantile(rttBefore, rttAfter, 0.95) / 1e6
	r.v["client.chunks_offered"] = float64(cs.ChunksOffered)
	r.v["client.chunks_sent_frac"] = ratio(float64(cs.ChunksSent), float64(cs.ChunksOffered))
	r.v["wire.bytes_out_per_user_byte"] = ratio(float64(cs.WireBytesOut), float64(in.bytes))
	r.v["wire.bytes_in_per_user_byte"] = ratio(float64(cs.WireBytesIn), float64(in.bytes))
	marks.since(r, "core.chunk_hash_s", "core.lookup_s", "core.hook_probe_s",
		"core.manifest_load_s", "store.container_write_s")
	r.benchMetrics(before, after, in.bytes)
	r.engineCounts(in.bytes, bc.engines...)

	// Ingest-side server and gateway accounting, read before the restores
	// add their own frames to the same counters.
	r.v["server.apply_s"] = bc.sumHistSeconds("server.apply_ns")
	r.v["server.commit_s"] = bc.sumHistSeconds("server.commit_ns")
	r.v["server.frame_chunk_data_s"] = bc.sumHistSeconds("server.frame.chunk_data_ns")
	r.v["server.chunks_received"] = bc.sumCounter("server.chunks.received")
	r.v["server.cache_hit_frac"] = ratio(bc.sumCounter("server.chunks.cache_hits"), bc.sumCounter("server.chunks.offered"))
	r.v["server.peer_chunks_served"] = bc.sumCounter("server.peer.chunks_served")
	r.v["server.shed"] = bc.sumCounter("server.shed")
	fromClient := float64(bc.gwReg.Counter("gateway.chunks.from_client").Load())
	peerRouted := float64(bc.gwReg.Counter("gateway.chunks.peer_routed").Load())
	r.v["cluster.from_client_chunks"] = fromClient
	r.v["cluster.peer_routed_chunks"] = peerRouted
	r.v["cluster.peer_routed_frac"] = ratio(peerRouted, peerRouted+fromClient)
	r.v["cluster.peer_seeded"] = float64(bc.gwReg.Counter("gateway.chunks.peer_seeded").Load())
	r.v["cluster.wire_bytes_in"] = float64(bc.gwReg.Counter("gateway.wire.bytes_in").Load())
	r.v["cluster.wire_bytes_out"] = float64(bc.gwReg.Counter("gateway.wire.bytes_out").Load())
	r.v["cluster.relay_amp"] = ratio(bc.sumCounter("server.wire.bytes_in"), float64(cs.WireBytesOut))
	r.v["bench.unattributed_frac"] = 1 - ratio(r.v["server.apply_s"], putSecs)
	r.v["cluster.files"] = float64(len(in.files))
	minFiles, minBytes, maxBytes := math.Inf(1), math.Inf(1), 0.0
	for _, fb := range bc.gw.ShardStats() {
		minFiles = math.Min(minFiles, float64(fb[0]))
		minBytes = math.Min(minBytes, float64(fb[1]))
		maxBytes = math.Max(maxBytes, float64(fb[1]))
	}
	r.v["cluster.min_shard_files"] = minFiles
	r.v["cluster.balance_ratio"] = ratio(maxBytes, minBytes)

	out := newCapture(in.maxFile)
	restoreAll := func(metric, name string, verify bool) {
		phase := tr.open(name, 0, "")
		var secs float64
		for _, f := range in.files {
			out.reset()
			t0 := time.Now()
			_, err := client.Restore(bc.cfg, f.name, verify, out)
			d := time.Since(t0)
			tr.add("client.Restore", phase, f.name, t0, d)
			secs += d.Seconds()
			r.check(out, f.data, name+" "+f.name, err)
		}
		tr.close(phase)
		r.calibrate()
		r.throughput(metric, in.bytes, secs)
	}
	restoreAll("restore_verified_mb_s", "restore-verified", true)
	restoreAll("restore_mb_s", "restore", false)
	r.v["client.restore_plain_mb_s"] = r.v["raw.restore_mb_s"]

	phase = tr.open("restore-range", 0, "")
	n := h.ranges()
	seeks := in.seeks(h.cfg.seed, n/10+n)
	seekOnce := func(s seek) (time.Time, time.Duration, error) {
		out.reset()
		t0 := time.Now()
		_, err := client.RestoreRange(bc.cfg, in.files[s.file].name, false, s.off, s.length, out)
		return t0, time.Since(t0), err
	}
	for _, s := range seeks[:n/10] { // unmeasured
		seekOnce(s)
	}
	seeks = seeks[n/10:]
	seekMS := make([]float64, n)
	for pass := 0; pass < clusterSeekPasses; pass++ {
		for i, s := range seeks {
			f := in.files[s.file]
			t0, d, err := seekOnce(s)
			tr.add("client.RestoreRange", phase, fmt.Sprintf("%s@%d#%d", f.name, s.off, pass), t0, d)
			if pass == 0 || ms(d) < seekMS[i] {
				seekMS[i] = ms(d)
			}
			r.check(out, f.data[s.off:s.off+s.length], fmt.Sprintf("range %s@%d", f.name, s.off), err)
		}
		r.calibrate()
	}
	tr.close(phase)
	r.samples["range"] = seekMS
	r.v["server.restore_s"] = bc.sumHistSeconds("server.restore_ns")
	r.v["cluster.restore_failovers"] = float64(bc.gwReg.Counter("gateway.restore.failovers").Load())

	rr := bc.gw.CheckReplication()
	r.v["cluster.under_replicated"] = float64(len(rr.Under))
	if rr.Files != len(in.files) {
		r.fail("the cluster holds %d files of the %d put", rr.Files, len(in.files))
	}
	r.keepFor(bc.engines[0].Disk(), 0)
	return r, nil
}
