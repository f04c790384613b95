// Command dedup-gw is the cluster gateway: clients speak the ordinary
// internal/wire protocol to it as if it were a single dedupd, and the
// gateway partitions the work across a fleet of unmodified dedupd shards
// with a consistent-hash ring. Files are homed whole on the ring owner
// of their (tenant-namespaced) name; chunk hashes are consistent-hash
// routed during the offer→need negotiation, so a chunk any tenant has
// pushed through the cluster is served shard→shard instead of crossing a
// client link twice. Tenancy — authentication, namespace isolation and
// logical-byte quotas — lives entirely at the gateway.
//
// Examples:
//
//	dedup-gw -addr :7450 -shards s0=10.0.0.1:7444,s1=10.0.0.2:7444
//	dedup-gw -addr :7450 -shards s0=:7444,s1=:7445 -tenants tenants.json -metrics-addr :7451
//
// The -tenants file is a JSON object mapping tenant name to
// {"secret": "...", "quota_bytes": N} (quota 0 = unlimited); without it
// the gateway runs open (any tenant, no quota).
//
// -metrics-addr serves /metrics.json (gateway counters, per-shard
// routing balance, tenant usage), /healthz, /events.json and the
// standard pprof profiles, plus the admin verbs:
//
//	POST /drain-shard?id=<shard>      remove a shard from the write ring:
//	                                  new files route to the survivors while
//	                                  everything already stored on it stays
//	                                  restorable
//	POST /rebalance-shard?id=<shard>  drain the shard AND migrate every file
//	                                  it holds to the files' new write-ring
//	                                  owners, emptying it for decommission
//	POST /repair-scan                 re-replicate every under-replicated
//	                                  file onto its missing write-ring owners
//	GET  /replication                 report how many files sit on all of
//	                                  their owners (the invariant check)
//
// -replication N stores each file on the N distinct write-ring successor
// owners of its name: with N>=2 any single shard can die without losing
// an acked file (restores fail over to a surviving replica, and
// /repair-scan restores the factor afterwards).
//
// On SIGINT/SIGTERM the gateway drains: it stops accepting, refuses new
// sessions retryably, and waits (bounded by -drain-timeout) for in-flight
// sessions. A second signal forces exit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"mhdedup/internal/cluster"
	"mhdedup/internal/events"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
)

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":7450", "listen address")
	flag.StringVar(&o.metricsAddr, "metrics-addr", "", "serve /metrics.json, /healthz and /drain-shard on this address (off when empty)")
	flag.StringVar(&o.shards, "shards", "", "cluster membership as id=addr,id=addr,... (required)")
	flag.IntVar(&o.vnodes, "vnodes", cluster.DefaultVNodes, "virtual nodes per shard on the hash ring")
	flag.IntVar(&o.replication, "replication", 1, "distinct shards holding each file (>=2 survives a single shard death)")
	flag.StringVar(&o.tenantsFile, "tenants", "", "JSON tenant table: {\"name\": {\"secret\": \"...\", \"quota_bytes\": N}, ...} (empty = open gateway)")
	flag.IntVar(&o.maxSessions, "max-sessions", 64, "maximum concurrent client ingest sessions")
	flag.IntVar(&o.window, "window", 8, "per-session in-flight command window (must not exceed the shards' window)")
	flag.DurationVar(&o.idleTimeout, "idle-timeout", 2*time.Minute, "close connections idle longer than this")
	flag.DurationVar(&o.resumeTimeout, "resume-timeout", 90*time.Second, "keep detached client sessions resumable this long (keep below the shards' resume timeout)")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", time.Minute, "bound on graceful drain before forcing shutdown")
	flag.StringVar(&o.logLevel, "log-level", "info", "event log level: debug, info, warn or error")
	flag.DurationVar(&o.slowOp, "slow-op", 100*time.Millisecond, "emit a warn slow_op event for operations at or above this duration (negative disables)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "dedup-gw:", err)
		os.Exit(1)
	}
}

type options struct {
	addr          string
	metricsAddr   string
	shards        string
	vnodes        int
	replication   int
	tenantsFile   string
	maxSessions   int
	window        int
	idleTimeout   time.Duration
	resumeTimeout time.Duration
	drainTimeout  time.Duration
	logLevel      string
	slowOp        time.Duration
}

// parseShards turns "s0=host:7444,s1=host:7445" into ring membership.
func parseShards(spec string) ([]cluster.Shard, error) {
	if spec == "" {
		return nil, fmt.Errorf("-shards is required (id=addr,id=addr,...)")
	}
	var out []cluster.Shard
	for _, part := range strings.Split(spec, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad shard spec %q (want id=addr)", part)
		}
		out = append(out, cluster.Shard{ID: id, Addr: addr})
	}
	return out, nil
}

func loadTenants(path string) (map[string]cluster.TenantAuth, error) {
	if path == "" {
		return nil, nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var table map[string]cluster.TenantAuth
	if err := json.Unmarshal(raw, &table); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return table, nil
}

func run(o options) error {
	logger := log.New(os.Stderr, "dedup-gw: ", log.LstdFlags)
	level, err := events.ParseLevel(o.logLevel)
	if err != nil {
		return err
	}
	evlog := events.New(events.Options{
		Level:           level,
		Out:             os.Stderr,
		SlowOpThreshold: o.slowOp,
	})
	shards, err := parseShards(o.shards)
	if err != nil {
		return err
	}
	tenants, err := loadTenants(o.tenantsFile)
	if err != nil {
		return err
	}
	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Shards:        shards,
		VNodes:        o.vnodes,
		Replication:   o.replication,
		Tenants:       tenants,
		MaxSessions:   o.maxSessions,
		Window:        o.window,
		IdleTimeout:   o.idleTimeout,
		ResumeTimeout: o.resumeTimeout,
		Events:        evlog,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	// Bound before anything serves: a gateway that came up without its
	// health endpoint and admin verbs would look dead to whatever runs it.
	var mln net.Listener
	if o.metricsAddr != "" {
		if mln, err = net.Listen("tcp", o.metricsAddr); err != nil {
			ln.Close()
			return fmt.Errorf("-metrics-addr: %w", err)
		}
	}
	ids := make([]string, len(shards))
	for i, s := range shards {
		ids[i] = s.ID
	}
	logger.Printf("listening on %s, routing %d shards (%s), replication %d, %d tenants, max sessions %d, window %d, sha1 %s",
		ln.Addr(), len(shards), strings.Join(ids, " "), gw.Replication(), len(tenants), o.maxSessions, o.window, hashutil.Kernel())
	metrics.Default.SetGauge("hashutil.sha_ni", hashutil.SHANI)

	var draining atomic.Bool
	var msrv *http.Server
	if mln != nil {
		msrv = metricsServer(gw, evlog, &draining, logger)
		go func() {
			if err := msrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				logger.Printf("metrics server: %v", err)
			}
		}()
		logger.Printf("debug endpoints on http://%s: /metrics.json /healthz /events.json /drain-shard /debug/pprof/", mln.Addr())
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- gw.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-sigCtx.Done():
	}
	stop() // second signal kills the process
	draining.Store(true)
	logger.Printf("draining (timeout %v)...", o.drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := gw.Drain(drainCtx); err != nil {
		logger.Printf("drain incomplete: %v (sessions aborted)", err)
	}
	<-serveErr
	if msrv != nil {
		msrv.Close()
	}
	balance := gw.ShardStats()
	for _, id := range ids {
		logger.Printf("shard %s: %d files, %d logical bytes homed", id, balance[id][0], balance[id][1])
	}
	logger.Printf("shut down")
	return nil
}

// metricsServer is the gateway's debug/admin endpoint set.
func metricsServer(gw *cluster.Gateway, evlog *events.Log,
	draining *atomic.Bool, logger *log.Logger) *http.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		export := metrics.Default.ExportAll()
		type shardLine struct {
			ID    string `json:"id"`
			Files int64  `json:"files"`
			Bytes int64  `json:"bytes"`
		}
		stats := gw.ShardStats()
		shardDoc := make([]shardLine, 0, len(stats))
		for id, fb := range stats {
			shardDoc = append(shardDoc, shardLine{ID: id, Files: fb[0], Bytes: fb[1]})
		}
		sort.Slice(shardDoc, func(a, b int) bool { return shardDoc[a].ID < shardDoc[b].ID })
		doc := struct {
			Counters   map[string]int64                     `json:"counters"`
			Gauges     map[string]int64                     `json:"gauges,omitempty"`
			Histograms map[string]metrics.HistogramSnapshot `json:"histograms,omitempty"`
			Sessions   int                                  `json:"sessions"`
			Shards     []shardLine                          `json:"shards"`
			Tenants    map[string]int64                     `json:"tenant_used_bytes"`
		}{
			Counters:   export.Counters,
			Gauges:     export.Gauges,
			Histograms: export.Histograms,
			Sessions:   gw.SessionCount(),
			Shards:     shardDoc,
			Tenants:    gw.Tenants().Usage(),
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(doc)
	})
	mux.HandleFunc("/events.json", func(w http.ResponseWriter, r *http.Request) {
		evs := evlog.Recent()
		type line struct {
			Time  string `json:"time"`
			Level string `json:"level"`
			Type  string `json:"type"`
			Line  string `json:"line"`
		}
		out := make([]line, len(evs))
		for i, e := range evs {
			out[i] = line{
				Time:  e.Time.Format(time.RFC3339Nano),
				Level: e.Level.String(),
				Type:  e.Type,
				Line:  e.String(),
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Events []line `json:"events"`
		}{Events: out})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	// POST /drain-shard?id=s1 — the online rebalance verb: remove a shard
	// from the write ring while keeping its stored files readable.
	mux.HandleFunc("/drain-shard", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		id := r.URL.Query().Get("id")
		if id == "" {
			http.Error(w, "missing ?id=", http.StatusBadRequest)
			return
		}
		if err := gw.DrainShard(id); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		logger.Printf("shard %s removed from the write ring", id)
		fmt.Fprintf(w, "shard %s draining\n", id)
	})
	// POST /rebalance-shard?id=s1 — drain and EMPTY the shard: every file
	// it holds is migrated to the file's new write-ring owners and only
	// then dropped, leaving the shard safe to decommission.
	mux.HandleFunc("/rebalance-shard", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		id := r.URL.Query().Get("id")
		if id == "" {
			http.Error(w, "missing ?id=", http.StatusBadRequest)
			return
		}
		rep, err := gw.RebalanceShard(id)
		if err != nil {
			logger.Printf("rebalance of %s failed: %v (report %+v)", id, err, rep)
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		logger.Printf("shard %s rebalanced: %d files, %d migrated, %d dropped", id, rep.Files, rep.Migrated, rep.Dropped)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	})
	// POST /repair-scan — re-replicate under-replicated files back to the
	// configured factor (after a shard death, or after raising -replication).
	mux.HandleFunc("/repair-scan", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		rep, err := gw.RepairScan()
		if err != nil {
			logger.Printf("repair scan incomplete: %v (report %+v)", err, rep)
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		logger.Printf("repair scan: %d files, %d repaired, %d unfixable, %d skipped",
			rep.Files, rep.Repaired, rep.Unfixable, rep.Skipped)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	})
	// GET /replication — the invariant check: which files are missing from
	// one of their write-ring owners.
	mux.HandleFunc("/replication", func(w http.ResponseWriter, r *http.Request) {
		rep := gw.CheckReplication()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return &http.Server{Handler: mux}
}
