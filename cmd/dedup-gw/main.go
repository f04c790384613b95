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
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"mhdedup/internal/cluster"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/session"
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
	d, err := session.NewDaemon("dedup-gw", o.logLevel, o.slowOp)
	if err != nil {
		return err
	}
	logger := d.Logger
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
		Events:        d.Events,
	})
	if err != nil {
		return err
	}
	addr, err := d.Listen(o.addr, o.metricsAddr)
	if err != nil {
		return err
	}
	ids := make([]string, len(shards))
	for i, s := range shards {
		ids[i] = s.ID
	}
	logger.Printf("listening on %s, routing %d shards (%s), replication %d, %d tenants, max sessions %d, window %d, sha1 %s",
		addr, len(shards), strings.Join(ids, " "), gw.Replication(), len(tenants), o.maxSessions, o.window, hashutil.Kernel())
	metrics.Default.SetGauge("hashutil.sha_ni", hashutil.SHANI)
	metrics.Default.SetGauge("hashutil.lanes", hashutil.Lanes)

	admin := func(mux *http.ServeMux) { adminVerbs(mux, gw, logger) }
	if err := d.Run(gw, o.drainTimeout, func() any { return metricsDoc(gw) }, admin); err != nil {
		return err
	}
	balance := gw.ShardStats()
	for _, id := range ids {
		logger.Printf("shard %s: %d files, %d logical bytes homed", id, balance[id][0], balance[id][1])
	}
	logger.Printf("shut down")
	return nil
}

// metricsDoc is /metrics.json: gateway counters, per-shard routing balance
// and tenant usage.
func metricsDoc(gw *cluster.Gateway) any {
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
	return struct {
		metrics.Export
		Sessions int              `json:"sessions"`
		Shards   []shardLine      `json:"shards"`
		Tenants  map[string]int64 `json:"tenant_used_bytes"`
	}{metrics.Default.ExportAll(), gw.SessionCount(), shardDoc, gw.Tenants().Usage()}
}

// adminVerbs adds the gateway's admin endpoints to the debug mux.
func adminVerbs(mux *http.ServeMux, gw *cluster.Gateway, logger *log.Logger) {
	// post registers a POST-only verb, on the shard ?id= names when needID;
	// a verb that fails answers 409 with its error.
	post := func(path string, needID bool, do func(w http.ResponseWriter, id string) error) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			id := r.URL.Query().Get("id")
			switch {
			case r.Method != http.MethodPost:
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
			case needID && id == "":
				http.Error(w, "missing ?id=", http.StatusBadRequest)
			default:
				if err := do(w, id); err != nil {
					http.Error(w, err.Error(), http.StatusConflict)
				}
			}
		})
	}
	reply := func(w http.ResponseWriter, rep any) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rep)
	}
	// POST /drain-shard?id=s1 — the online rebalance verb: remove a shard
	// from the write ring while keeping its stored files readable.
	post("/drain-shard", true, func(w http.ResponseWriter, id string) error {
		if err := gw.DrainShard(id); err != nil {
			return err
		}
		logger.Printf("shard %s removed from the write ring", id)
		fmt.Fprintf(w, "shard %s draining\n", id)
		return nil
	})
	// POST /rebalance-shard?id=s1 — drain and EMPTY the shard: every file
	// it holds is migrated to the file's new write-ring owners and only
	// then dropped, leaving the shard safe to decommission.
	post("/rebalance-shard", true, func(w http.ResponseWriter, id string) error {
		rep, err := gw.RebalanceShard(id)
		if err != nil {
			logger.Printf("rebalance of %s failed: %v (report %+v)", id, err, rep)
			return err
		}
		logger.Printf("shard %s rebalanced: %d files, %d migrated, %d dropped", id, rep.Files, rep.Migrated, rep.Dropped)
		reply(w, rep)
		return nil
	})
	// POST /repair-scan — re-replicate under-replicated files back to the
	// configured factor (after a shard death, or after raising -replication).
	post("/repair-scan", false, func(w http.ResponseWriter, _ string) error {
		rep, err := gw.RepairScan()
		if err != nil {
			logger.Printf("repair scan incomplete: %v (report %+v)", err, rep)
			return err
		}
		logger.Printf("repair scan: %d files, %d repaired, %d unfixable, %d skipped",
			rep.Files, rep.Repaired, rep.Unfixable, rep.Skipped)
		reply(w, rep)
		return nil
	})
	// GET /replication — the invariant check: which files are missing from
	// one of their write-ring owners.
	mux.HandleFunc("/replication", func(w http.ResponseWriter, r *http.Request) { reply(w, gw.CheckReplication()) })
}
