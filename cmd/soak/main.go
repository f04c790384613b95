// Command soak is the cluster churn harness: it stands up an in-process
// dedup cluster (N dedupd shards + one dedup-gw gateway, all over real
// loopback TCP) and hammers it with concurrent simulated clients — a
// tenant mix running ingest, restore-and-verify, list, session churn and
// injected connection deaths — while draining one shard mid-run. Every
// restored byte is compared against independently tracked expected
// content; the run FAILS on any corruption, any unexpected error, or a
// final heap footprint above the bound.
//
// With -replication N each file is stored on N distinct shards, and
// -kill-shard hard-kills one shard halfway through (then drains it from
// the write ring and repairs afterwards): every file acked before or
// after the kill must still verify bit-identical — the N>=2 durability
// claim, gated under full churn.
//
//	soak -duration 2m -shards 3 -clients 6
//	soak -short            # the ~30s CI preset
//	soak -short -replication 2 -kill-shard
//
// Exit status 0 means: zero corruption, all verifications passed, heap
// within budget.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"log"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mhdedup/internal/client"
	"mhdedup/internal/cluster"
	"mhdedup/internal/core"
	"mhdedup/internal/events"
	"mhdedup/internal/exp"
	"mhdedup/internal/metrics"
	"mhdedup/internal/server"
	"mhdedup/internal/wire"
)

func main() {
	var o options
	flag.BoolVar(&o.short, "short", false, "CI preset: ~30s, 3 shards, 4 clients, small files")
	flag.DurationVar(&o.duration, "duration", 2*time.Minute, "churn phase length")
	flag.IntVar(&o.shards, "shards", 3, "number of dedupd shards")
	flag.IntVar(&o.replication, "replication", 1, "distinct shards holding each file")
	flag.BoolVar(&o.killShard, "kill-shard", false, "hard-kill one shard mid-run (requires -replication >= 2); all acked files must still verify")
	flag.IntVar(&o.clients, "clients", 6, "concurrent simulated clients")
	flag.IntVar(&o.fileSize, "file-size", 1<<20, "base file size in bytes")
	flag.IntVar(&o.filesPerClient, "files-per-client", 6, "distinct file names each client cycles through")
	flag.Int64Var(&o.seed, "seed", 1, "root RNG seed (runs are deterministic per seed, modulo scheduling)")
	flag.IntVar(&o.killPercent, "kill-percent", 25, "percent of ingest sessions that get an injected connection death")
	flag.IntVar(&o.maxHeapMB, "max-heap-mb", 1024, "fail if post-GC HeapAlloc exceeds this after the run")
	flag.StringVar(&o.logLevel, "log-level", "warn", "cluster event log level: debug, info, warn or error")
	flag.Parse()
	if o.short {
		o.duration = 25 * time.Second
		o.shards = 3
		o.clients = 4
		o.fileSize = 256 << 10
		o.filesPerClient = 4
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "soak: FAIL:", err)
		os.Exit(1)
	}
	fmt.Println("soak: PASS")
}

type options struct {
	short          bool
	duration       time.Duration
	shards         int
	replication    int
	killShard      bool
	clients        int
	fileSize       int
	filesPerClient int
	seed           int64
	killPercent    int
	maxHeapMB      int
	logLevel       string
}

// tally is the shared op ledger.
type tally struct {
	ingests     atomic.Int64
	restores    atomic.Int64
	lists       atomic.Int64
	reconnects  atomic.Int64
	kills       atomic.Int64
	quotaSheds  atomic.Int64
	putRejects  atomic.Int64
	corruptions atomic.Int64
}

func run(o options) error {
	logger := log.New(os.Stderr, "soak: ", log.LstdFlags)
	level, err := events.ParseLevel(o.logLevel)
	if err != nil {
		return err
	}
	evlog := events.New(events.Options{Level: level, Out: os.Stderr})
	if o.killShard {
		if o.replication < 2 {
			return fmt.Errorf("-kill-shard needs -replication >= 2: at R=1 a dead shard IS data loss")
		}
		if o.shards-1 < o.replication {
			return fmt.Errorf("-kill-shard with %d shards leaves %d for replication %d",
				o.shards, o.shards-1, o.replication)
		}
	}

	// --- Stand up the cluster: N shards, one gateway. -------------------
	var shards []cluster.Shard
	var servers []*server.Server
	for i := 0; i < o.shards; i++ {
		p := exp.DefaultParams(exp.AlgoMHD, 4096, 64, 64<<20)
		eng, err := exp.Build(p)
		if err != nil {
			return err
		}
		// Abandoned sessions (quota sheds, injected deaths the client gave
		// up on) park resumable slots until ResumeTimeout, so a churn run
		// needs headroom plus a short expiry to keep slots cycling.
		srv, err := server.New(server.Config{
			Engine:        eng.(*core.Dedup),
			MaxSessions:   o.clients * 8,
			ResumeTimeout: 15 * time.Second,
			Registry:      metrics.NewRegistry(),
			Events:        evlog,
		})
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		go srv.Serve(ln)
		defer srv.Close()
		servers = append(servers, srv)
		shards = append(shards, cluster.Shard{ID: fmt.Sprintf("s%d", i), Addr: ln.Addr().String()})
	}
	options := servers[0].Options()

	// Tenant mix: every client gets its own authenticated tenant; the
	// last one is quota-capped so the shed path runs under churn too.
	tenants := make(map[string]cluster.TenantAuth, o.clients)
	for i := 0; i < o.clients; i++ {
		tenants[fmt.Sprintf("t%d", i)] = cluster.TenantAuth{Secret: fmt.Sprintf("secret-%d", i)}
	}
	capped := fmt.Sprintf("t%d", o.clients-1)
	tenants[capped] = cluster.TenantAuth{
		Secret:     fmt.Sprintf("secret-%d", o.clients-1),
		QuotaBytes: int64(o.fileSize) * int64(o.filesPerClient) * 2,
	}

	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Shards:        shards,
		Replication:   o.replication,
		Tenants:       tenants,
		MaxSessions:   o.clients * 6,
		ResumeTimeout: 10 * time.Second,
		Events:        evlog,
	})
	if err != nil {
		return err
	}
	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go gw.Serve(gwLn)
	defer gw.Close()
	gwAddr := gwLn.Addr().String()
	logger.Printf("cluster up: %d shards, gateway on %s, %d clients for %v",
		o.shards, gwAddr, o.clients, o.duration)

	// --- Churn. ---------------------------------------------------------
	var tl tally
	var shardDown atomic.Bool
	deadline := time.Now().Add(o.duration)
	var wg sync.WaitGroup
	errCh := make(chan error, o.clients)
	for i := 0; i < o.clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := &soakClient{
				id:        id,
				tenant:    fmt.Sprintf("t%d", id),
				secret:    fmt.Sprintf("secret-%d", id),
				capped:    fmt.Sprintf("t%d", id) == capped,
				gwAddr:    gwAddr,
				options:   options,
				o:         o,
				tl:        &tl,
				shardDown: &shardDown,
				rng:       rand.New(rand.NewSource(o.seed + int64(id)*7919)),
				version:   make(map[string]int),
				latest:    make(map[string][]byte),
				expect:    make(map[string][]byte),
			}
			if err := c.churn(deadline); err != nil {
				errCh <- fmt.Errorf("client %d: %w", id, err)
			}
		}(i)
	}

	// Halfway through: kill one shard outright (when asked) and drain it —
	// placement must reroute under load, and with replication >= 2 the
	// kill must have zero effect on any acked file.
	drainTimer := time.AfterFunc(o.duration/2, func() {
		victim := shards[0].ID
		if o.killShard {
			shardDown.Store(true)
			servers[0].Close()
			logger.Printf("KILLED shard %s mid-run", victim)
		}
		if err := gw.DrainShard(victim); err != nil {
			errCh <- fmt.Errorf("drain: %w", err)
			return
		}
		logger.Printf("drained shard %s mid-run", victim)
	})
	defer drainTimer.Stop()

	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}

	// --- Post-kill repair: restore the replication factor, then require
	// it. A file acked at R>=2 survived the kill on R-1 shards; repair
	// must bring every one back to all of its write-ring owners.
	if o.killShard {
		rep, err := gw.RepairScan()
		if err != nil {
			return fmt.Errorf("repair scan after shard kill: %w (report %+v)", err, rep)
		}
		logger.Printf("repair after shard kill: %d files seen, %d copies re-replicated", rep.Files, rep.Repaired)
		if chk := gw.CheckReplication(); len(chk.Under) > 0 {
			return fmt.Errorf("%d/%d files under-replicated after repair", len(chk.Under), chk.Files)
		}
	}

	// --- Final full verification pass. ----------------------------------
	// Every client re-lists and re-restores everything it believes it
	// stored, through fresh fault-free connections.
	finalErrs := 0
	verified := 0
	for _, c := range allClients {
		names, err := client.List(c.cleanConfig())
		if err != nil {
			return fmt.Errorf("final list for %s: %w", c.tenant, err)
		}
		have := make(map[string]bool, len(names))
		for _, n := range names {
			have[n] = true
		}
		for name, want := range c.expect {
			if !have[name] {
				logger.Printf("CORRUPTION: tenant %s file %s missing from listing", c.tenant, name)
				finalErrs++
				continue
			}
			var out bytes.Buffer
			if _, err := client.Restore(c.cleanConfig(), name, true, &out); err != nil {
				logger.Printf("CORRUPTION: tenant %s restore %s: %v", c.tenant, name, err)
				finalErrs++
				continue
			}
			if !bytes.Equal(out.Bytes(), want) {
				logger.Printf("CORRUPTION: tenant %s file %s: restored bytes differ", c.tenant, name)
				finalErrs++
				continue
			}
			verified++
		}
	}
	tl.corruptions.Add(int64(finalErrs))

	peerRouted := metrics.Default.Counter("gateway.chunks.peer_routed").Load()
	fromClient := metrics.Default.Counter("gateway.chunks.from_client").Load()
	logger.Printf("churn done: %d ingests, %d restores, %d lists, %d kills, %d reconnects, %d quota sheds, %d put rejects",
		tl.ingests.Load(), tl.restores.Load(), tl.lists.Load(),
		tl.kills.Load(), tl.reconnects.Load(), tl.quotaSheds.Load(), tl.putRejects.Load())
	logger.Printf("verified %d files bit-identical; chunk routing: %d peer-routed, %d from clients",
		verified, peerRouted, fromClient)

	if n := tl.corruptions.Load(); n > 0 {
		return fmt.Errorf("%d corruption(s) detected", n)
	}
	if tl.ingests.Load() == 0 || tl.restores.Load() == 0 || tl.kills.Load() == 0 {
		return fmt.Errorf("churn proved nothing: ingests=%d restores=%d kills=%d",
			tl.ingests.Load(), tl.restores.Load(), tl.kills.Load())
	}

	// --- Heap bound. -----------------------------------------------------
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapMB := int(ms.HeapAlloc >> 20)
	logger.Printf("post-GC heap: %d MiB (bound %d MiB)", heapMB, o.maxHeapMB)
	if heapMB > o.maxHeapMB {
		return fmt.Errorf("heap %d MiB exceeds the %d MiB bound", heapMB, o.maxHeapMB)
	}
	return nil
}

// allClients collects every soakClient for the final verification pass.
var (
	allClients   []*soakClient
	allClientsMu sync.Mutex
)

// soakClient is one simulated tenant workload.
type soakClient struct {
	id        int
	tenant    string
	secret    string
	capped    bool
	gwAddr    string
	options   wire.EngineOptions
	o         options
	tl        *tally
	shardDown *atomic.Bool
	rng       *rand.Rand
	version   map[string]int    // logical slot → last stored generation
	latest    map[string][]byte // logical slot → newest acked content
	expect    map[string][]byte // stored name → acked content (bounded)
	order     []string          // expect keys, oldest first, for eviction
}

// remember records an acked (name, content) pair for later verification,
// evicting the oldest remembered generation beyond the retention bound so
// a long soak's memory stays flat.
func (c *soakClient) remember(name string, data []byte) {
	c.expect[name] = data
	c.order = append(c.order, name)
	for len(c.order) > c.o.filesPerClient*3 {
		delete(c.expect, c.order[0])
		c.order = c.order[1:]
	}
}

func (c *soakClient) cleanConfig() client.Config {
	return client.Config{
		Addr:          c.gwAddr,
		Options:       c.options,
		Tenant:        c.tenant,
		Secret:        c.secret,
		RetryAttempts: 10,
		RetryDelay:    20 * time.Millisecond,
	}
}

// faultyConfig returns a config whose first connection dies after a
// random byte budget — the client is expected to resume through it.
func (c *soakClient) faultyConfig() client.Config {
	cfg := c.cleanConfig()
	budget := 16<<10 + c.rng.Intn(c.o.fileSize/2)
	var once sync.Once
	cfg.Dial = func(a string) (net.Conn, error) {
		nc, err := net.Dial("tcp", a)
		if err != nil {
			return nil, err
		}
		injected := false
		once.Do(func() { injected = true })
		if injected {
			c.tl.kills.Add(1)
			return &killConn{Conn: nc, budget: budget}, nil
		}
		return nc, nil
	}
	return cfg
}

func (c *soakClient) churn(deadline time.Time) error {
	allClientsMu.Lock()
	allClients = append(allClients, c)
	allClientsMu.Unlock()
	for time.Now().Before(deadline) {
		switch c.rng.Intn(10) {
		case 0, 1, 2, 3, 4: // ingest burst (new files and rewrites)
			if err := c.ingestBurst(); err != nil {
				return err
			}
		case 5, 6, 7, 8: // restore-and-verify a random known file
			if err := c.verifyRandom(); err != nil {
				return err
			}
		default: // list
			names, err := client.List(c.cleanConfig())
			if err != nil {
				return fmt.Errorf("list: %w", err)
			}
			c.tl.lists.Add(1)
			for name := range c.expect {
				found := false
				for _, n := range names {
					if n == name {
						found = true
						break
					}
				}
				if !found {
					c.tl.corruptions.Add(1)
					return fmt.Errorf("file %s vanished from listing", name)
				}
			}
		}
	}
	return nil
}

// ingestBurst opens one session (sometimes doomed to die mid-flight) and
// pushes 1–3 file versions through it. Content is only recorded as
// expected once its PutFile returned successfully.
func (c *soakClient) ingestBurst() error {
	cfg := c.cleanConfig()
	if c.rng.Intn(100) < c.o.killPercent {
		cfg = c.faultyConfig()
	}
	cfg.SurfaceShed = c.capped
	ing, err := client.Connect(cfg)
	if err != nil {
		if c.shardDown.Load() {
			c.tl.putRejects.Add(1)
			return nil
		}
		return fmt.Errorf("connect: %w", err)
	}
	// A shed or injected-death session can fail Close; every file the
	// harness records as expected was individually acked before that, so
	// Close failures are not correctness events.
	defer ing.Close()
	n := 1 + c.rng.Intn(3)
	for i := 0; i < n; i++ {
		// Backup names are immutable: each generation of a logical slot is
		// stored under a fresh versioned name, like real backup runs.
		slot := fmt.Sprintf("c%d-f%d", c.id, c.rng.Intn(c.o.filesPerClient))
		var data []byte
		if prev, ok := c.latest[slot]; ok && c.rng.Intn(3) > 0 {
			data = mutate(prev, c.rng.Int63(), 8, 4096) // incremental generation
		} else {
			data = genData(c.contentSeed(slot), c.o.fileSize)
		}
		name := fmt.Sprintf("%s.v%d", slot, c.version[slot]+1)
		err := ing.PutFile(name, bytes.NewReader(data))
		var shed *client.ShedError
		if errors.As(err, &shed) {
			// Over quota: expected for the capped tenant. Honor the
			// server's backoff hint instead of hammering the gateway.
			c.tl.quotaSheds.Add(1)
			if shed.RetryAfter > 0 {
				time.Sleep(shed.RetryAfter)
			}
			return nil
		}
		if err != nil {
			if c.shardDown.Load() {
				// A shard was just killed: sessions that placed commands on
				// the corpse (or began a file before the drain landed) fail
				// their puts loudly. The file was never acked so it is never
				// expected — rejection, not corruption. The next burst gets
				// fresh placement over the survivors.
				c.tl.putRejects.Add(1)
				return nil
			}
			return fmt.Errorf("put %s: %w", name, err)
		}
		c.version[slot]++
		c.latest[slot] = data
		c.remember(name, data)
		c.tl.ingests.Add(1)
	}
	st := ing.Stats()
	c.tl.reconnects.Add(int64(st.Reconnects))
	return nil
}

func (c *soakClient) verifyRandom() error {
	if len(c.expect) == 0 {
		return nil
	}
	names := make([]string, 0, len(c.expect))
	for n := range c.expect {
		names = append(names, n)
	}
	name := names[c.rng.Intn(len(names))]
	var out bytes.Buffer
	if _, err := client.Restore(c.cleanConfig(), name, true, &out); err != nil {
		c.tl.corruptions.Add(1)
		return fmt.Errorf("restore %s: %w", name, err)
	}
	if !bytes.Equal(out.Bytes(), c.expect[name]) {
		c.tl.corruptions.Add(1)
		return fmt.Errorf("restore %s: bytes differ from last acked content", name)
	}
	c.tl.restores.Add(1)
	return nil
}

func (c *soakClient) contentSeed(name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d", c.tenant, name, c.o.seed)
	return int64(h.Sum64())
}

// killConn kills the connection after `budget` written bytes.
type killConn struct {
	net.Conn
	mu     sync.Mutex
	budget int
}

var errInjected = errors.New("injected connection death")

func (c *killConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.budget <= 0 {
		c.Conn.Close()
		return 0, errInjected
	}
	if len(p) > c.budget {
		n, _ := c.Conn.Write(p[:c.budget])
		c.budget = 0
		c.Conn.Close()
		return n, errInjected
	}
	c.budget -= len(p)
	return c.Conn.Write(p)
}

func genData(seed int64, n int) []byte {
	buf := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(buf)
	return buf
}

func mutate(data []byte, seed int64, edits, editSize int) []byte {
	out := append([]byte(nil), data...)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < edits; i++ {
		if len(out) <= editSize {
			break
		}
		off := rng.Intn(len(out) - editSize)
		rng.Read(out[off : off+editSize])
	}
	return out
}
