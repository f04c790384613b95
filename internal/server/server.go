// Package server implements dedupd — the network half of the dedup
// engine. It accepts N concurrent client connections over TCP, maps each
// ingest connection onto one ingest stream of a single shared MHD/SI-MHD
// engine, and speaks the internal/wire protocol: the client chunks
// locally and negotiates by hash, so only chunk bytes the server has
// never seen cross the wire.
//
// The server enforces hard limits (max sessions, max frame payload, a
// per-session in-flight command window, idle read and write deadlines),
// answers overload and shutdown with retry-friendly error frames, keeps
// detached sessions resumable for a grace window so clients survive
// transient connection loss, and serves restores — optionally through the
// verifying store path — back over the same protocol.
//
// Observability: session lifecycle transitions (attach, resume, detach,
// expire, close, fail) are emitted as structured events through
// Config.Events, per-frame-type handling latency and command-apply
// latency are recorded in Config.Registry histograms, and operations
// slower than the event log's slow-op threshold additionally emit a
// warn-level slow_op event.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync/atomic"
	"time"

	"mhdedup/internal/chunker"
	"mhdedup/internal/core"
	"mhdedup/internal/events"
	"mhdedup/internal/exp"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/session"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
	"mhdedup/internal/wire"
)

// restoreDataOverhead is the exact wire overhead a RestoreData payload adds
// around the data bytes (one u32 length prefix). The restore frame writer
// never budgets more than wire.DefaultMaxPayload - restoreDataOverhead.
const restoreDataOverhead = 4

// restoreFrameBytes is how many restored bytes one RestoreData frame
// carries. A restore is a pipeline of hops — this shard reads and hashes, a
// gateway relays, the client hashes and writes — and a hop can only start
// on what the one before it has let go of, so the frame bounds how much of
// a file sits in one hop while the others idle. A constant, not a Config
// field: 32 / 64 / 128 / 256 KiB restored gen-cluster at 257 / 250 / 244 /
// 232 MiB/s through the gateway — nothing there to tune.
const restoreFrameBytes = 64 << 10

// restoreWorkers is how many planned container reads a restore stream keeps
// in flight ahead of the frame it is writing, plain or verified; the store
// bounds their bytes. Frames still carry the bytes in order (the executor
// emits in schedule order). A constant, not a Config field: restoring
// inline on the shard took gen-cluster restore_mb_s 596 → 424 and 541 → 398
// MiB/s (0.71×, 0.74×) and range_p50_ms up 1.04× / 1.13×.
const restoreWorkers = 4

// Config parameterizes a Server. Zero fields take the documented
// defaults. The limits a gateway must agree on — the window, the payload
// cap, the write timeout — are internal/session's constants.
type Config struct {
	// Engine is the shared deduplicator every ingest session feeds. It
	// must be an MHD or SI-MHD engine (the session-capable ones).
	Engine *core.Dedup

	// MaxSessions caps concurrent (live, including detached-resumable)
	// ingest sessions; default 16. Excess clients get a retryable Busy.
	MaxSessions int
	// IdleTimeout bounds how long a connection may sit between frames;
	// default session.IdleTimeout. Expiry closes the connection
	// (retry-friendly: the session stays resumable for ResumeTimeout).
	IdleTimeout time.Duration
	// ResumeTimeout is how long a detached session survives for
	// reconnection before its in-flight file is aborted; default
	// session.ResumeTimeout.
	ResumeTimeout time.Duration
	// ChunkCacheBytes budgets the wire-level chunk byte cache that powers
	// hash negotiation; default (zero) 256 MiB. A negative budget disables
	// the cache (every offered chunk is then needed — correct, just
	// bandwidth-naive).
	ChunkCacheBytes int64
	// Durability, when non-nil, is the store's continuous-durability
	// hook: Commit is awaited before each FileEnd is acknowledged (so an
	// ack means the whole file is on stable storage — group-committed,
	// N sessions share one fsync), and Overloaded gates admission: while
	// it reports true, new sessions and new files are refused with
	// retryable Overloaded frames instead of queued in RAM. Nil is the
	// in-memory server (tests, benchmarks, dedupd without -store).
	Durability Durability
	// Registry receives the server's operational counters, latency
	// histograms and occupancy gauges; default metrics.Default.
	Registry *metrics.Registry
	// Events receives structured lifecycle and slow-op events; default
	// events.Nop() (nothing retained, nothing written).
	Events *events.Log
}

func (c *Config) fillDefaults() error {
	if c.Engine == nil {
		return errors.New("server: Config.Engine is required")
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 16
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = session.IdleTimeout
	}
	if c.ResumeTimeout == 0 {
		c.ResumeTimeout = session.ResumeTimeout
	}
	if c.ChunkCacheBytes == 0 {
		c.ChunkCacheBytes = 256 << 20
	}
	if c.Registry == nil {
		c.Registry = metrics.Default
	}
	if c.Events == nil {
		c.Events = events.Nop()
	}
	if c.MaxSessions < 1 {
		return fmt.Errorf("server: MaxSessions (%d) must be positive", c.MaxSessions)
	}
	return nil
}

// Server is one dedupd instance: a session.Endpoint (listener, handshake,
// resumable-session table) plus the ingest, restore and peer protocols it
// dispatches to.
type Server struct {
	cfg   Config
	opts  wire.EngineOptions // the cut contract HelloOK announces
	cache *chunkCache
	ep    *session.Endpoint[*ingestSession]
	// The announced chunker's bounds, which every offered cut is held to.
	minChunk, maxChunk uint32
	// st is the store view remote restores read through, in the manifest
	// format the store's cut contract records.
	st *store.Store

	// Hot operational counters (also registered in cfg.Registry).
	cFilesIngested  *atomic.Int64
	cChunksOffered  *atomic.Int64
	cChunksNeeded   *atomic.Int64
	cChunksReceived *atomic.Int64
	cChunksCacheHit *atomic.Int64
	cChunkBytesIn   *atomic.Int64
	cRestores       *atomic.Int64
	cRestoreBytes   *atomic.Int64
	cRestoreFrames  *atomic.Int64 // RestoreData frames emitted
	cShed           *atomic.Int64
	cPeerServed     *atomic.Int64
	cPeerMissed     *atomic.Int64
	cPeerPut        *atomic.Int64
	cFileDrops      *atomic.Int64
	cOffersRefused  *atomic.Int64 // Offers refused for a cut outside the chunker's bounds

	// Latency histograms (nanoseconds; also in cfg.Registry).
	hFrame map[uint8]*metrics.Histogram // per ingest frame type
	// hApply is one command's apply: for an Offer decode-to-enqueue (the
	// engine drains the queue on its own goroutine; hFeedWait is the wait
	// for room in it), for a FileEnd the engine's drain and commit.
	hApply    *metrics.Histogram
	hFeedWait *metrics.Histogram // one run's wait to be handed to the engine
	hRestore  *metrics.Histogram // one whole streamed restore
	hCommit   *metrics.Histogram // one durability group commit
}

// Durability is the hook a continuously-durable store plugs into the
// server (store.Durable implements it). Commit returns once every engine
// mutation made before the call is on stable storage; Overloaded reports —
// with a human-readable reason — that the durability machinery is behind
// budget and new work should be shed with retryable errors.
type Durability interface {
	Commit() error
	Overloaded() (reason string, overloaded bool)
}

// New returns an unstarted server over cfg.Engine.
func New(cfg Config) (*Server, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	ec := cfg.Engine.Config()
	minChunk, maxChunk, err := chunker.Params{ECS: ec.ECS}.Bounds()
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	algorithm := exp.AlgoMHD
	if ec.SparseIndex {
		algorithm = exp.AlgoSIMHD
	}
	s := &Server{
		cfg: cfg,
		opts: wire.EngineOptions{
			Algorithm: algorithm,
			ECS:       uint32(ec.ECS),
			TTTD:      ec.TTTD,
			FastCDC:   ec.FastCDC,
			Poly:      uint64(ec.Poly),
		},
		minChunk: uint32(minChunk),
		maxChunk: uint32(maxChunk),
		cache:    newChunkCache(cfg.ChunkCacheBytes),
	}
	// A dedupd can serve a store another engine wrote, whose manifests are
	// not FormatMHD: verified restores decode them as its record says.
	c, _ := store.ContractOf(cfg.Engine.Disk())
	s.st = store.New(cfg.Engine.Disk(), c.Format)
	s.st.SetEventLog(cfg.Events)
	r := cfg.Registry
	s.cFilesIngested = r.Counter("server.files.ingested")
	s.cChunksOffered = r.Counter("server.chunks.offered")
	s.cChunksNeeded = r.Counter("server.chunks.needed")
	s.cChunksReceived = r.Counter("server.chunks.received")
	s.cChunksCacheHit = r.Counter("server.chunks.cache_hits")
	s.cChunkBytesIn = r.Counter("server.chunks.bytes_received")
	s.cRestores = r.Counter("server.restores")
	s.cRestoreBytes = r.Counter("server.restore.bytes")
	s.cRestoreFrames = r.Counter("server.restore.frames")
	s.cShed = r.Counter("server.shed")
	s.cPeerServed = r.Counter("server.peer.chunks_served")
	s.cPeerMissed = r.Counter("server.peer.chunks_missed")
	s.cPeerPut = r.Counter("server.peer.chunks_put")
	s.cFileDrops = r.Counter("server.migrate.drops")
	s.cOffersRefused = r.Counter("server.offers.refused_bounds")
	s.hFrame = map[uint8]*metrics.Histogram{
		wire.TypeFileBegin: r.Histogram("server.frame.file_begin_ns"),
		wire.TypeOffer:     r.Histogram("server.frame.offer_ns"),
		wire.TypeChunkData: r.Histogram("server.frame.chunk_data_ns"),
		wire.TypeFileEnd:   r.Histogram("server.frame.file_end_ns"),
	}
	s.hApply = r.Histogram("server.apply_ns")
	s.hFeedWait = r.Histogram("server.feed_wait_ns")
	s.hRestore = r.Histogram("server.restore_ns")
	s.hCommit = r.Histogram("server.commit_ns")
	r.SetGauge("server.cache.bytes", func() int64 { b, _ := s.cache.stats(); return b })
	r.SetGauge("server.cache.entries", func() int64 { _, n := s.cache.stats(); return int64(n) })
	s.ep = session.NewEndpoint(session.Config[*ingestSession]{
		Name:          "server",
		EventPrefix:   "session.",
		Limits:        session.Limits{IdleTimeout: cfg.IdleTimeout, WriteTimeout: session.WriteTimeout},
		MaxSessions:   cfg.MaxSessions,
		ResumeTimeout: cfg.ResumeTimeout,
		Registry:      r,
		Events:        cfg.Events,
		Admit:         s.admitSession,
		New:           s.newSession,
		OnExpire: func(ss *ingestSession, aborting bool) {
			ss.abort()
			if aborting {
				ss.abortOpenFile()
			}
		},
		Ingest:  s.serveIngestConn,
		Restore: s.serveRestoreConn,
		Peer:    s.servePeerConn,
	})
	return s, nil
}

// Options returns the cut contract the server announces: how its engine cuts.
func (s *Server) Options() wire.EngineOptions { return s.opts }

// Serve accepts connections on ln until Drain or Close. It returns nil
// after an orderly shutdown.
func (s *Server) Serve(ln net.Listener) error { return s.ep.Serve(ln) }

// Drain performs a graceful shutdown: stop accepting connections, refuse
// new sessions with a retryable error frame, expire parked sessions (no
// client can reach them any more), let in-flight sessions run to their
// Close, and return once the server is idle. If ctx expires first,
// remaining connections are severed and sessions aborted.
func (s *Server) Drain(ctx context.Context) error { return s.ep.Drain(ctx) }

// Close hard-stops the server: the listener, every connection and every
// session (in-flight ingests are cancelled).
func (s *Server) Close() error { return s.ep.Close() }

// SessionCount returns the number of live (attached or resumable)
// sessions.
func (s *Server) SessionCount() int { return s.ep.Sessions.Len() }

// CacheStats exposes the wire chunk cache occupancy for metrics.
func (s *Server) CacheStats() (bytes int64, entries int) { return s.cache.stats() }

// ---------------------------------------------------------------------------
// Ingest sessions. The connection lifecycle (handshake, attach, detach,
// expiry, drain) lives in internal/session; what follows is what dedupd
// adds to it.

// admitSession is the admission hook for NEW sessions: while the
// durability machinery is behind budget they are shed with a retryable
// Overloaded.
func (s *Server) admitSession(hello wire.Hello) *wire.ErrorMsg {
	if d := s.cfg.Durability; d != nil {
		if reason, over := d.Overloaded(); over {
			s.cShed.Add(1)
			s.cfg.Events.Warn("server.shed", events.F("at", "attach"), events.F("reason", reason))
			return &wire.ErrorMsg{Code: wire.CodeOverloaded, Retryable: true,
				Msg: "server overloaded: " + reason}
		}
	}
	return nil
}

func (s *Server) newSession(token uint64, hello wire.Hello) *ingestSession {
	ctx, cancel := context.WithCancel(context.Background())
	return &ingestSession{
		token:   token,
		tenant:  hello.Tenant,
		srv:     s,
		eng:     s.cfg.Engine,
		ctx:     ctx,
		abort:   cancel,
		pending: make(map[uint64]*pendingCmd),
	}
}

// park hands a session whose connection died back to the table,
// resumable. Pending batches are dropped first — the client replays
// every command above lastApplied and need-lists are recomputed, so a
// half-received batch costs only its bytes — which also unpins their
// chunk bytes for as long as the session stays parked.
func (s *Server) park(ss *ingestSession) {
	ss.pending = make(map[uint64]*pendingCmd)
	s.ep.Sessions.Detach(ss.token)
}

// serveIngestConn runs an attached session's command loop until error,
// disconnect or Close.
func (s *Server) serveIngestConn(c *session.Conn, hello wire.Hello, ss *ingestSession) {
	ok := wire.HelloOK{
		SessionToken: ss.token,
		Window:       session.Window,
		MaxPayload:   c.MaxPayload(),
		LastApplied:  ss.lastApplied,
		Options:      s.opts,
	}
	if err := c.Write(wire.TypeHelloOK, ok.Marshal()); err != nil {
		s.park(ss)
		return
	}
	for {
		f, err := c.Read()
		if err != nil {
			if session.IsTimeout(err) {
				// Retry-friendly: tell the client why before hanging up;
				// the session survives for ResumeTimeout.
				c.Errorf(wire.CodeProtocol, true, "idle timeout: no frame for %v", s.cfg.IdleTimeout)
			}
			s.park(ss)
			return
		}
		start := time.Now()
		var herr error
		if f.Type != wire.TypeClose {
			herr = session.IngestCommand(f, ss, c)
		} else if herr = ss.closeRequested(); herr == nil {
			// Out of the table before CloseOK: a client that has seen
			// CloseOK must find the session gone.
			s.ep.Sessions.Expire(ss.token, false)
			c.Write(wire.TypeCloseOK, nil)
			s.cfg.Events.Info("session.close",
				events.F("session", ss.token), events.F("applied", ss.lastApplied))
			return
		}
		if h := s.hFrame[f.Type]; h != nil {
			d := h.ObserveSince(start)
			s.cfg.Events.SlowOp("frame."+wire.TypeName(f.Type), d,
				events.F("session", ss.token))
		}
		if herr != nil {
			// A shed parks the session resumable — the client backs off,
			// reconnects with its resume token and replays; no acknowledged
			// work is at risk and no queue grows while the server is behind.
			// So does a send-path failure: the connection is gone.
			if sf := c.Report(herr); sf != nil {
				s.ep.Sessions.Fail(ss.token, true, sf.Msg)
				s.cfg.Events.Error("session.fail",
					events.F("session", ss.token), events.F("code", sf.Msg.Code),
					events.F("msg", sf.Msg.Msg))
			} else {
				s.park(ss)
			}
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Restore serving.

// serveRestoreConn answers List and Restore requests until the client
// hangs up or closes. Everything is scoped to tenant's namespace: List
// returns only (and strips the prefix from) the tenant's names, and
// Restore resolves the request inside the tenant's slice of the store —
// another tenant's files are unreachable, not merely hidden.
func (s *Server) serveRestoreConn(c *session.Conn, tenant string) {
	for {
		f, err := c.ReadRequest()
		if err != nil {
			return
		}
		switch f.Type {
		case wire.TypeListReq:
			all := s.cfg.Engine.Disk().Names(simdisk.FileManifest)
			names := make([]string, 0, len(all))
			for _, n := range all {
				if stripped, ok := wire.NSStrip(tenant, n); ok {
					names = append(names, stripped)
				}
			}
			sort.Strings(names)
			if err := c.Write(wire.TypeListResp, wire.ListResp{Names: names}.Marshal()); err != nil {
				return
			}
		case wire.TypeRestoreReq, wire.TypeRestoreRange:
			// A whole-file request is the range [0, EOF) under its own
			// slow-op event name.
			req, err := wire.UnmarshalRestoreRequest(f)
			if err != nil {
				c.Errorf(wire.CodeProtocol, false, "bad %s: %v", wire.TypeName(f.Type), err)
				return
			}
			event := "restore_range"
			if f.Type == wire.TypeRestoreReq {
				event = "restore"
			}
			req.Name = wire.NSJoin(tenant, req.Name)
			if err := s.streamRestore(req, event, c); err != nil {
				if c.Report(err) != nil {
					continue // stream not corrupted: error sent before or instead of End
				}
				return // transport failure
			}
		case wire.TypeClose:
			c.Write(wire.TypeCloseOK, nil)
			return
		default:
			c.Errorf(wire.CodeProtocol, false, "unexpected %s frame on restore session", wire.TypeName(f.Type))
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Peer plane.

// peerChunkOverhead is the per-chunk wire cost inside a PeerChunks
// payload: one u32 index plus the chunk's u32 length prefix.
const peerChunkOverhead = 8

// servePeerConn answers the trusted interior sub-protocol a cluster
// gateway speaks to the shard that owns a chunk-hash range: PeerFetch
// asks which of a batch of chunk hashes this shard's wire cache holds
// (answered with the bytes), PeerPut seeds freshly uploaded chunks into
// the cache. Both operate strictly on the chunk cache — the peer plane
// is a bandwidth optimization, never a durability statement, so a miss
// is always a correct answer. Chunks arriving by PeerPut are re-hashed
// here: a trusted link is still not a trusted computation, and a cache
// poisoned with bytes filed under the wrong address would silently
// corrupt every later negotiation that hits it. Rebalance adds one
// file-level request: FileDrop forgets a file. Rebalance and repair learn
// where files are from the shards' listings, and the copies they make
// arrive as ordinary ingest sessions, so every peer frame is a request.
func (s *Server) servePeerConn(c *session.Conn) {
	for {
		f, err := c.ReadRequest()
		if err != nil {
			return
		}
		switch f.Type {
		case wire.TypePeerFetch:
			pf, err := wire.UnmarshalPeerFetch(f.Payload)
			if err != nil {
				c.Errorf(wire.CodeProtocol, false, "bad PeerFetch: %v", err)
				return
			}
			resp := wire.PeerChunks{}
			// Keep the reply inside the frame payload cap: 4 bytes for each
			// of the two count prefixes, then index+length+bytes per chunk.
			budget := wire.DefaultMaxPayload - 8
			for i, e := range pf.Entries {
				data, ok := s.cache.get(e.Hash)
				if !ok || uint32(len(data)) != e.Size {
					s.cPeerMissed.Add(1)
					continue
				}
				if budget -= peerChunkOverhead + len(data); budget < 0 {
					// Over budget: the rest of the batch reads as a miss and
					// the gateway falls back to the client's copy. Correct,
					// just less saved bandwidth.
					s.cPeerMissed.Add(int64(len(pf.Entries) - i))
					break
				}
				resp.Indices = append(resp.Indices, uint32(i))
				resp.Chunks = append(resp.Chunks, data)
				s.cPeerServed.Add(1)
			}
			if err := c.Write(wire.TypePeerChunks, resp.Marshal()); err != nil {
				return
			}
		case wire.TypePeerPut:
			pp, err := wire.UnmarshalPeerPut(f.Payload)
			if err != nil {
				c.Errorf(wire.CodeProtocol, false, "bad PeerPut: %v", err)
				return
			}
			sums := make([]hashutil.Sum, len(pp.Chunks))
			hashutil.SumChunks(pp.Chunks, sums)
			for i, chunk := range pp.Chunks {
				s.cache.put(sums[i], chunk)
			}
			s.cPeerPut.Add(int64(len(pp.Chunks)))
			if err := c.Write(wire.TypePeerPutOK, nil); err != nil {
				return
			}
		case wire.TypeFileDrop:
			fd, err := wire.UnmarshalFileDrop(f.Payload)
			if err != nil {
				c.Errorf(wire.CodeProtocol, false, "bad FileDrop: %v", err)
				return
			}
			disk := s.cfg.Engine.Disk()
			if disk.Exists(simdisk.FileManifest, fd.Name) {
				if err := disk.Delete(simdisk.FileManifest, fd.Name); err != nil {
					c.Errorf(wire.CodeInternal, true, "drop %q: %v", fd.Name, err)
					return
				}
				s.cFileDrops.Add(1)
				s.cfg.Events.Info("server.file_drop", events.F("name", fd.Name))
			}
			// Dropping an absent file is success: the caller wants "gone".
			if err := c.Write(wire.TypeFileDropOK, nil); err != nil {
				return
			}
		case wire.TypeClose:
			c.Write(wire.TypeCloseOK, nil)
			return
		default:
			c.Errorf(wire.CodeProtocol, false, "unexpected %s frame on peer session", wire.TypeName(f.Type))
			return
		}
	}
}

// streamRestore rebuilds a byte range of one file through the engine's
// store — through the verifying path when requested — and streams it as
// RestoreData frames followed by RestoreEnd, whose size and SHA-1 describe
// the range actually sent (ranges past EOF clamp, so a client can probe
// with a huge length and trust the End frame; for a whole-file request
// that is the file's). The store's RestoreRange descends the file's recipe
// (O(log n) recipe-chunk reads on a tree; a linear recipe decode on a flat
// manifest) and only the covering sub-manifest is planned: up to
// restoreWorkers planned reads are in flight while this goroutine emits
// them in schedule order into the frameWriter, so RestoreData frames always
// carry the bytes in order.
func (s *Server) streamRestore(req wire.RestoreRange, event string, c *session.Conn) error {
	if !s.cfg.Engine.Disk().Exists(simdisk.FileManifest, req.Name) {
		return session.Fatalf(wire.CodeNotFound, "no such file %q", req.Name)
	}
	off := int64(req.Offset)
	length := int64(-1)
	if req.Length != wire.RestoreToEOF {
		length = int64(req.Length)
	}
	start := time.Now()
	fw := &frameWriter{c: c, hash: hashutil.NewHasher(),
		max: min(restoreFrameBytes, wire.DefaultMaxPayload-restoreDataOverhead)}
	ropts := store.RestoreOptions{Workers: restoreWorkers}
	var rerr error
	if req.Verify {
		// Every manifest entry overlapping a served byte is re-hashed
		// against its content address, and the bytes streamed are the ones
		// that hashed clean. A Verifier per request costs nothing up front:
		// it loads only the manifests of the containers this range touches.
		_, rerr = store.NewVerifier(s.st, store.VerifyOpts{}).RestoreRange(req.Name, off, length, fw, ropts)
	} else {
		_, rerr = s.st.RestoreRange(req.Name, off, length, fw, ropts)
	}
	if rerr != nil {
		return session.Fatalf(wire.CodeInternal, "restore %q [%d,+%d): %v", req.Name, off, length, rerr)
	}
	if err := fw.flush(); err != nil {
		return err
	}
	s.cRestores.Add(1)
	s.cRestoreBytes.Add(int64(fw.total))
	s.cRestoreFrames.Add(fw.frames)
	d := s.hRestore.ObserveSince(start)
	s.cfg.Events.SlowOp(event, d,
		events.F("name", req.Name), events.F("offset", off), events.F("bytes", fw.total))
	end := wire.RestoreEnd{TotalBytes: fw.total, Sum: fw.hash.Sum()}
	return c.Write(wire.TypeRestoreEnd, end.Marshal())
}

// frameWriter adapts the restore io.Writer to RestoreData frames of max
// bytes (a stream's last one shorter). A byte is copied at most once: what
// fills a frame by itself goes out straight from the slice the store handed
// over, anything smaller is gathered in one reused frame-sized buffer. Each
// frame is hashed after it is on the wire, not the whole write up front, so
// the next hops relay and hash frame k while this one hashes it too.
type frameWriter struct {
	c      *session.Conn
	max    int
	hash   *hashutil.Hasher
	total  uint64
	frames int64
	buf    []byte  // the partial frame, cap max once used
	prefix [4]byte // RestoreData's length prefix, written beside the bytes
}

func (w *frameWriter) Write(p []byte) (int, error) {
	if w.max <= 0 {
		// Defensive: streamRestore's budget is a positive constant, so this
		// cannot happen through a Server; without the guard a non-positive
		// budget turns the emit loop below into an infinite loop.
		return 0, fmt.Errorf("server: restore frame budget %d is not positive", w.max)
	}
	n := len(p)
	for len(p) > 0 {
		if len(w.buf) == 0 && len(p) >= w.max {
			if err := w.emit(p[:w.max]); err != nil {
				return 0, err
			}
			p = p[w.max:]
			continue
		}
		if w.buf == nil {
			w.buf = make([]byte, 0, w.max)
		}
		k := copy(w.buf[len(w.buf):w.max], p)
		w.buf, p = w.buf[:len(w.buf)+k], p[k:]
		if len(w.buf) == w.max {
			if err := w.flush(); err != nil {
				return 0, err
			}
		}
	}
	return n, nil
}

func (w *frameWriter) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	err := w.emit(w.buf)
	w.buf = w.buf[:0]
	return err
}

func (w *frameWriter) emit(b []byte) error {
	head, data := wire.RestoreData{Data: b}.Parts(&w.prefix)
	err := w.c.Write(wire.TypeRestoreData, head, data)
	w.hash.Write(b)
	w.total += uint64(len(b))
	w.frames++
	return err
}

var _ io.Writer = (*frameWriter)(nil)
