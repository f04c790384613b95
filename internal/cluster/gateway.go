package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mhdedup/internal/events"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/session"
	"mhdedup/internal/wire"
)

// GatewayConfig parameterizes a Gateway. Shards is required; zero fields
// take the documented defaults.
type GatewayConfig struct {
	// Shards is the cluster membership the ring is built over.
	Shards []Shard
	// VNodes per shard on the ring; default DefaultVNodes.
	VNodes int
	// Tenants is the auth/quota table; nil runs the gateway open (any
	// tenant, no quota).
	Tenants map[string]TenantAuth
	// Replication is how many distinct shards hold each file: every file
	// is placed whole on its name's first R ring-successor owners, and a
	// client ack is released only when all R have made it durable. With
	// R>=2 any single shard can die without losing an acked file.
	// Default 1 (the classic single-copy placement); values above the
	// shard count clamp to it at placement time.
	Replication int

	// MaxSessions caps concurrent (live or parked-resumable) client
	// ingest sessions; default 64.
	MaxSessions int
	// Window is the per-session in-flight command budget advertised to
	// clients; default 8. It must not exceed any shard's window — the
	// gateway validates that against each shard's HelloOK.
	Window int
	// MaxPayload caps client-facing frame payloads; default
	// wire.DefaultMaxPayload.
	MaxPayload uint32
	// IdleTimeout bounds the gap between client frames; default 2m.
	IdleTimeout time.Duration
	// WriteTimeout bounds each frame write; default 1m.
	WriteTimeout time.Duration
	// ResumeTimeout is how long a detached client session stays
	// resumable; default 2m. Keep it below the shards' resume timeout or
	// a late-resuming client will find its backend sessions expired.
	ResumeTimeout time.Duration

	// Dial opens transport to a shard; default net.DialTimeout 10s.
	Dial func(addr string) (net.Conn, error)
	// Registry receives gateway counters and gauges; default
	// metrics.Default.
	Registry *metrics.Registry
	// Events receives structured lifecycle events; default events.Nop().
	Events *events.Log
}

func (c *GatewayConfig) fillDefaults() error {
	if len(c.Shards) == 0 {
		return errors.New("cluster: GatewayConfig.Shards is required")
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 64
	}
	if c.Replication == 0 {
		c.Replication = 1
	}
	if c.Replication < 1 {
		return fmt.Errorf("cluster: Replication (%d) must be positive", c.Replication)
	}
	if c.Window == 0 {
		c.Window = 8
	}
	if c.MaxPayload == 0 {
		c.MaxPayload = wire.DefaultMaxPayload
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = time.Minute
	}
	if c.ResumeTimeout == 0 {
		c.ResumeTimeout = 2 * time.Minute
	}
	if c.Dial == nil {
		c.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 10*time.Second)
		}
	}
	if c.Registry == nil {
		c.Registry = metrics.Default
	}
	if c.Events == nil {
		c.Events = events.Nop()
	}
	if c.MaxSessions < 1 || c.Window < 1 {
		return fmt.Errorf("cluster: MaxSessions (%d) and Window (%d) must be positive", c.MaxSessions, c.Window)
	}
	return nil
}

// Gateway is one dedup-gw instance: the cluster's client-facing front
// door. Clients speak the ordinary internal/wire protocol to it; the
// gateway owns tenancy (auth, namespace, quota) and placement (which
// shard stores a file, which shard's cache owns a chunk hash) so the
// shards behind it stay plain single-node dedupds.
//
// Placement model: a file's bytes live wholly on its home shard — the
// ring owner of the namespaced name — so any shard can restore its own
// files with zero cross-shard reads. Chunk-level consistent hashing
// happens in the negotiation: when the home shard asks for chunk bytes,
// the gateway first asks the ring owner of each chunk's hash (the peer
// plane), and only what the cluster has truly never seen is requested
// from the client. Uploaded chunks are seeded to their owners, so a
// chunk any tenant has pushed through the cluster never crosses a
// client link twice.
type Gateway struct {
	cfg     GatewayConfig
	tenants *Tenants
	ring    *Ring          // full membership: placement history, restores, peer fetch
	links   *session.Links // kept ModeRestore links to shards
	peers   *session.Links // kept ModePeer links to shards
	ep      *session.Endpoint[*gwSession]

	mu        sync.Mutex
	drainSet  map[string]bool // shard IDs excluded from the write ring
	writeRing *Ring           // ring minus draining shards: placement of NEW files

	// Per-shard routing tallies (files and logical bytes homed there) —
	// the balance numbers ShardStats and /metrics.json report.
	routedFiles map[string]*atomic.Int64
	routedBytes map[string]*atomic.Int64

	cFiles        *atomic.Int64
	cChunksClient *atomic.Int64 // chunk bytes that had to come from the client
	cChunksPeer   *atomic.Int64 // chunks satisfied shard→shard instead
	cPeerPuts     *atomic.Int64
	cRestores     *atomic.Int64
	cFailovers    *atomic.Int64      // restores that fell over to a replica
	hRestore      *metrics.Histogram // request frame read → RestoreEnd relayed
	cMigrated     *atomic.Int64      // files moved by rebalance
	cRepaired     *atomic.Int64      // files re-replicated by repair
	cQuotaRejects *atomic.Int64
}

// NewGateway builds an unstarted gateway.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	ring, err := NewRing(RingConfig{Shards: cfg.Shards, VNodes: cfg.VNodes})
	if err != nil {
		return nil, err
	}
	gw := &Gateway{
		cfg:         cfg,
		tenants:     NewTenants(cfg.Tenants),
		ring:        ring,
		writeRing:   ring,
		drainSet:    make(map[string]bool),
		routedFiles: make(map[string]*atomic.Int64, len(cfg.Shards)),
		routedBytes: make(map[string]*atomic.Int64, len(cfg.Shards)),
	}
	r := cfg.Registry
	gw.cFiles = r.Counter("gateway.files")
	gw.cChunksClient = r.Counter("gateway.chunks.from_client")
	gw.cChunksPeer = r.Counter("gateway.chunks.peer_routed")
	gw.cPeerPuts = r.Counter("gateway.chunks.peer_seeded")
	gw.cRestores = r.Counter("gateway.restores")
	gw.cFailovers = r.Counter("gateway.restore.failovers")
	gw.links = session.NewLinks(restoreLinkCap, restoreLinkCap*len(cfg.Shards),
		r.Counter("gateway.restore.shard_dials"), r.Counter("gateway.restore.shard_reuses"))
	gw.peers = session.NewLinks(restoreLinkCap, restoreLinkCap*len(cfg.Shards),
		r.Counter("gateway.peer.dials"), r.Counter("gateway.peer.reuses"))
	gw.hRestore = r.Histogram("gateway.restore_ns")
	gw.cMigrated = r.Counter("gateway.rebalance.files")
	gw.cRepaired = r.Counter("gateway.repair.files")
	gw.cQuotaRejects = r.Counter("gateway.quota_rejects")
	for _, s := range cfg.Shards {
		gw.routedFiles[s.ID] = r.Counter("gateway.shard." + s.ID + ".files")
		gw.routedBytes[s.ID] = r.Counter("gateway.shard." + s.ID + ".bytes")
	}
	// The gateway serves no ModePeer and needs no on-expire hook: a parked
	// session holds no backend connections (its incarnation closed them).
	gw.ep = session.NewEndpoint(session.Config[*gwSession]{
		Name:        "gateway",
		EventPrefix: "gateway.session_",
		Limits: session.Limits{IdleTimeout: cfg.IdleTimeout, WriteTimeout: cfg.WriteTimeout,
			MaxPayload: cfg.MaxPayload},
		Window:        cfg.Window,
		MaxSessions:   cfg.MaxSessions,
		ResumeTimeout: cfg.ResumeTimeout,
		Registry:      r,
		Events:        cfg.Events,
		Authenticate:  gw.tenants.Authenticate,
		New:           gw.newSession,
		Ingest:        gw.serveIngestConn,
		Restore:       gw.serveRestoreConn,
	})
	return gw, nil
}

// Tenants exposes the tenant table (usage snapshots for /metrics.json).
func (gw *Gateway) Tenants() *Tenants { return gw.tenants }

// ShardStats reports per-shard routed file and logical-byte tallies.
func (gw *Gateway) ShardStats() map[string][2]int64 {
	out := make(map[string][2]int64, len(gw.routedFiles))
	for id := range gw.routedFiles {
		out[id] = [2]int64{gw.routedFiles[id].Load(), gw.routedBytes[id].Load()}
	}
	return out
}

// DrainShard removes a shard from the write ring: files already homed
// there stay readable (restores and peer fetches still reach it), new
// files route to the surviving shards, and in-flight files already homed
// there run to completion. Known limitation, by design: if a drained
// shard later rejoins, a name rewritten on its new home shard while the
// old shard was out resolves ambiguously — a full rebalance (re-ingest
// through the gateway) is the supported way back in.
func (gw *Gateway) DrainShard(id string) error {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	if _, found := gw.ring.Shard(id); !found {
		return fmt.Errorf("cluster: no shard %q", id)
	}
	if gw.drainSet[id] {
		return nil
	}
	gw.drainSet[id] = true
	ids := make([]string, 0, len(gw.drainSet))
	for d := range gw.drainSet {
		ids = append(ids, d)
	}
	wr, err := gw.ring.Without(ids...)
	if err != nil {
		delete(gw.drainSet, id)
		return fmt.Errorf("cluster: draining %q would empty the write ring: %w", id, err)
	}
	gw.writeRing = wr
	gw.cfg.Events.Info("gateway.drain_shard", events.F("shard", id))
	return nil
}

// rings returns the (full, write) ring pair under the lock.
func (gw *Gateway) rings() (full, write *Ring) {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return gw.ring, gw.writeRing
}

// shardDraining reports whether a shard is currently excluded from the
// write ring.
func (gw *Gateway) shardDraining(id string) bool {
	gw.mu.Lock()
	defer gw.mu.Unlock()
	return gw.drainSet[id]
}

// Serve accepts client connections until Drain or Close.
func (gw *Gateway) Serve(ln net.Listener) error { return gw.ep.Serve(ln) }

// Drain gracefully shuts the gateway down: stop accepting, refuse new
// sessions retryably, expire parked sessions, wait for in-flight ones.
func (gw *Gateway) Drain(ctx context.Context) error {
	err := gw.ep.Drain(ctx)
	gw.peers.Close()
	gw.links.Close()
	return err
}

// Close hard-stops the gateway: listener, client connections, sessions
// (and their backend connections), peer connections and parked restore
// links.
func (gw *Gateway) Close() error {
	gw.ep.Close()
	gw.peers.Close()
	gw.links.Close()
	return nil
}

// SessionCount returns live (attached or parked-resumable) sessions.
func (gw *Gateway) SessionCount() int { return gw.ep.Sessions.Len() }

// ---------------------------------------------------------------------------
// Restore proxying.

// serveRestoreConn answers List by merging every shard's (tenant-scoped)
// listing and Restore by relaying from the shard that has the file:
// ring owner first, then — because drain moves placement of rewritten
// names — every other shard, so a drain never makes a stored file
// unreachable through the gateway.
func (gw *Gateway) serveRestoreConn(c *session.Conn, tenant string) {
	for {
		f, err := c.ReadRequest()
		if err != nil {
			return
		}
		switch f.Type {
		case wire.TypeListReq:
			names, err := gw.mergedList(tenant)
			if err != nil {
				c.Errorf(wire.CodeInternal, true, "cluster list: %v", err)
				return
			}
			if err := c.Write(wire.TypeListResp, wire.ListResp{Names: names}.Marshal()); err != nil {
				return
			}
		case wire.TypeRestoreReq, wire.TypeRestoreRange:
			// Decode only to learn the name (placement) and validate the
			// frame; the payload is relayed verbatim — the shard re-scopes
			// the name itself from the tenant on its Hello.
			start := time.Now()
			req, err := wire.UnmarshalRestoreRequest(f)
			if err != nil {
				c.Errorf(wire.CodeProtocol, false, "bad %s: %v", wire.TypeName(f.Type), err)
				return
			}
			if err := gw.relayRestore(c, tenant, req.Name, f, start); err != nil {
				return
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

// mergedList unions the tenant's names across all shards, sorted and
// deduplicated (a name can exist on two shards after a drain rewrote it
// on a new home).
func (gw *Gateway) mergedList(tenant string) ([]string, error) {
	full, _ := gw.rings()
	seen := make(map[string]bool)
	var lastErr error
	reached := 0
	for _, sh := range full.Shards() {
		names, err := gw.shardList(sh, tenant)
		if err != nil {
			lastErr = fmt.Errorf("shard %s: %w", sh.ID, err)
			continue
		}
		reached++
		for _, n := range names {
			seen[n] = true
		}
	}
	if reached == 0 && lastErr != nil {
		return nil, lastErr
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// shardList fetches one shard's tenant-scoped listing over a restore link.
func (gw *Gateway) shardList(sh Shard, tenant string) (names []string, err error) {
	err = gw.restoreLink(sh, tenant, func(bc *session.Conn) (bool, error) {
		f, err := bc.Call(wire.TypeListReq, nil, wire.TypeListResp)
		if err == nil {
			var resp wire.ListResp
			resp, err = wire.UnmarshalListResp(f.Payload)
			names = resp.Names
		}
		return session.Answered(err), err
	})
	return names, err
}

// restoreProbeOrder is the shard order a restore tries: the write-ring
// replica owners first (they hold the newest version of any name
// (re)written during a drain), then the full-ring owners (placement from
// before a drain), then every other shard, for belt and braces.
func (gw *Gateway) restoreProbeOrder(fullName string) []Shard {
	full, write := gw.rings()
	r := gw.cfg.Replication
	probe := append([]Shard(nil), write.OwnersOfName(fullName, r)...)
	add := func(sh Shard) {
		for _, p := range probe {
			if p.ID == sh.ID {
				return
			}
		}
		probe = append(probe, sh)
	}
	for _, sh := range full.OwnersOfName(fullName, r) {
		add(sh)
	}
	for _, sh := range full.Shards() {
		add(sh)
	}
	return probe
}

// relayRestore streams one file (or range: req, the client's RestoreReq or
// RestoreRange frame, is relayed verbatim; name is its already-decoded
// file name, used only for placement) from whichever shard has it. Losing a
// shard mid-stream fails over to the next replica: the continuation
// stream's first `skip` bytes — the prefix the client already received —
// are discarded, and the relay resumes from there. That splice is
// end-to-end safe because the client independently hashes everything it
// receives and checks it against RestoreEnd's declared sum, so a replica
// whose content diverges from the prefix surfaces as a verification
// failure, never silent corruption. A nil return means the client stream
// is still coherent (complete relay, or an error frame sent before any
// data); a non-nil return means the client connection is compromised and
// must be dropped.
func (gw *Gateway) relayRestore(c *session.Conn, tenant, name string, req wire.Frame, start time.Time) error {
	probe := gw.restoreProbeOrder(wire.NSJoin(tenant, name))
	var lastErr error
	var relayed uint64 // client-visible payload bytes already sent
	attempted := 0
	for _, sh := range probe {
		sent, done, err := gw.relayRestoreFrom(c, sh, tenant, req, relayed, start)
		if attempted++; sent > 0 && relayed > 0 {
			gw.cFailovers.Add(1)
		}
		relayed += sent
		if done {
			return err
		}
		if err != nil {
			lastErr = err
		}
	}
	if relayed > 0 {
		// Data frames reached the client but every continuation source is
		// gone; no RestoreEnd may be claimed — kill the stream.
		return fmt.Errorf("restore of %q lost all %d sources mid-stream (last: %v)", name, attempted, lastErr)
	}
	var em wire.ErrorMsg
	if errors.As(lastErr, &em) {
		// Relay the most recent shard verdict with its code intact (a
		// NotFound stays a NotFound, an integrity error stays one).
		em.Msg = fmt.Sprintf("restore %q: %s", name, em.Msg)
		c.SendError(em)
		return nil
	}
	c.Errorf(wire.CodeNotFound, false, "no shard has %q (last: %v)", name, lastErr)
	return nil
}

// relayRestoreFrom attempts the relay from one shard, over a pooled restore
// link. Every frame the shard sends is CRC-checked by ReadStream and every
// RestoreData decoded; what passes is forwarded as the bytes it arrived in
// (the CRC just verified is the CRC the client will verify). Only a
// failover splice re-encodes: the first `skip` payload bytes (already
// relayed from a failed source) are discarded, and a frame the cut falls
// inside is rebuilt around its tail. sent counts the client-visible bytes
// this shard contributed. done=false means the client stream is still
// splice-able: either nothing was relayed (the file is not there, or the
// shard is unreachable) or the shard died mid-stream and the next replica
// may continue from skip+sent.
func (gw *Gateway) relayRestoreFrom(c *session.Conn, sh Shard, tenant string, req wire.Frame,
	skip uint64, start time.Time) (sent uint64, done bool, err error) {
	err = gw.restoreLink(sh, tenant, func(bc *session.Conn) (atLoop bool, err error) {
		if werr := bc.Write(req.Type, req.Payload); werr != nil {
			return false, werr
		}
		discarded := uint64(0)
		var prefix [4]byte
		// garbled ends the relay on something no replica's stream may
		// follow once the client has data: a frame that makes no sense.
		garbled := func(err error) (bool, error) { done = sent > 0; return false, err }
		for {
			f, raw, rerr := bc.ReadStream()
			if rerr != nil {
				// Shard lost. If this source contributed nothing the caller
				// simply probes the next one; if it did, the caller fails
				// over mid-stream the same way.
				return false, rerr
			}
			switch f.Type {
			case wire.TypeRestoreData:
				rd, uerr := wire.UnmarshalRestoreData(f.Payload)
				if uerr != nil {
					return garbled(fmt.Errorf("shard %s: bad RestoreData: %w", sh.ID, uerr))
				}
				var serr error
				if cut := min(skip-discarded, uint64(len(rd.Data))); cut == 0 {
					serr = c.WriteRaw(raw)
				} else {
					discarded += cut
					if rd.Data = rd.Data[cut:]; len(rd.Data) == 0 {
						continue
					}
					head, data := rd.Parts(&prefix)
					serr = c.Write(wire.TypeRestoreData, head, data)
				}
				if serr != nil {
					done = true
					return false, serr
				}
				sent += uint64(len(rd.Data))
			case wire.TypeRestoreEnd:
				done = true
				if discarded < skip {
					// This replica's stream is SHORTER than what the client
					// already received — a diverging stale copy. Relaying its
					// RestoreEnd would claim success for a stream the client
					// will fail to verify anyway; kill the relay instead.
					return true, fmt.Errorf("shard %s stream ended %d bytes short of the relayed prefix",
						sh.ID, skip-discarded)
				}
				gw.cRestores.Add(1)
				serr := c.WriteRaw(raw)
				gw.hRestore.ObserveSince(start)
				return true, serr
			case wire.TypeError:
				em, uerr := wire.UnmarshalError(f.Payload)
				if uerr != nil {
					return garbled(uerr)
				}
				// Any shard-side error — not found, corrupt chunk caught by a
				// verified read, engine failure — means this source cannot
				// complete the stream. Fail over: another replica may hold a
				// clean copy, and the client's end-to-end verification keeps
				// the splice honest.
				return true, em
			default:
				return garbled(fmt.Errorf("unexpected %s in shard restore stream", wire.TypeName(f.Type)))
			}
		}
	})
	return sent, done, err
}

// ---------------------------------------------------------------------------
// Shard connections.

// dialShard opens a connection to a shard and completes the handshake.
// A refusal comes back as wire.ErrorMsg (via errors.As).
func (gw *Gateway) dialShard(sh Shard, hello wire.Hello, m session.Meter) (*session.Conn, wire.HelloOK, error) {
	lim := session.Limits{IdleTimeout: gw.cfg.IdleTimeout, WriteTimeout: gw.cfg.WriteTimeout}
	bc, ok, err := session.Dial(gw.cfg.Dial, sh.Addr, hello, lim, m)
	if err != nil {
		return nil, ok, fmt.Errorf("shard %s (%s): %w", sh.ID, sh.Addr, err)
	}
	return bc, ok, nil
}

// ---------------------------------------------------------------------------
// Kept shard links: restore and peer plane.

// restoreLinkCap is how many idle links of each plane the gateway keeps per
// shard (and tenant), and, times the shard count, in all.
const restoreLinkCap = 4

// restoreLink runs one request on a kept ModeRestore link to sh under
// tenant's Hello. The two link pools (session.Links) are where the gateway
// dials a shard for anything but an ingest session, a migration's included.
func (gw *Gateway) restoreLink(sh Shard, tenant string, use func(bc *session.Conn) (atLoop bool, err error)) error {
	return gw.links.Do(session.LinkKey{Peer: sh.ID, Tenant: tenant}, func(m session.Meter) (*session.Conn, error) {
		bc, _, err := gw.dialShard(sh, wire.Hello{Mode: wire.ModeRestore, Tenant: tenant}, m)
		return bc, err
	}, use)
}

// peerRPC runs one request/response exchange on a kept ModePeer link to sh.
// Peer traffic is a bandwidth optimization, never a correctness dependency:
// every failure degrades to "the chunk comes from the client".
func (gw *Gateway) peerRPC(sh Shard, reqType uint8, payload []byte, wantType uint8) (f wire.Frame, err error) {
	err = gw.peers.Do(session.LinkKey{Peer: sh.ID}, func(m session.Meter) (*session.Conn, error) {
		bc, _, err := gw.dialShard(sh, wire.Hello{Mode: wire.ModePeer}, m)
		return bc, err
	}, func(bc *session.Conn) (bool, error) {
		var cerr error
		f, cerr = bc.Call(reqType, payload, wantType)
		return session.Answered(cerr), cerr
	})
	if err != nil {
		return f, fmt.Errorf("peer %s: %w", sh.ID, err)
	}
	return f, nil
}

// peerFetch asks sh for the chunks in entries; the result maps the index
// within entries to verified chunk bytes. Any failure returns nil (all
// misses). Returned bytes are re-hashed here — a chunk that does not
// hash to its offered address is dropped rather than injected into the
// home shard (where it would kill the client's session as an integrity
// violation).
func (gw *Gateway) peerFetch(sh Shard, entries []wire.OfferEntry) map[int][]byte {
	f, err := gw.peerRPC(sh, wire.TypePeerFetch, wire.PeerFetch{Entries: entries}.Marshal(), wire.TypePeerChunks)
	if err != nil {
		gw.cfg.Events.Debug("gateway.peer_fetch_fail",
			events.F("shard", sh.ID), events.F("err", err))
		return nil
	}
	pcks, err := wire.UnmarshalPeerChunks(f.Payload)
	if err != nil || len(pcks.Indices) == 0 {
		return nil
	}
	out := make(map[int][]byte, len(pcks.Indices))
	for i, idx := range pcks.Indices {
		if int(idx) >= len(entries) {
			continue
		}
		data := pcks.Chunks[i]
		e := entries[idx]
		if uint32(len(data)) != e.Size || hashutil.SumBytes(data) != e.Hash {
			continue
		}
		out[int(idx)] = data
	}
	return out
}

// peerPut seeds chunks into sh's cache, best effort.
func (gw *Gateway) peerPut(sh Shard, chunks [][]byte) {
	if len(chunks) == 0 {
		return
	}
	if _, err := gw.peerRPC(sh, wire.TypePeerPut, wire.PeerPut{Chunks: chunks}.Marshal(), wire.TypePeerPutOK); err != nil {
		gw.cfg.Events.Debug("gateway.peer_put_fail",
			events.F("shard", sh.ID), events.F("err", err))
		return
	}
	gw.cPeerPuts.Add(int64(len(chunks)))
}
