package cluster

import (
	"errors"
	"fmt"
	"sort"

	"mhdedup/internal/events"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/session"
	"mhdedup/internal/wire"
)

// gwSession is the gateway half of one client ingest session. The client
// sees a single ordered, windowed, resumable command stream — exactly
// what a plain dedupd offers — while the gateway maps that stream onto
// per-shard backend sessions: each file's commands are renumbered into
// its home shard's sequence space, Need answers are intercepted for
// peer-plane chunk routing, and backend acks are re-ordered back into
// the client's contiguous sequence.
//
// Ownership is session.Table's rule: exactly one connection handler owns
// the session while it is attached.
// Everything per-incarnation (connections, channels, reader goroutines)
// is rebuilt on resume — backend connections are deliberately bounced
// (re-dialed with their shard resume tokens, which clears the shards'
// pending windows), so the client's replay flows through the normal path
// and shard-side idempotency does the deduplication.
type gwSession struct {
	gw     *Gateway
	token  uint64
	tenant string
	opts   wire.EngineOptions

	// Owned by the attached handler; survive re-attachment.
	lastAcked   uint64            // highest client seq released as Ack
	maxSeq      uint64            // highest client seq ever admitted
	cmds        map[uint64]*gwCmd // client seq → unacked command
	rev         map[string]map[uint64]uint64
	lastSeq     map[string]uint64 // shard ID → last backend seq assigned
	shardTokens map[string]uint64 // shard ID → backend session resume token
	shardByID   map[string]Shard
	curFile     *gwFile

	// Incarnation-local (rebuilt each attachment).
	conns     map[string]*session.Conn
	backendCh chan bEvent
	done      chan struct{}
}

// gwCmd is one client command: its placement (the file's replica set,
// primary first, with one backend seq per shard — fixed at first receipt
// so replays land on the same shard sessions) and enough of its content
// to re-marshal for forwarding. With Replication R every command of a
// file fans out to the same R ring-successor owners; the client's ack is
// released only when EVERY replica has acked, so an acked file is
// durable R ways by construction.
type gwCmd struct {
	seq     uint64
	shards  []Shard           // replica placement, primary first
	bseqs   map[string]uint64 // shard ID → backend seq on that shard
	kind    uint8
	ackedBy map[string]bool // shard IDs that have acked this command

	name       string // FileBegin
	totalBytes uint64 // FileEnd
	sum        hashutil.Sum
	offer      *gwOffer
}

// primary is the file's home shard — the first ring owner, where
// single-copy placement would have put it. Balance accounting charges it.
func (c *gwCmd) primary() Shard { return c.shards[0] }

// fullyAcked reports whether every replica shard has acked the command.
func (c *gwCmd) fullyAcked() bool { return len(c.ackedBy) == len(c.shards) }

// gwOffer is the chunk-routing state of one Offer: each replica shard's
// need list and index→position map for ChunkData translation, and the
// residue the client must supply — the union of what the replicas still
// lack after the peer plane was consulted. All transient — reset when a
// resume invalidates the incarnation.
type gwOffer struct {
	entries    []wire.OfferEntry
	needs      map[string][]uint32       // shard ID → entry indices it needs
	pos        map[string]map[uint32]int // shard ID → entry index → need position
	answered   map[string]bool           // shards whose Need (or implicit empty) arrived
	clientNeed []uint32                  // entry indices the client must send (sorted)
	needSent   bool
}

func newGwOffer(entries []wire.OfferEntry) *gwOffer {
	return &gwOffer{
		entries:  entries,
		needs:    make(map[string][]uint32),
		pos:      make(map[string]map[uint32]int),
		answered: make(map[string]bool),
	}
}

// gwFile is the file currently being routed: every Offer until FileEnd
// goes to its replica set.
type gwFile struct {
	name   string
	shards []Shard
}

// bEvent is one frame (or connection failure) from a backend reader.
type bEvent struct {
	shard string
	f     wire.Frame
	err   error
}

// cEvent is one frame (or failure) from the client reader.
type cEvent struct {
	f   wire.Frame
	err error
}

func (gw *Gateway) newSession(token uint64, hello wire.Hello) *gwSession {
	return &gwSession{
		gw:          gw,
		token:       token,
		tenant:      hello.Tenant,
		opts:        hello.Options,
		cmds:        make(map[uint64]*gwCmd),
		rev:         make(map[string]map[uint64]uint64),
		lastSeq:     make(map[string]uint64),
		shardTokens: make(map[string]uint64),
		shardByID:   make(map[string]Shard),
	}
}

// ---------------------------------------------------------------------------
// The ingest relay.

// disposition is how an incarnation releases its session when the relay
// loop exits. The release happens strictly AFTER this incarnation's
// plumbing is torn down — a successor may rebuild ss.conns/backendCh/
// done the instant detach unparks the session, so nothing here may touch
// them once the session is released.
type disposition int

const (
	dispDetach disposition = iota // park resumable
	dispExpire                    // session is over (orderly or fatal)
)

func (gw *Gateway) serveIngestConn(c *session.Conn, hello wire.Hello, ss *gwSession) {
	// Fresh incarnation plumbing: connections, the backend event channel
	// and the done gate readers use to avoid posting into a dead loop.
	ss.conns = make(map[string]*session.Conn)
	ss.backendCh = make(chan bEvent, 4*gw.cfg.Window+32)
	ss.done = make(chan struct{})

	disp := ss.relay(c, hello)

	close(ss.done)
	for _, bc := range ss.conns {
		bc.Close()
	}
	ss.conns = nil
	switch disp {
	case dispDetach:
		gw.ep.Sessions.Detach(ss.token)
	case dispExpire:
		gw.ep.Sessions.Expire(ss.token, false)
	}
}

// relay runs one incarnation of the session: handshake completion, then
// the event loop owning all session state and all frame writes.
func (ss *gwSession) relay(c *session.Conn, hello wire.Hello) disposition {
	gw := ss.gw

	if hello.ResumeToken != 0 {
		if err := ss.bounceBackends(); err != nil {
			var em wire.ErrorMsg
			if errors.As(err, &em) && !em.Retryable {
				c.Errorf(wire.CodeInternal, false, "resume lost backend state: %v", err)
				return dispExpire
			}
			c.Errorf(wire.CodeInternal, true, "shard unreachable during resume: %v", err)
			return dispDetach
		}
	}

	ok := wire.HelloOK{
		SessionToken: ss.token,
		Window:       uint32(gw.cfg.Window),
		MaxPayload:   gw.cfg.MaxPayload,
		LastApplied:  ss.lastAcked,
	}
	if err := c.Write(wire.TypeHelloOK, ok.Marshal()); err != nil {
		return dispDetach
	}

	clientCh := make(chan cEvent, 8)
	done := ss.done // this incarnation's gate, not whatever a successor installs
	go func() {
		for {
			f, err := c.Read()
			select {
			case clientCh <- cEvent{f: f, err: err}:
			case <-done:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	// closing tracks the orderly Close fan-out: which backends still owe
	// a CloseOK.
	var closing map[string]bool

	for {
		var herr error
		select {
		case ev := <-clientCh:
			if ev.err != nil {
				if session.IsTimeout(ev.err) {
					c.Errorf(wire.CodeProtocol, true, "idle timeout: no frame for %v", gw.cfg.IdleTimeout)
				}
				return dispDetach
			}
			if closing != nil {
				c.Errorf(wire.CodeProtocol, false, "frame after Close")
				return dispExpire
			}
			switch ev.f.Type {
			case wire.TypeFileBegin:
				var fb wire.FileBegin
				if fb, herr = wire.UnmarshalFileBegin(ev.f.Payload); herr == nil {
					herr = ss.handleFileBegin(fb, c)
				}
			case wire.TypeOffer:
				var of wire.Offer
				if of, herr = wire.UnmarshalOffer(ev.f.Payload); herr == nil {
					herr = ss.handleOffer(of, c)
				}
			case wire.TypeChunkData:
				var cd wire.ChunkData
				if cd, herr = wire.UnmarshalChunkData(ev.f.Payload); herr == nil {
					herr = ss.handleChunkData(cd)
				}
			case wire.TypeFileEnd:
				var fe wire.FileEnd
				if fe, herr = wire.UnmarshalFileEnd(ev.f.Payload); herr == nil {
					herr = ss.handleFileEnd(fe, c)
				}
			case wire.TypeClose:
				closing, herr = ss.beginClose()
				if herr == nil && len(closing) == 0 {
					c.Write(wire.TypeCloseOK, nil)
					gw.cfg.Events.Info("gateway.session_close", events.F("session", ss.token))
					return dispExpire
				}
			default:
				herr = session.Fatalf(wire.CodeProtocol, "unexpected %s frame on ingest session", wire.TypeName(ev.f.Type))
			}

		case ev := <-ss.backendCh:
			if ev.err != nil {
				if closing != nil {
					// Everything was acked before the Close fan-out, so a
					// shard hanging up now — before or after its CloseOK —
					// is harmless; don't fail an orderly close over it.
					delete(closing, ev.shard)
					if len(closing) == 0 {
						c.Write(wire.TypeCloseOK, nil)
						return dispExpire
					}
					continue
				}
				c.Errorf(wire.CodeInternal, true, "shard %s connection lost: %v", ev.shard, ev.err)
				return dispDetach
			}
			switch ev.f.Type {
			case wire.TypeNeed:
				var need wire.Need
				if need, herr = wire.UnmarshalNeed(ev.f.Payload); herr == nil {
					herr = ss.handleBackendNeed(ev.shard, need, c)
				}
			case wire.TypeAck:
				var ack wire.Ack
				if ack, herr = wire.UnmarshalAck(ev.f.Payload); herr == nil {
					herr = ss.handleBackendAck(ev.shard, ack, c)
				}
			case wire.TypeCloseOK:
				if closing == nil || !closing[ev.shard] {
					herr = session.Fatalf(wire.CodeProtocol, "unsolicited CloseOK from shard %s", ev.shard)
					break
				}
				delete(closing, ev.shard)
				if len(closing) == 0 {
					c.Write(wire.TypeCloseOK, nil)
					gw.cfg.Events.Info("gateway.session_close", events.F("session", ss.token))
					return dispExpire
				}
			case wire.TypeError:
				em, uerr := wire.UnmarshalError(ev.f.Payload)
				if uerr != nil {
					herr = session.Fatalf(wire.CodeProtocol, "bad Error frame from shard %s: %v", ev.shard, uerr)
					break
				}
				if em.Retryable {
					// Shard shed or detached us. Hand the backoff to the
					// client; its resume will bounce and replay.
					em.Msg = fmt.Sprintf("shard %s: %s", ev.shard, em.Msg)
					c.SendError(em)
					return dispDetach
				}
				herr = &session.Fatal{Msg: wire.ErrorMsg{Code: em.Code,
					Msg: fmt.Sprintf("shard %s: %s", ev.shard, em.Msg)}}
			default:
				herr = session.Fatalf(wire.CodeProtocol, "unexpected %s frame from shard %s", wire.TypeName(ev.f.Type), ev.shard)
			}
		}

		if herr != nil {
			// A shed, or a transport-level failure (client or shard write
			// failed), parks the session.
			if fatal := c.Report(herr); fatal != nil {
				gw.cfg.Events.Error("gateway.session_fail",
					events.F("session", ss.token), events.F("code", fatal.Msg.Code),
					events.F("msg", fatal.Msg.Msg))
				return dispExpire
			}
			return dispDetach
		}
	}
}

// ---------------------------------------------------------------------------
// Backend session management.

// backendFor returns the live connection to sh's backend session,
// dialing (and resuming, if this session talked to sh before) on demand.
func (ss *gwSession) backendFor(sh Shard) (*session.Conn, error) {
	if bc, ok := ss.conns[sh.ID]; ok {
		return bc, nil
	}
	hello := wire.Hello{Mode: wire.ModeIngest, Options: ss.opts, Tenant: ss.tenant}
	if tok := ss.shardTokens[sh.ID]; tok != 0 {
		hello.ResumeToken = tok
	}
	bc, ok, err := ss.gw.dialShard(sh, hello, session.Meter{})
	if err != nil {
		return nil, err
	}
	// The gateway's client-facing contract must be coverable by the
	// shard's: a window the shard won't honor or frames it won't accept
	// would corrupt the relay invariants, so refuse loudly at dial time.
	if int(ok.Window) < ss.gw.cfg.Window {
		bc.Close()
		return nil, fmt.Errorf("shard %s window %d below gateway window %d (misconfigured cluster)",
			sh.ID, ok.Window, ss.gw.cfg.Window)
	}
	if bc.MaxPayload() < ss.gw.cfg.MaxPayload {
		bc.Close()
		return nil, fmt.Errorf("shard %s max payload %d below gateway's %d (misconfigured cluster)",
			sh.ID, bc.MaxPayload(), ss.gw.cfg.MaxPayload)
	}
	ss.shardTokens[sh.ID] = ok.SessionToken
	ss.shardByID[sh.ID] = sh
	ss.conns[sh.ID] = bc
	// The channel and done gate are passed by value: a reader from a
	// previous incarnation must keep using ITS channel pair (both safely
	// dead), never the fields a successor incarnation has since replaced.
	go readBackend(sh.ID, bc, ss.backendCh, ss.done)
	return bc, nil
}

func readBackend(shardID string, bc *session.Conn, ch chan<- bEvent, done <-chan struct{}) {
	for {
		f, err := bc.Read()
		select {
		case ch <- bEvent{shard: shardID, f: f, err: err}:
		case <-done:
			return
		}
		if err != nil {
			return
		}
	}
}

// bounceBackends re-establishes backend sessions at resume time. Shards
// with unacked commands (or the open file) are mandatory: resuming them
// clears their pending windows so the client's replay is accepted
// cleanly. Shards this session only has historical tokens for are
// optional — if their sessions expired while we were parked, the tokens
// are dropped and the shards clean up on their own.
func (ss *gwSession) bounceBackends() error {
	needed := make(map[string]bool)
	for _, cmd := range ss.cmds {
		for _, sh := range cmd.shards {
			needed[sh.ID] = true
		}
		// Replay will recompute every offer's routing from scratch.
		if cmd.offer != nil {
			cmd.offer.needs = make(map[string][]uint32)
			cmd.offer.pos = make(map[string]map[uint32]int)
			cmd.offer.answered = make(map[string]bool)
			cmd.offer.clientNeed = nil
			cmd.offer.needSent = false
		}
		cmd.ackedBy = make(map[string]bool)
	}
	if ss.curFile != nil {
		for _, sh := range ss.curFile.shards {
			needed[sh.ID] = true
		}
	}
	for id := range ss.shardTokens {
		sh := ss.shardByID[id]
		if _, err := ss.backendFor(sh); err != nil {
			if !needed[id] {
				delete(ss.shardTokens, id)
				ss.gw.cfg.Events.Warn("gateway.backend_dropped",
					events.F("session", ss.token), events.F("shard", id), events.F("err", err))
				continue
			}
			return err
		}
	}
	return nil
}

// allocSeq assigns the next backend sequence number on sh for clientSeq.
func (ss *gwSession) allocSeq(sh Shard, clientSeq uint64) uint64 {
	ss.lastSeq[sh.ID]++
	b := ss.lastSeq[sh.ID]
	m := ss.rev[sh.ID]
	if m == nil {
		m = make(map[uint64]uint64)
		ss.rev[sh.ID] = m
	}
	m[b] = clientSeq
	return b
}

// forward relays one re-numbered command frame to every shard in the
// command's replica set.
func (ss *gwSession) forward(cmd *gwCmd) error {
	for _, sh := range cmd.shards {
		bc, err := ss.backendFor(sh)
		if err != nil {
			return ss.backendError(sh, err)
		}
		bseq := cmd.bseqs[sh.ID]
		var payload []byte
		switch cmd.kind {
		case wire.TypeFileBegin:
			payload = wire.FileBegin{Seq: bseq, Name: cmd.name}.Marshal()
		case wire.TypeOffer:
			payload = wire.Offer{Seq: bseq, Entries: cmd.offer.entries}.Marshal()
		case wire.TypeFileEnd:
			payload = wire.FileEnd{Seq: bseq, TotalBytes: cmd.totalBytes, Sum: cmd.sum}.Marshal()
		default:
			return session.Fatalf(wire.CodeInternal, "unforwardable command kind %d", cmd.kind)
		}
		if err := bc.Write(cmd.kind, payload); err != nil {
			return ss.backendError(sh, err)
		}
	}
	return nil
}

// backendError classifies a backend dial/write failure: a non-retryable
// shard refusal (handshake mismatch, lost session) is fatal for the
// client too, and so is losing a DRAINING shard — its placement is gone
// from the write ring, so a resume would replay into the same dead
// placement forever; failing fast lets the caller re-put the file through
// a fresh session whose placement avoids it. Everything else parks the
// session for resume.
func (ss *gwSession) backendError(sh Shard, err error) error {
	var em wire.ErrorMsg
	if errors.As(err, &em) && !em.Retryable {
		return &session.Fatal{Msg: wire.ErrorMsg{Code: em.Code,
			Msg: fmt.Sprintf("shard %s: %s", sh.ID, em.Msg)}}
	}
	if ss.gw.shardDraining(sh.ID) {
		return &session.Fatal{Msg: wire.ErrorMsg{Code: wire.CodeInternal,
			Msg: fmt.Sprintf("draining shard %s unavailable: %v (re-put through a new session for fresh placement)", sh.ID, err)}}
	}
	return &session.Shed{Msg: wire.ErrorMsg{Code: wire.CodeOverloaded, Retryable: true,
		Msg: fmt.Sprintf("shard %s unavailable: %v", sh.ID, err)}}
}

// ---------------------------------------------------------------------------
// Client command handling.

func (ss *gwSession) admit(seq uint64) error {
	if len(ss.cmds) >= ss.gw.cfg.Window {
		return session.Fatalf(wire.CodeProtocol, "in-flight window exceeded (%d commands unacked, window %d)",
			len(ss.cmds), ss.gw.cfg.Window)
	}
	if seq > ss.lastAcked+uint64(ss.gw.cfg.Window) {
		return session.Fatalf(wire.CodeProtocol, "command seq %d too far ahead of acked %d (window %d)",
			seq, ss.lastAcked, ss.gw.cfg.Window)
	}
	if seq <= ss.maxSeq {
		return session.Fatalf(wire.CodeProtocol, "command seq %d reuses a live sequence number", seq)
	}
	ss.maxSeq = seq
	return nil
}

func (ss *gwSession) handleFileBegin(fb wire.FileBegin, c *session.Conn) error {
	if fb.Seq <= ss.lastAcked {
		return c.Write(wire.TypeAck, wire.Ack{Seq: fb.Seq}.Marshal())
	}
	if cmd, ok := ss.cmds[fb.Seq]; ok {
		// Replay after resume: same placement, same backend seqs; the
		// shards ack idempotently if they already applied it.
		ss.curFile = &gwFile{name: cmd.name, shards: cmd.shards}
		return ss.forward(cmd)
	}
	// Quota gate — only for genuinely new files, never replays: the
	// overshoot of an admitted file is bounded, and shedding a replay
	// would strand work the shard may already have applied.
	if retry, ok := ss.gw.tenants.AdmitFile(ss.tenant); !ok {
		ss.gw.cQuotaRejects.Add(1)
		ss.gw.cfg.Events.Warn("gateway.quota_reject",
			events.F("session", ss.token), events.F("tenant", ss.tenant),
			events.F("used", ss.gw.tenants.Used(ss.tenant)))
		return &session.Shed{Msg: wire.ErrorMsg{Code: wire.CodeQuota, Retryable: true,
			RetryAfterMs: uint32(retry.Milliseconds()),
			Msg:          fmt.Sprintf("tenant %q over quota (%d bytes used)", ss.tenant, ss.gw.tenants.Used(ss.tenant))}}
	}
	if err := ss.admit(fb.Seq); err != nil {
		return err
	}
	_, write := ss.gw.rings()
	shards := write.OwnersOfName(wire.NSJoin(ss.tenant, fb.Name), ss.gw.cfg.Replication)
	cmd := ss.newCmd(fb.Seq, shards, wire.TypeFileBegin)
	cmd.name = fb.Name
	ss.cmds[fb.Seq] = cmd
	ss.curFile = &gwFile{name: fb.Name, shards: shards}
	if c := ss.gw.routedFiles[cmd.primary().ID]; c != nil {
		c.Add(1)
	}
	return ss.forward(cmd)
}

// newCmd builds a command placed on shards, allocating one backend seq
// per replica.
func (ss *gwSession) newCmd(seq uint64, shards []Shard, kind uint8) *gwCmd {
	cmd := &gwCmd{seq: seq, shards: shards, kind: kind,
		bseqs:   make(map[string]uint64, len(shards)),
		ackedBy: make(map[string]bool, len(shards))}
	for _, sh := range shards {
		cmd.bseqs[sh.ID] = ss.allocSeq(sh, seq)
	}
	return cmd
}

func (ss *gwSession) handleOffer(of wire.Offer, c *session.Conn) error {
	if of.Seq <= ss.lastAcked {
		return c.Write(wire.TypeAck, wire.Ack{Seq: of.Seq}.Marshal())
	}
	if cmd, ok := ss.cmds[of.Seq]; ok {
		return ss.forward(cmd) // replay: shard re-answers Need or re-acks
	}
	if ss.curFile == nil {
		return session.Fatalf(wire.CodeProtocol, "Offer %d outside a file", of.Seq)
	}
	if err := ss.admit(of.Seq); err != nil {
		return err
	}
	cmd := ss.newCmd(of.Seq, ss.curFile.shards, wire.TypeOffer)
	cmd.offer = newGwOffer(of.Entries)
	ss.cmds[of.Seq] = cmd
	return ss.forward(cmd)
}

func (ss *gwSession) handleFileEnd(fe wire.FileEnd, c *session.Conn) error {
	if fe.Seq <= ss.lastAcked {
		return c.Write(wire.TypeAck, wire.Ack{Seq: fe.Seq}.Marshal())
	}
	if cmd, ok := ss.cmds[fe.Seq]; ok {
		return ss.forward(cmd)
	}
	if ss.curFile == nil {
		return session.Fatalf(wire.CodeProtocol, "FileEnd %d outside a file", fe.Seq)
	}
	if err := ss.admit(fe.Seq); err != nil {
		return err
	}
	cmd := ss.newCmd(fe.Seq, ss.curFile.shards, wire.TypeFileEnd)
	cmd.totalBytes, cmd.sum = fe.TotalBytes, fe.Sum
	ss.cmds[fe.Seq] = cmd
	ss.curFile = nil // the next FileBegin picks its own replica set
	return ss.forward(cmd)
}

// handleChunkData translates client chunk runs from client-need
// positions into each replica shard's need positions, relays them to
// every replica that asked for the chunk, and seeds each chunk's ring
// owner through the peer plane so the next tenant offering the same hash
// anywhere in the cluster hits shard-local bytes.
func (ss *gwSession) handleChunkData(cd wire.ChunkData) error {
	if cd.Seq <= ss.lastAcked {
		return nil // late data for an acked batch; harmless
	}
	cmd, ok := ss.cmds[cd.Seq]
	if !ok || cmd.kind != wire.TypeOffer {
		return session.Fatalf(wire.CodeProtocol, "chunk data for unknown offer seq %d", cd.Seq)
	}
	off := cmd.offer
	if !off.needSent {
		return session.Fatalf(wire.CodeProtocol, "chunk data for offer %d before its Need was answered", cd.Seq)
	}
	full, _ := ss.gw.rings()
	replica := make(map[string]bool, len(cmd.shards))
	for _, sh := range cmd.shards {
		replica[sh.ID] = true
	}
	runs := make(map[string][]placedChunk, len(cmd.shards))
	seed := make(map[string][][]byte)
	for j, chunk := range cd.Chunks {
		cpos := int(cd.Start) + j
		if cpos < 0 || cpos >= len(off.clientNeed) {
			return session.Fatalf(wire.CodeProtocol, "chunk data position %d outside need list (len %d)", cpos, len(off.clientNeed))
		}
		idx := off.clientNeed[cpos]
		e := off.entries[idx]
		if uint32(len(chunk)) != e.Size {
			return session.Fatalf(wire.CodeIntegrity, "offer %d index %d: got %d bytes, offered %d", cd.Seq, idx, len(chunk), e.Size)
		}
		if hashutil.SumBytes(chunk) != e.Hash {
			return session.Fatalf(wire.CodeIntegrity, "offer %d index %d: chunk bytes do not hash to the offered address", cd.Seq, idx)
		}
		for _, sh := range cmd.shards {
			if p, needed := off.pos[sh.ID][idx]; needed {
				runs[sh.ID] = append(runs[sh.ID], placedChunk{pos: p, data: chunk})
			}
		}
		owner := full.Owner(e.Hash)
		if !replica[owner.ID] && !ss.gw.shardDraining(owner.ID) {
			seed[owner.ID] = append(seed[owner.ID], chunk)
		}
	}
	ss.gw.cChunksClient.Add(int64(len(cd.Chunks)))
	for _, sh := range cmd.shards {
		if err := ss.injectChunks(cmd, sh, runs[sh.ID]); err != nil {
			return err
		}
	}
	for id, chunks := range seed {
		ss.gw.peers.put(ss.shardForID(id, full), chunks)
	}
	return nil
}

// shardForID resolves a shard ID against the ring membership.
func (ss *gwSession) shardForID(id string, r *Ring) Shard {
	sh, _ := r.Shard(id)
	return sh
}

// placedChunk is a chunk addressed by its position in the home shard's
// need list, ready for injection.
type placedChunk struct {
	pos  int
	data []byte
}

// injectChunks forwards (position, bytes) pairs to one replica shard as
// ChunkData runs against its own need list: consecutive positions batch
// into one frame, bounded by the shard's payload cap.
func (ss *gwSession) injectChunks(cmd *gwCmd, sh Shard, chunks []placedChunk) error {
	if len(chunks) == 0 {
		return nil
	}
	bc, err := ss.backendFor(sh)
	if err != nil {
		return ss.backendError(sh, err)
	}
	sort.Slice(chunks, func(a, b int) bool { return chunks[a].pos < chunks[b].pos })
	const perChunkOverhead = 4
	budget := int(bc.MaxPayload()) - 64
	i := 0
	for i < len(chunks) {
		start := chunks[i].pos
		run := [][]byte{chunks[i].data}
		size := len(chunks[i].data) + perChunkOverhead
		j := i + 1
		for j < len(chunks) && chunks[j].pos == chunks[j-1].pos+1 &&
			size+len(chunks[j].data)+perChunkOverhead <= budget {
			run = append(run, chunks[j].data)
			size += len(chunks[j].data) + perChunkOverhead
			j++
		}
		cdata := wire.ChunkData{Seq: cmd.bseqs[sh.ID], Start: uint32(start), Chunks: run}
		if err := bc.Write(wire.TypeChunkData, cdata.Marshal()); err != nil {
			return ss.backendError(sh, err)
		}
		i = j
	}
	return nil
}

// beginClose validates the orderly-close preconditions and sends Close
// to every live backend session; the returned set is the shards whose
// CloseOK is still owed.
func (ss *gwSession) beginClose() (map[string]bool, error) {
	if ss.curFile != nil {
		return nil, session.Fatalf(wire.CodeProtocol, "Close with file %q still open", ss.curFile.name)
	}
	if len(ss.cmds) != 0 {
		return nil, session.Fatalf(wire.CodeProtocol, "Close with %d commands unacked", len(ss.cmds))
	}
	waiting := make(map[string]bool, len(ss.conns))
	for id, bc := range ss.conns {
		if err := bc.Write(wire.TypeClose, nil); err != nil {
			return nil, ss.backendError(ss.shardByID[id], err)
		}
		waiting[id] = true
	}
	return waiting, nil
}

// ---------------------------------------------------------------------------
// Backend frame handling.

// handleBackendNeed records one replica shard's want-list. The client's
// Need can only be answered once EVERY replica has spoken (a Need frame,
// or an Ack standing in for "need nothing" on replay), because the
// client's list is the union of what the replicas still lack after the
// peer plane was consulted.
func (ss *gwSession) handleBackendNeed(shardID string, need wire.Need, c *session.Conn) error {
	clientSeq, ok := ss.rev[shardID][need.Seq]
	if !ok {
		return nil // stale frame for a retired mapping; ignore
	}
	cmd, ok := ss.cmds[clientSeq]
	if !ok || cmd.kind != wire.TypeOffer {
		return nil
	}
	off := cmd.offer
	pos := make(map[uint32]int, len(need.Indices))
	for p, idx := range need.Indices {
		if int(idx) >= len(off.entries) {
			return session.Fatalf(wire.CodeProtocol, "shard %s needs index %d beyond offer of %d", shardID, idx, len(off.entries))
		}
		pos[idx] = p
	}
	off.needs[shardID] = need.Indices
	off.pos[shardID] = pos
	off.answered[shardID] = true
	return ss.maybeAnswerNeed(cmd, c)
}

// maybeAnswerNeed runs once all replicas have answered: the chunk-routing
// moment. The union of the replicas' want-lists is split by each chunk's
// ring owner; owners outside the replica set are consulted over the peer
// plane, and what they supply is injected into every replica that needs
// it. Only the remainder — chunks the cluster has truly never seen, or
// whose owner is itself a lacking replica — goes back to the client.
func (ss *gwSession) maybeAnswerNeed(cmd *gwCmd, c *session.Conn) error {
	off := cmd.offer
	if off.needSent {
		return nil
	}
	for _, sh := range cmd.shards {
		if !off.answered[sh.ID] {
			return nil
		}
	}
	union := make(map[uint32]bool)
	for _, sh := range cmd.shards {
		for _, idx := range off.needs[sh.ID] {
			union[idx] = true
		}
	}
	lacking := func(idx uint32) []Shard {
		var out []Shard
		for _, sh := range cmd.shards {
			if _, needed := off.pos[sh.ID][idx]; needed {
				out = append(out, sh)
			}
		}
		return out
	}

	full, _ := ss.gw.rings()
	replica := make(map[string]bool, len(cmd.shards))
	for _, sh := range cmd.shards {
		replica[sh.ID] = true
	}
	byOwner := make(map[string][]uint32)
	off.clientNeed = off.clientNeed[:0]
	for idx := range union {
		owner := full.Owner(off.entries[idx].Hash)
		if replica[owner.ID] {
			// The owner is inside the replica set; whether it lacks the
			// bytes itself or merely never cached them, its peer cache is
			// not a better source than the client.
			off.clientNeed = append(off.clientNeed, idx)
			continue
		}
		byOwner[owner.ID] = append(byOwner[owner.ID], idx)
	}
	fetched := make(map[string][]placedChunk, len(cmd.shards))
	nFetched := 0
	for ownerID, idxs := range byOwner {
		entries := make([]wire.OfferEntry, len(idxs))
		for i, idx := range idxs {
			entries[i] = off.entries[idx]
		}
		got := ss.gw.peers.fetch(ss.shardForID(ownerID, full), entries)
		for i, idx := range idxs {
			data, ok := got[i]
			if !ok {
				off.clientNeed = append(off.clientNeed, idx)
				continue
			}
			nFetched++
			for _, sh := range lacking(idx) {
				fetched[sh.ID] = append(fetched[sh.ID], placedChunk{pos: off.pos[sh.ID][idx], data: data})
			}
		}
	}
	// The client walks its need list in order and ChunkData positions
	// index into it; keep it ascending like a shard's own need list.
	sort.Slice(off.clientNeed, func(a, b int) bool { return off.clientNeed[a] < off.clientNeed[b] })
	ss.gw.cChunksPeer.Add(int64(nFetched))

	for _, sh := range cmd.shards {
		if err := ss.injectChunks(cmd, sh, fetched[sh.ID]); err != nil {
			return err
		}
	}
	off.needSent = true
	return c.Write(wire.TypeNeed, wire.Need{Seq: cmd.seq, Indices: off.clientNeed}.Marshal())
}

// handleBackendAck marks a command applied on one replica shard; once
// EVERY replica has acked it, the contiguous prefix of fully-acked
// commands is released to the client, preserving the client's in-order
// ack contract across shards. Quota is charged exactly once per released
// FileEnd — logical bytes, independent of how many replicas hold the
// copies, and a replayed ack can never reach this point twice because
// release deletes the command.
func (ss *gwSession) handleBackendAck(shardID string, ack wire.Ack, c *session.Conn) error {
	clientSeq, ok := ss.rev[shardID][ack.Seq]
	if !ok {
		return nil // ack for a retired mapping (idempotent replay tail)
	}
	cmd, ok := ss.cmds[clientSeq]
	if !ok {
		delete(ss.rev[shardID], ack.Seq)
		return nil
	}
	if cmd.kind == wire.TypeOffer && !cmd.offer.needSent && !cmd.offer.answered[shardID] {
		// Replayed offer this shard had already applied: it acks without a
		// Need, which stands in for "need nothing" in the union. Once the
		// last replica has spoken the client gets its (possibly empty)
		// need list — its replay still blocks on one.
		cmd.offer.answered[shardID] = true
		if err := ss.maybeAnswerNeed(cmd, c); err != nil {
			return err
		}
	}
	cmd.ackedBy[shardID] = true
	for {
		next, ok := ss.cmds[ss.lastAcked+1]
		if !ok || !next.fullyAcked() {
			return nil
		}
		if next.kind == wire.TypeFileEnd {
			ss.gw.cFiles.Add(1)
			ss.gw.tenants.Charge(ss.tenant, int64(next.totalBytes))
			if c := ss.gw.routedBytes[next.primary().ID]; c != nil {
				c.Add(int64(next.totalBytes))
			}
		}
		delete(ss.cmds, next.seq)
		for _, sh := range next.shards {
			delete(ss.rev[sh.ID], next.bseqs[sh.ID])
		}
		ss.lastAcked = next.seq
		if err := c.Write(wire.TypeAck, wire.Ack{Seq: next.seq}.Marshal()); err != nil {
			return err
		}
	}
}
