package client

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"mhdedup/internal/chunker"
	"mhdedup/internal/events"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/session"
	"mhdedup/internal/wire"
)

// Ingestor is a sessioned backup upload: PutFile as many files as you
// like, then Close. Not safe for concurrent use — one Ingestor is one
// ordered command stream.
type Ingestor struct {
	cfg   Config
	cn    *session.Conn
	token uint64
	win   int

	nextSeq uint64
	unacked []*command // commands sent, Ack not yet received (seq order)
	stats   Stats
	// Frame bytes of every connection this session has used; folded
	// into Stats on read.
	wireIn, wireOut atomic.Int64

	// recoverBudget bounds back-to-back reconnects with no forward
	// progress (an Ack) in between, so a persistently sick server cannot
	// spin the client forever.
	recoverBudget int

	closed bool
	broken error // permanent failure; every later call returns it
}

// command is one un-acked protocol command, retained for replay.
type command struct {
	seq     uint64
	typ     uint8
	payload []byte

	// Offer commands additionally keep the chunk bytes of the whole
	// batch: on replay the server recomputes the need-list from scratch
	// and may ask for any subset.
	chunks [][]byte

	// need is the server's answer for an Offer (indices into chunks);
	// needReady reports it arrived. Reset on replay.
	need      []uint32
	needReady bool
}

// Connect dials cfg.Addr, performs the ingest handshake and returns a
// ready Ingestor.
func Connect(cfg Config) (*Ingestor, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	ing := &Ingestor{cfg: cfg, recoverBudget: cfg.RetryAttempts}
	hello := wire.Hello{Mode: wire.ModeIngest, Options: cfg.Options,
		Tenant: cfg.Tenant, Secret: cfg.Secret}
	cn, ok, err := dialAndHello(&ing.cfg, hello, ing.meter())
	if err != nil {
		return nil, err
	}
	ing.cn = cn
	ing.token = ok.SessionToken
	ing.win = int(ok.Window)
	if ing.win <= 0 {
		ing.win = 1
	}
	ing.cfg.Events.Info("client.session_open",
		events.F("session", ing.token), events.F("window", ing.win), events.F("max_payload", cn.MaxPayload()))
	return ing, nil
}

// meter accounts a connection's frame bytes to this session.
func (c *Ingestor) meter() session.Meter { return session.Meter{In: &c.wireIn, Out: &c.wireOut} }

// Stats returns the wire accounting so far.
func (c *Ingestor) Stats() Stats {
	st := c.stats
	st.WireBytesIn, st.WireBytesOut = c.wireIn.Load(), c.wireOut.Load()
	return st
}

// PutFile chunks r locally, negotiates by hash and uploads name. It
// returns once the server has acknowledged the complete, integrity-
// checked file. A transport failure mid-file is healed transparently by
// reconnecting and replaying un-acked commands.
func (c *Ingestor) PutFile(name string, r io.Reader) error {
	if c.broken != nil {
		return c.broken
	}
	if c.closed {
		return fmt.Errorf("client: PutFile %q after Close", name)
	}
	// The engine's own constructor: these cuts are what every replica stores.
	o := c.cfg.Options
	ch, err := chunker.New(r, chunker.Params{ECS: int(o.ECS)}, o.TTTD, o.FastCDC)
	if err != nil {
		return fmt.Errorf("client: chunker for %q: %w", name, err)
	}
	if err := c.issue(wire.TypeFileBegin,
		func(seq uint64) []byte { return wire.FileBegin{Seq: seq, Name: name}.Marshal() }, nil); err != nil {
		return c.fail(err)
	}

	digests := hashutil.NewHasher() // FileEnd.Sum: over the chunk digests, in order
	var total uint64
	batch := make([]wire.OfferEntry, 0, c.cfg.BatchChunks)
	chunks := make([][]byte, 0, c.cfg.BatchChunks)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		entries := append([]wire.OfferEntry(nil), batch...)
		data := append([][]byte(nil), chunks...)
		for i := range entries {
			digests.Write(entries[i].Hash[:]) // indexed: a copy's Hash[:] would escape
		}
		err := c.issue(wire.TypeOffer,
			func(seq uint64) []byte { return wire.Offer{Seq: seq, Entries: entries}.Marshal() }, data)
		c.stats.ChunksOffered += int64(len(entries))
		batch, chunks = batch[:0], chunks[:0]
		return err
	}
	for {
		chunk, cerr := ch.Next()
		if cerr == io.EOF {
			break
		}
		if cerr != nil {
			// Local read failure: the session is still coherent, but the
			// half-sent file is not. Surface it; the caller decides.
			return c.fail(fmt.Errorf("client: reading %q: %w", name, cerr))
		}
		total += uint64(chunk.Size())
		c.stats.InputBytes += chunk.Size()
		batch = append(batch, wire.OfferEntry{Hash: hashutil.SumBytes(chunk.Data), Size: uint32(len(chunk.Data))})
		chunks = append(chunks, chunk.Data)
		if len(batch) >= c.cfg.BatchChunks {
			if err := flush(); err != nil {
				return c.fail(err)
			}
		}
	}
	if err := flush(); err != nil {
		return c.fail(err)
	}
	sum := digests.Sum()
	if err := c.issue(wire.TypeFileEnd,
		func(seq uint64) []byte { return wire.FileEnd{Seq: seq, TotalBytes: total, Sum: sum}.Marshal() }, nil); err != nil {
		return c.fail(err)
	}
	// Drain every outstanding Ack: when issue returns the FileEnd may be
	// merely sent; waiting here pins "PutFile returned nil ⇒ the server
	// applied and integrity-checked the whole file".
	if err := c.drain(); err != nil {
		return c.fail(err)
	}
	c.stats.FilesSent++
	return nil
}

// Close drains outstanding acks, performs the orderly Close/CloseOK
// exchange and releases the connection.
func (c *Ingestor) Close() error {
	if c.broken != nil {
		c.cn.Close()
		return c.broken
	}
	if c.closed {
		return nil
	}
	c.closed = true
	defer c.cn.Close()
	if err := c.drain(); err != nil {
		return c.fail(err)
	}
	if _, err := c.cn.Call(wire.TypeClose, nil, wire.TypeCloseOK); err != nil {
		return c.fail(fmt.Errorf("client: close: %w", err))
	}
	return nil
}

// fail latches a permanent error (transport errors are healed inside
// issue/drain; whatever reaches here is final).
func (c *Ingestor) fail(err error) error {
	if err != nil && c.broken == nil {
		c.broken = err
	}
	return err
}

// issue assigns the next sequence number, enqueues and transmits one
// command, healing transport failures by reconnect-and-replay.
func (c *Ingestor) issue(typ uint8, marshal func(seq uint64) []byte, chunks [][]byte) error {
	// Window backpressure: never exceed the server's un-applied budget.
	for len(c.unacked) >= c.win {
		if err := c.pump(); err != nil {
			if !session.IsTransport(err) {
				return err
			}
			if err := c.recover(); err != nil {
				return err
			}
		}
	}
	c.nextSeq++
	cmd := &command{seq: c.nextSeq, typ: typ, payload: marshal(c.nextSeq), chunks: chunks}
	c.unacked = append(c.unacked, cmd)
	if err := c.transmit(cmd); err != nil {
		if !session.IsTransport(err) {
			return err
		}
		return c.recover() // replays cmd along with everything else un-acked
	}
	return nil
}

// transmit writes one command frame; for an Offer it then waits for the
// server's Need answer and ships the requested chunk bytes. The
// offer→need round-trip — the negotiation latency the hash protocol
// pays per batch — is recorded in the client.offer_rtt_ns histogram.
func (c *Ingestor) transmit(cmd *command) error {
	start := time.Now()
	if err := c.cn.Write(cmd.typ, cmd.payload); err != nil {
		return err
	}
	if cmd.typ != wire.TypeOffer {
		return nil
	}
	for !cmd.needReady {
		if err := c.pump(); err != nil {
			return err
		}
	}
	d := hOfferRTT.ObserveSince(start)
	c.cfg.Events.SlowOp("offer_rtt", d,
		events.F("session", c.token), events.F("seq", cmd.seq),
		events.F("need", len(cmd.need)))
	return c.sendNeeded(cmd)
}

// sendNeeded streams the chunks the server asked for as ChunkData runs
// bounded by the frame payload cap.
func (c *Ingestor) sendNeeded(cmd *command) error {
	const perChunkOverhead = 4            // length prefix per chunk in ChunkData
	budget := int(c.cn.MaxPayload()) - 64 // header fields + margin
	start := 0
	for start < len(cmd.need) {
		run := make([][]byte, 0, len(cmd.need)-start)
		bytes := 0
		for _, idx := range cmd.need[start:] {
			data := cmd.chunks[idx]
			if len(run) > 0 && bytes+len(data)+perChunkOverhead > budget {
				break
			}
			run = append(run, data)
			bytes += len(data) + perChunkOverhead
		}
		cd := wire.ChunkData{Seq: cmd.seq, Start: uint32(start), Chunks: run}
		if err := c.cn.Write(wire.TypeChunkData, cd.Marshal()); err != nil {
			return err
		}
		c.stats.ChunksSent += int64(len(run))
		for _, data := range run {
			c.stats.ChunkBytesSent += int64(len(data))
		}
		start += len(run)
	}
	return nil
}

// drain pumps until every command is acked, healing transport failures.
func (c *Ingestor) drain() error {
	for len(c.unacked) > 0 {
		if err := c.pump(); err != nil {
			if !session.IsTransport(err) {
				return err
			}
			if err := c.recover(); err != nil {
				return err
			}
		}
	}
	return nil
}

// pump reads and dispatches exactly one server frame: Acks retire
// commands (in order), Needs complete pending Offers, Error frames map
// to transport (retryable) or permanent errors.
func (c *Ingestor) pump() error {
	f, err := c.cn.Read()
	if err != nil {
		return err
	}
	switch f.Type {
	case wire.TypeAck:
		ack, err := wire.UnmarshalAck(f.Payload)
		if err != nil {
			return fmt.Errorf("client: bad Ack: %w", err)
		}
		if len(c.unacked) == 0 || c.unacked[0].seq != ack.Seq {
			return fmt.Errorf("client: unexpected Ack seq %d", ack.Seq)
		}
		c.unacked = c.unacked[1:]
		c.recoverBudget = c.cfg.RetryAttempts // forward progress resets the budget
		return nil
	case wire.TypeNeed:
		need, err := wire.UnmarshalNeed(f.Payload)
		if err != nil {
			return fmt.Errorf("client: bad Need: %w", err)
		}
		for _, cmd := range c.unacked {
			if cmd.seq == need.Seq && cmd.typ == wire.TypeOffer {
				cmd.need, cmd.needReady = need.Indices, true
				return nil
			}
		}
		return fmt.Errorf("client: Need for unknown offer seq %d", need.Seq)
	case wire.TypeError:
		em, uerr := wire.UnmarshalError(f.Payload)
		if uerr != nil {
			return fmt.Errorf("client: bad Error frame: %w", uerr)
		}
		if em.Retryable {
			if sh := shedError(&c.cfg, em); sh != nil {
				// Deliberate shed: surface it typed and permanent for this
				// session instead of replaying the refused command into the
				// same refusal. Nothing acked is at risk, and the shed file
				// was never partially applied (the server refuses at the
				// file boundary, before any of its commands apply).
				return sh
			}
			return &session.TransportError{Err: em}
		}
		return fmt.Errorf("client: server error: %w", em)
	default:
		return fmt.Errorf("client: unexpected %s frame mid-session", wire.TypeName(f.Type))
	}
}

// recover reconnects with the resume token and replays every command the
// server has not applied, in order. Offers replay fully: the server
// recomputes the need-list (the wire cache may have changed) and the
// client answers it from the retained batch bytes.
func (c *Ingestor) recover() error {
	if c.recoverBudget <= 0 {
		return fmt.Errorf("client: giving up after %d reconnects without progress", c.cfg.RetryAttempts)
	}
	// Back off before re-dialing, growing with each fruitless attempt: an
	// overloaded server sheds with retryable frames precisely so clients
	// get out of its way — reconnecting immediately would replay the shed
	// command into the same refusal and burn the whole budget in
	// milliseconds. The first recovery is immediate (plain connection
	// blips should heal fast); only repeats without an Ack in between
	// pay the wait.
	if attempt := c.cfg.RetryAttempts - c.recoverBudget; attempt > 0 {
		delay := c.cfg.RetryDelay << uint(attempt-1)
		if max := 2 * time.Second; delay > max {
			delay = max
		}
		time.Sleep(delay)
	}
	c.recoverBudget--
	c.cn.Close()
	hello := wire.Hello{Mode: wire.ModeIngest, ResumeToken: c.token,
		Tenant: c.cfg.Tenant, Secret: c.cfg.Secret}
	cn, ok, err := dialAndHello(&c.cfg, hello, c.meter())
	if err != nil {
		return err
	}
	c.cn = cn
	c.win = int(ok.Window)
	if c.win <= 0 {
		c.win = 1
	}
	c.stats.Reconnects++
	cReconnects.Add(1)
	// Retire everything the server applied before we lost the link.
	for len(c.unacked) > 0 && c.unacked[0].seq <= ok.LastApplied {
		c.unacked = c.unacked[1:]
	}
	c.cfg.Events.Info("client.resume",
		events.F("session", c.token), events.F("applied", ok.LastApplied),
		events.F("replay", len(c.unacked)))
	for _, cmd := range c.unacked {
		cmd.need, cmd.needReady = nil, false
		if err := c.transmit(cmd); err != nil {
			if !session.IsTransport(err) {
				return err
			}
			return c.recover() // budget-bounded
		}
	}
	return nil
}
