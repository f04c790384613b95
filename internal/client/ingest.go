package client

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"mhdedup/internal/chunker"
	"mhdedup/internal/events"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/rabin"
	"mhdedup/internal/session"
	"mhdedup/internal/wire"
)

// maxWindow caps the window a HelloOK may advertise: the client keeps that
// many commands, batch bytes and all, and sizes its frame queue by it.
const maxWindow = 1024

// Ingestor is a sessioned backup upload: PutFile as many files as you
// like, then Close. Not safe for concurrent use — one Ingestor is one
// ordered command stream. It handles what its connection's reader queued
// after every chunk it cuts and whenever it must wait: Offers stay in flight
// while the next batch is cut, each Need answered as soon as it is handled.
type Ingestor struct {
	cfg   Config
	cn    *session.Conn
	in    <-chan inbound // cn's frames in order, then the error that ended its reader
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
	// abandoned: broken by a local read failure mid-file, so Close still
	// closes in order and the server abandons the file instead of parking.
	abandoned bool
}

// inbound is one frame the reader read, or the error that ended it.
type inbound struct {
	f   wire.Frame
	err error
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

	// An Offer's last transmission (its offer→need round trip starts
	// there) and whether its Need has been answered since.
	sent     time.Time
	answered bool
}

// Connect dials cfg.Addr, performs the ingest handshake and returns a
// ready Ingestor.
func Connect(cfg Config) (*Ingestor, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	ing := &Ingestor{cfg: cfg, recoverBudget: cfg.RetryAttempts}
	hello := wire.Hello{Mode: wire.ModeIngest, Tenant: cfg.Tenant, Secret: cfg.Secret}
	cn, ok, err := dialAndHello(&ing.cfg, hello, ing.meter())
	if err != nil {
		return nil, err
	}
	// The session cuts by the contract the server announced, holding chunks
	// of up to 4·ECS in RAM, so a pin that differs or an absurd ECS is refused.
	if pin := cfg.Options; pin != (wire.EngineOptions{}) && pin != ok.Options || ok.Options.ECS > 1<<20 {
		cn.Close()
		return nil, fmt.Errorf("client: server cuts by %+v; Config.Options pins %+v, ECS at most %d", ok.Options, pin, 1<<20)
	}
	ing.cfg.Options = ok.Options
	ing.token = ok.SessionToken
	ing.attach(cn, ok)
	ing.cfg.Events.Info("client.session_open",
		events.F("session", ing.token), events.F("window", ing.win), events.F("max_payload", cn.MaxPayload()))
	return ing, nil
}

// attach makes cn the session's connection and starts its reader. An honest
// server has a Need and an Ack per command in the window outstanding at
// most, plus an Error or CloseOK: the queue holds 2·win+1 frames and the
// error that ends the reader, which cuts off a server that sends more.
func (c *Ingestor) attach(cn *session.Conn, ok wire.HelloOK) {
	c.cn, c.win = cn, int(min(max(ok.Window, 1), maxWindow))
	in := make(chan inbound, 2*c.win+2)
	c.in = in
	go func() {
		defer close(in)
		for {
			f, err := cn.Read()
			if err == nil && len(in) == cap(in)-1 {
				err = fmt.Errorf("client: server sent more than %d frames ahead of the client", cap(in)-1)
				cn.Close()
			}
			in <- inbound{f, err}
			if err != nil {
				return
			}
		}
	}()
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
	if len(name) > wire.MaxNameLen {
		// Refused before a FileBegin the server could only reject; nothing
		// was sent, so the session goes on.
		return fmt.Errorf("client: file name of %d bytes, the wire carries at most %d", len(name), wire.MaxNameLen)
	}
	// The engine's own constructor: these cuts are what every replica stores.
	o := c.cfg.Options
	ch, err := chunker.New(r, chunker.Params{ECS: int(o.ECS), Poly: rabin.Poly(o.Poly)}, o.TTTD, o.FastCDC)
	if err != nil {
		return fmt.Errorf("client: chunker for %q: %w", name, err)
	}
	if err := c.issue(wire.TypeFileBegin,
		func(seq uint64) []byte { return wire.FileBegin{Seq: seq, Name: name}.Marshal() }, nil); err != nil {
		return c.fail(err)
	}

	digests := hashutil.NewHasher() // FileEnd.Sum: over the chunk digests, in order
	var total uint64
	chunks := make([][]byte, 0, c.cfg.BatchChunks)
	sums := make([]hashutil.Sum, c.cfg.BatchChunks)
	flush := func() error {
		if len(chunks) == 0 {
			return nil
		}
		// The Offer's digests in one call: 16 chunks at a time on the lanes.
		hashutil.SumChunks(chunks, sums[:len(chunks)])
		entries := make([]wire.OfferEntry, len(chunks))
		for i := range entries {
			entries[i] = wire.OfferEntry{Hash: sums[i], Size: uint32(len(chunks[i]))}
			digests.Write(sums[i][:])
		}
		data := append([][]byte(nil), chunks...)
		err := c.issue(wire.TypeOffer,
			func(seq uint64) []byte { return wire.Offer{Seq: seq, Entries: entries}.Marshal() }, data)
		c.stats.ChunksOffered += int64(len(entries))
		chunks = chunks[:0]
		return err
	}
	for {
		chunk, cerr := ch.Next()
		if cerr == io.EOF {
			break
		}
		if cerr != nil {
			// Local read failure: the session is still coherent, but the
			// half-sent file is not. Surface it; Close abandons the file.
			c.abandoned = true
			return c.fail(fmt.Errorf("client: reading %q: %w", name, cerr))
		}
		total += uint64(chunk.Size())
		c.stats.InputBytes += chunk.Size()
		chunks = append(chunks, chunk.Data)
		if len(chunks) >= c.cfg.BatchChunks {
			if err := flush(); err != nil {
				return c.fail(err)
			}
		}
		// Answer whatever has arrived — a Need above all — without waiting.
		if err := c.heal(c.poll()); err != nil {
			return c.fail(err)
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
	if err := c.settle(0); err != nil {
		return c.fail(err)
	}
	c.stats.FilesSent++
	return nil
}

// Close drains outstanding acks, performs the orderly Close/CloseOK
// exchange and releases the connection, returning once its reader is done.
// After a failed read it still closes in order, so the server abandons the
// half-sent file and frees the session; it then returns the read error.
func (c *Ingestor) Close() error {
	if (c.broken == nil || c.abandoned) && !c.closed {
		c.closed = true
		if err := c.settle(0); err != nil {
			c.fail(err)
		} else if err := c.cn.Write(wire.TypeClose, nil); err != nil {
			c.fail(fmt.Errorf("client: close: %w", err))
		} else if r := <-c.in; r.err != nil || r.f.Type != wire.TypeCloseOK {
			// With nothing un-acked, handle refuses every frame but CloseOK.
			c.fail(fmt.Errorf("client: close: %w", c.handle(r)))
		}
	}
	c.cn.Close()
	for range c.in { // the reader closes its queue as it exits
	}
	return c.broken
}

// fail latches a permanent error (transport errors are healed inside
// issue/settle; whatever reaches here is final).
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
	if err := c.settle(c.win - 1); err != nil {
		return err
	}
	c.nextSeq++
	cmd := &command{seq: c.nextSeq, typ: typ, payload: marshal(c.nextSeq), chunks: chunks}
	c.unacked = append(c.unacked, cmd)
	return c.heal(c.transmit(cmd)) // a reconnect replays cmd with everything else un-acked
}

// transmit writes one command frame and returns. An Offer's round trip —
// the negotiation latency the hash protocol pays per batch — runs from here
// until its Need is handled (client.offer_rtt_ns).
func (c *Ingestor) transmit(cmd *command) error {
	cmd.sent, cmd.answered = time.Now(), false
	return c.cn.Write(cmd.typ, cmd.payload)
}

// sendNeeded streams the chunks the server asked for as ChunkData runs
// bounded by the frame payload cap.
func (c *Ingestor) sendNeeded(cmd *command, need []uint32) error {
	const perChunkOverhead = 4            // length prefix per chunk in ChunkData
	budget := int(c.cn.MaxPayload()) - 64 // header fields + margin
	start := 0
	for start < len(need) {
		run := make([][]byte, 0, len(need)-start)
		bytes := 0
		for _, idx := range need[start:] {
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

// settle handles frames, waiting for each, until at most max commands are
// un-acked, healing transport failures.
func (c *Ingestor) settle(max int) error {
	for len(c.unacked) > max {
		if err := c.heal(c.handle(<-c.in)); err != nil {
			return err
		}
	}
	return nil
}

// heal answers a transport failure by reconnecting and replaying; any
// other error is final and passes through. Frames that arrived before the
// break are handled first: the server may have said why it hung up.
func (c *Ingestor) heal(err error) error {
	if !session.IsTransport(err) {
		return err
	}
	if perr := c.poll(); perr != nil && !session.IsTransport(perr) {
		return perr
	}
	return c.recover(err)
}

// poll handles every frame that has already arrived, without waiting.
func (c *Ingestor) poll() error {
	for len(c.in) > 0 {
		if err := c.handle(<-c.in); err != nil {
			return err
		}
	}
	return nil
}

// handle dispatches one server frame: Acks retire commands (in order),
// Needs are answered with the chunks they ask for, Error frames map to
// transport (retryable) or permanent errors; anything else, a Need or Ack
// the session cannot have asked for included, is a protocol violation.
func (c *Ingestor) handle(r inbound) error {
	if r.err != nil {
		return r.err
	}
	f := r.f
	switch f.Type {
	case wire.TypeAck:
		ack, err := wire.UnmarshalAck(f.Payload)
		if err != nil {
			return fmt.Errorf("client: bad Ack: %w", err)
		}
		if len(c.unacked) == 0 || c.unacked[0].seq != ack.Seq {
			return fmt.Errorf("client: unexpected Ack seq %d", ack.Seq)
		}
		if cmd := c.unacked[0]; cmd.typ == wire.TypeOffer && !cmd.answered {
			return fmt.Errorf("client: Ack for offer seq %d before its Need", ack.Seq)
		}
		c.unacked = c.unacked[1:]
		c.recoverBudget = c.cfg.RetryAttempts // forward progress resets the budget
		return nil
	case wire.TypeNeed:
		need, err := wire.UnmarshalNeed(f.Payload)
		if err != nil {
			return fmt.Errorf("client: bad Need: %w", err)
		}
		var cmd *command
		for _, u := range c.unacked {
			if u.seq == need.Seq && u.typ == wire.TypeOffer {
				cmd = u
			}
		}
		if cmd == nil || cmd.answered {
			return fmt.Errorf("client: Need for offer seq %d, which is unknown or already answered", need.Seq)
		}
		// Indices from the wire: strictly ascending, each naming one of the
		// offer's chunks, or a chunk would go twice or not exist.
		for i, idx := range need.Indices {
			if int(idx) >= len(cmd.chunks) || i > 0 && idx <= need.Indices[i-1] {
				return fmt.Errorf("client: Need for offer seq %d: index %d at %d is not ascending below %d",
					need.Seq, idx, i, len(cmd.chunks))
			}
		}
		cmd.answered = true
		d := hOfferRTT.ObserveSince(cmd.sent)
		c.cfg.Events.SlowOp("offer_rtt", d,
			events.F("session", c.token), events.F("seq", cmd.seq),
			events.F("need", len(need.Indices)))
		return c.sendNeeded(cmd, need.Indices)
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
// client answers it from the retained batch bytes. cause is the transport
// failure that broke the link; once the budget is spent it is what the
// give-up error wraps.
func (c *Ingestor) recover(cause error) error {
	if c.recoverBudget <= 0 {
		return fmt.Errorf("client: giving up after %d reconnects without progress: %w", c.cfg.RetryAttempts, cause)
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
	c.cn.Close() // and with it the old reader
	hello := wire.Hello{Mode: wire.ModeIngest, ResumeToken: c.token,
		Tenant: c.cfg.Tenant, Secret: c.cfg.Secret}
	cn, ok, err := dialAndHello(&c.cfg, hello, c.meter())
	if err != nil {
		return err
	}
	c.attach(cn, ok)
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
		if err := c.transmit(cmd); err != nil {
			return c.heal(err) // budget-bounded
		}
	}
	return nil
}
