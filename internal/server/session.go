package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"mhdedup/internal/core"
	"mhdedup/internal/events"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/session"
	"mhdedup/internal/wire"
)

// ingestSession is the server half of one client backup session: a
// core.Session on the shared engine, the ordered-application state (seq
// numbers, pending command window) and the open-file feed.
//
// Ownership: exactly one connection handler owns a session while it is
// attached in the endpoint's session.Table (see that type for the rule),
// which is what makes handler access to the fields below safe without
// per-field locking.
type ingestSession struct {
	token  uint64
	tenant string // namespace prefix for every file this session ingests
	srv    *Server
	eng    *core.Session
	ctx    context.Context
	abort  context.CancelFunc

	// Owned by the attached handler.
	lastApplied uint64
	pending     map[uint64]*pendingCmd

	// file is the in-flight reassembly. The attached handler owns the
	// feed, but Server.Close tears sessions down from another goroutine
	// while a handler can be mid-apply (a shard hard-killed under load),
	// so the POINTER is guarded: both sides take a reference or swap it
	// out under fileMu and never dereference ss.file directly.
	fileMu sync.Mutex
	file   *feed
}

// currentFile returns the open file (nil when none) under the lock.
func (ss *ingestSession) currentFile() *feed {
	ss.fileMu.Lock()
	defer ss.fileMu.Unlock()
	return ss.file
}

// takeFile detaches and returns the open file, exactly once: the caller
// that gets a non-nil result owns its teardown or completion.
func (ss *ingestSession) takeFile() *feed {
	ss.fileMu.Lock()
	defer ss.fileMu.Unlock()
	f := ss.file
	ss.file = nil
	return f
}

// pendingCmd is one client command received but not yet applied. Commands
// apply strictly in seq order; an Offer additionally waits until every
// needed chunk arrived.
type pendingCmd struct {
	seq  uint64
	kind uint8

	begin wire.FileBegin
	end   wire.FileEnd

	offer   wire.Offer
	need    []uint32           // offer indices whose bytes the client must send
	run     []core.HashedChunk // per offer index: the offered digest over pinned cache bytes or received bytes
	missing int                // needed chunks not yet received
}

// shedf is an overload refusal: reported to the client as a retryable
// Overloaded frame, after which the session is parked resumable.
func shedf(format string, args ...any) error {
	return &session.Shed{Msg: wire.ErrorMsg{Code: wire.CodeOverloaded, Retryable: true,
		Msg: fmt.Sprintf(format, args...)}}
}

// HandleFileBegin queues (or idempotently acks) a FileBegin command. A
// file boundary is also the shed point: while the durability layer is
// behind budget, starting another file would only grow the un-fsynced
// backlog, so the session is parked with a retryable Overloaded frame
// instead (replayed commands are never shed — their work is done).
func (ss *ingestSession) HandleFileBegin(fb wire.FileBegin, c *session.Conn) error {
	if fb.Seq <= ss.lastApplied {
		return c.Write(wire.TypeAck, wire.Ack{Seq: fb.Seq}.Marshal())
	}
	if d := ss.srv.cfg.Durability; d != nil {
		if reason, over := d.Overloaded(); over {
			ss.srv.cShed.Add(1)
			ss.srv.cfg.Events.Warn("server.shed",
				events.F("at", "file_begin"), events.F("session", ss.token),
				events.F("reason", reason))
			return shedf("overloaded, retry later: %s", reason)
		}
	}
	if err := ss.admit(fb.Seq); err != nil {
		return err
	}
	ss.pending[fb.Seq] = &pendingCmd{seq: fb.Seq, kind: wire.TypeFileBegin, begin: fb}
	return ss.applyReady(c)
}

// HandleOffer computes the need-list for a batch of offered hashes,
// pinning cache hits immediately so later eviction cannot invalidate the
// answer, replies with the Need frame and queues the batch. The engine
// stores these cuts as offered, so an entry no negotiated chunker could
// have cut, empty or above its maximum, is refused before anything is
// answered (its minimum is a matter of stream order: see apply).
func (ss *ingestSession) HandleOffer(of wire.Offer, c *session.Conn) error {
	if of.Seq <= ss.lastApplied {
		// Replayed batch that was already applied before the reconnect:
		// nothing is needed, just restate the ack.
		return c.Write(wire.TypeAck, wire.Ack{Seq: of.Seq}.Marshal())
	}
	if err := ss.admit(of.Seq); err != nil {
		return err
	}
	pc := &pendingCmd{seq: of.Seq, kind: wire.TypeOffer, offer: of,
		run: make([]core.HashedChunk, len(of.Entries))}
	for i, e := range of.Entries {
		if e.Size == 0 || e.Size > ss.srv.maxChunk {
			ss.srv.cOffersRefused.Add(1)
			return session.Fatalf(wire.CodeProtocol, "offer %d index %d: a %d-byte chunk, the negotiated chunker cuts at most %d",
				of.Seq, i, e.Size, ss.srv.maxChunk)
		}
		pc.run[i].Hash = e.Hash
		if data, ok := ss.srv.cache.get(e.Hash); ok && uint32(len(data)) == e.Size {
			pc.run[i].Data = data
			continue
		}
		pc.need = append(pc.need, uint32(i))
	}
	pc.missing = len(pc.need)
	ss.pending[of.Seq] = pc
	ss.srv.cChunksOffered.Add(int64(len(of.Entries)))
	ss.srv.cChunksNeeded.Add(int64(len(pc.need)))
	ss.srv.cChunksCacheHit.Add(int64(len(of.Entries) - len(pc.need)))
	if err := c.Write(wire.TypeNeed, wire.Need{Seq: of.Seq, Indices: pc.need}.Marshal()); err != nil {
		return err
	}
	return ss.applyReady(c)
}

// HandleChunkData verifies and stores a run of needed chunk bytes.
func (ss *ingestSession) HandleChunkData(cd wire.ChunkData, c *session.Conn) error {
	if cd.Seq <= ss.lastApplied {
		return nil // late data for an already-applied batch; harmless
	}
	pc, ok := ss.pending[cd.Seq]
	if !ok || pc.kind != wire.TypeOffer {
		return session.Fatalf(wire.CodeProtocol, "chunk data for unknown offer seq %d", cd.Seq)
	}
	for j, chunk := range cd.Chunks {
		pos := int(cd.Start) + j
		if pos < 0 || pos >= len(pc.need) {
			return session.Fatalf(wire.CodeProtocol, "chunk data index %d outside need list (len %d)", pos, len(pc.need))
		}
		idx := pc.need[pos]
		entry := pc.offer.Entries[idx]
		if pc.run[idx].Data != nil {
			return session.Fatalf(wire.CodeProtocol, "duplicate chunk data for offer %d index %d", cd.Seq, idx)
		}
		if uint32(len(chunk)) != entry.Size {
			return session.Fatalf(wire.CodeIntegrity, "offer %d index %d: got %d bytes, offered %d", cd.Seq, idx, len(chunk), entry.Size)
		}
		if hashutil.SumBytes(chunk) != entry.Hash {
			return session.Fatalf(wire.CodeIntegrity, "offer %d index %d: chunk bytes do not hash to the offered address", cd.Seq, idx)
		}
		pc.run[idx].Data = chunk
		pc.missing--
		ss.srv.cache.put(entry.Hash, chunk)
		ss.srv.cChunksReceived.Add(1)
		ss.srv.cChunkBytesIn.Add(int64(len(chunk)))
	}
	return ss.applyReady(c)
}

// HandleFileEnd queues a FileEnd command.
func (ss *ingestSession) HandleFileEnd(fe wire.FileEnd, c *session.Conn) error {
	if fe.Seq <= ss.lastApplied {
		return c.Write(wire.TypeAck, wire.Ack{Seq: fe.Seq}.Marshal())
	}
	if err := ss.admit(fe.Seq); err != nil {
		return err
	}
	ss.pending[fe.Seq] = &pendingCmd{seq: fe.Seq, kind: wire.TypeFileEnd, end: fe}
	return ss.applyReady(c)
}

// admit enforces the per-session in-flight window and seq sanity — the
// server's backpressure contract: at most Window unapplied commands.
func (ss *ingestSession) admit(seq uint64) error {
	if _, dup := ss.pending[seq]; dup {
		return session.Fatalf(wire.CodeProtocol, "duplicate command seq %d", seq)
	}
	if len(ss.pending) >= ss.srv.cfg.Window {
		return session.Fatalf(wire.CodeProtocol, "in-flight window exceeded (%d commands unapplied, window %d)",
			len(ss.pending), ss.srv.cfg.Window)
	}
	if seq > ss.lastApplied+uint64(ss.srv.cfg.Window) {
		return session.Fatalf(wire.CodeProtocol, "command seq %d too far ahead of applied %d (window %d)",
			seq, ss.lastApplied, ss.srv.cfg.Window)
	}
	return nil
}

// applyReady applies queued commands in seq order for as long as the next
// one is complete, acking each. This is where the ordered stream the
// engine requires is re-established from the windowed, pipelined wire
// conversation.
func (ss *ingestSession) applyReady(c *session.Conn) error {
	for {
		pc, ok := ss.pending[ss.lastApplied+1]
		if !ok {
			return nil
		}
		if pc.kind == wire.TypeOffer && pc.missing > 0 {
			return nil
		}
		// Time the apply: this is where the handler queues an Offer's run
		// for the engine, and where a slow engine (a full queue, a FileEnd
		// waiting for the drain and commit) shows up as an applyReady stall.
		start := time.Now()
		err := ss.apply(pc)
		d := ss.srv.hApply.ObserveSince(start)
		ss.srv.cfg.Events.SlowOp("apply", d,
			events.F("session", ss.token), events.F("seq", pc.seq),
			events.F("frame", wire.TypeName(pc.kind)))
		if err != nil {
			return err
		}
		delete(ss.pending, pc.seq)
		ss.lastApplied = pc.seq
		if err := c.Write(wire.TypeAck, wire.Ack{Seq: pc.seq}.Marshal()); err != nil {
			return err
		}
	}
}

// apply executes one complete command against the engine feed.
func (ss *ingestSession) apply(pc *pendingCmd) error {
	switch pc.kind {
	case wire.TypeFileBegin:
		ss.fileMu.Lock()
		if ss.file != nil {
			open := ss.file.name
			ss.fileMu.Unlock()
			return session.Fatalf(wire.CodeProtocol, "FileBegin %q while %q is open", pc.begin.Name, open)
		}
		ss.file = beginFeed(ss.ctx, ss.eng, wire.NSJoin(ss.tenant, pc.begin.Name), ss.srv.hFeedWait)
		ss.fileMu.Unlock()
		return nil

	case wire.TypeOffer:
		f := ss.currentFile()
		if f == nil {
			return session.Fatalf(wire.CodeProtocol, "Offer %d outside a file", pc.seq)
		}
		// Only a stream's last chunk may be below the chunker's minimum.
		for i := range pc.run {
			if f.short {
				ss.srv.cOffersRefused.Add(1)
				return session.Fatalf(wire.CodeProtocol, "offer %d index %d: file %q continues after a chunk below the negotiated chunker's minimum %d",
					pc.seq, i, f.name, ss.srv.minChunk)
			}
			f.short = uint32(len(pc.run[i].Data)) < ss.srv.minChunk
		}
		// The engine's own fault, or the session torn down under the handler.
		if err := f.put(pc.run); err != nil {
			return session.Fatalf(wire.CodeInternal, "ingest of %q failed: %v", f.name, err)
		}
		return nil

	case wire.TypeFileEnd:
		f := ss.takeFile()
		if f == nil {
			return session.Fatalf(wire.CodeProtocol, "FileEnd %d outside a file", pc.seq)
		}
		if err := f.finish(pc.end.TotalBytes, pc.end.Sum); errors.Is(err, errFeedClaim) {
			return session.Fatalf(wire.CodeIntegrity, "file %q: %v", f.name, err)
		} else if err != nil {
			return session.Fatalf(wire.CodeInternal, "ingest of %q failed: %v", f.name, err)
		}
		// Durability barrier: the FileEnd ack this apply unlocks is the
		// server's promise that the file survives a crash, so it is not
		// sent until the file's log records are group-committed. N
		// sessions reaching this point concurrently share one fsync.
		if d := ss.srv.cfg.Durability; d != nil {
			start := time.Now()
			if err := d.Commit(); err != nil {
				return session.Fatalf(wire.CodeInternal, "file %q ingested but not durable: %v", f.name, err)
			}
			dur := ss.srv.hCommit.ObserveSince(start)
			ss.srv.cfg.Events.SlowOp("commit", dur,
				events.F("session", ss.token), events.F("file", f.name))
		}
		ss.srv.cFilesIngested.Add(1)
		return nil
	}
	return session.Fatalf(wire.CodeInternal, "unapplicable command kind %d", pc.kind)
}

// closeRequested finalizes the session on an orderly Close: every command
// must already be applied. A file still open is abandoned, committing
// nothing: its sender stopped mid-file (a reader that failed) and says so
// by closing instead of sending its FileEnd.
func (ss *ingestSession) closeRequested() error {
	if len(ss.pending) != 0 {
		return session.Fatalf(wire.CodeProtocol, "Close with %d commands unapplied", len(ss.pending))
	}
	ss.abortOpenFile()
	return nil
}

// abortOpenFile tears down the in-flight file feed (detach-expiry and
// fatal-error paths).
func (ss *ingestSession) abortOpenFile() {
	if f := ss.takeFile(); f != nil {
		f.cancel()
	}
}
