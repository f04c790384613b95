package server

import (
	"context"
	"errors"
	"fmt"
	"io"

	"mhdedup/internal/events"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/session"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/wire"
)

// peerMigration is one in-flight migrated-file ingest on a ModePeer
// connection: a gateway (rebalancing a drained shard or repairing an
// under-replicated file) streams the file's raw bytes and this shard's
// engine re-chunks and dedups them like any local PutFile. The stream is
// the trusted-interior twin of the client ingest path — same pipe-into-
// PutFileContext feed, same size+sum check before the acknowledgement,
// same durability barrier — minus the offer→need negotiation, which the
// engine's own dedup makes redundant here (known chunks cost an index
// lookup, not new storage).
type peerMigration struct {
	name  string
	pw    *io.PipeWriter
	done  chan error
	hash  *hashutil.Hasher
	fed   uint64
	abort context.CancelFunc
}

// beginMigration starts the engine feed for one migrated file.
func (s *Server) beginMigration(name string) *peerMigration {
	ctx, cancel := context.WithCancel(context.Background())
	pr, pw := io.Pipe()
	m := &peerMigration{name: name, pw: pw, done: make(chan error, 1),
		hash: hashutil.NewHasher(), abort: cancel}
	sess := s.cfg.Engine.NewSession()
	go func() {
		err := sess.PutFileContext(ctx, name, pr)
		pr.CloseWithError(errIngestDone{err})
		m.done <- err
	}()
	return m
}

// feed pushes one run of bytes into the engine.
func (m *peerMigration) feed(data []byte) error {
	if _, err := m.pw.Write(data); err != nil {
		var done errIngestDone
		if errors.As(err, &done) && done.err != nil {
			return done.err
		}
		return err
	}
	m.hash.Write(data)
	m.fed += uint64(len(data))
	return nil
}

// finish verifies the sender's declared size and sum against what
// actually arrived, and only then lets the engine see EOF — a mismatched
// stream is aborted before the engine can commit a manifest under the
// name. Only a clean finish may be answered with MigrateOK.
func (m *peerMigration) finish(end wire.MigrateEnd) error {
	if m.fed != end.TotalBytes {
		m.cancel()
		return fmt.Errorf("migrated %q: received %d bytes, sender declared %d", m.name, m.fed, end.TotalBytes)
	}
	if m.hash.Sum() != end.Sum {
		m.cancel()
		return fmt.Errorf("migrated %q: received stream does not hash to the declared sum", m.name)
	}
	m.pw.Close()
	if err := <-m.done; err != nil {
		return fmt.Errorf("ingest of %q failed: %w", m.name, err)
	}
	return nil
}

// cancel tears down a half-fed migration (connection loss, protocol
// error): the engine side is cancelled, the pipe broken, the result
// drained so the engine goroutine never blocks.
func (m *peerMigration) cancel() {
	m.abort()
	m.pw.CloseWithError(errors.New("server: migration aborted"))
	go func() { <-m.done }()
}

// handleMigrateFrames serves one replica/migrate-plane frame inside the
// peer-connection loop. It returns (handled, fatal): fatal means the
// connection must be dropped (an Error frame was already sent where the
// protocol allows one).
func (s *Server) handleMigrateFrames(f wire.Frame, mig **peerMigration, c *session.Conn) (bool, bool) {
	switch f.Type {
	case wire.TypeMigrateBegin:
		mb, err := wire.UnmarshalMigrateBegin(f.Payload)
		if err != nil {
			c.Errorf(wire.CodeProtocol, false, "bad MigrateBegin: %v", err)
			return true, true
		}
		if *mig != nil {
			c.Errorf(wire.CodeProtocol, false, "MigrateBegin %q while %q is still streaming", mb.Name, (*mig).name)
			return true, true
		}
		// MigrateBegin means "this shard must end up with THIS copy": an
		// existing manifest under the name is replaced, never an error —
		// the replace path is how a corrupt replica gets repaired. Callers
		// that only want skip-if-present probe with FileStat first. The
		// chunk data behind the old manifest stays deduped in the store,
		// so re-ingest costs index lookups, not storage.
		if disk := s.cfg.Engine.Disk(); disk.Exists(simdisk.FileManifest, mb.Name) {
			if err := disk.Delete(simdisk.FileManifest, mb.Name); err != nil {
				c.Errorf(wire.CodeInternal, true, "replace %q: %v", mb.Name, err)
				return true, true
			}
		}
		*mig = s.beginMigration(mb.Name)
		s.cfg.Events.Info("server.migrate_begin", events.F("name", mb.Name))
		return true, false

	case wire.TypeMigrateData:
		md, err := wire.UnmarshalMigrateData(f.Payload)
		if err != nil {
			c.Errorf(wire.CodeProtocol, false, "bad MigrateData: %v", err)
			return true, true
		}
		if *mig == nil {
			c.Errorf(wire.CodeProtocol, false, "MigrateData outside a migration")
			return true, true
		}
		if err := (*mig).feed(md.Data); err != nil {
			c.Errorf(wire.CodeInternal, false, "migrate feed: %v", err)
			(*mig).cancel()
			*mig = nil
			return true, true
		}
		return true, false

	case wire.TypeMigrateEnd:
		me, err := wire.UnmarshalMigrateEnd(f.Payload)
		if err != nil {
			c.Errorf(wire.CodeProtocol, false, "bad MigrateEnd: %v", err)
			return true, true
		}
		if *mig == nil {
			c.Errorf(wire.CodeProtocol, false, "MigrateEnd outside a migration")
			return true, true
		}
		m := *mig
		*mig = nil
		if err := m.finish(me); err != nil {
			m.abort()
			c.Errorf(wire.CodeIntegrity, false, "%v", err)
			return true, true
		}
		// Same durability barrier as a client FileEnd ack: MigrateOK is
		// the shard's promise that the replica survives a crash.
		if d := s.cfg.Durability; d != nil {
			if err := d.Commit(); err != nil {
				c.Errorf(wire.CodeInternal, false, "migrated %q not durable: %v", m.name, err)
				return true, true
			}
		}
		s.cMigratedIn.Add(1)
		s.cMigratedBytes.Add(int64(m.fed))
		s.cfg.Events.Info("server.migrate_done",
			events.F("name", m.name), events.F("bytes", m.fed))
		return true, c.Write(wire.TypeMigrateOK, nil) != nil

	case wire.TypeFileDrop:
		fd, err := wire.UnmarshalFileDrop(f.Payload)
		if err != nil {
			c.Errorf(wire.CodeProtocol, false, "bad FileDrop: %v", err)
			return true, true
		}
		disk := s.cfg.Engine.Disk()
		if disk.Exists(simdisk.FileManifest, fd.Name) {
			if err := disk.Delete(simdisk.FileManifest, fd.Name); err != nil {
				c.Errorf(wire.CodeInternal, true, "drop %q: %v", fd.Name, err)
				return true, true
			}
			s.cFileDrops.Add(1)
			s.cfg.Events.Info("server.file_drop", events.F("name", fd.Name))
		}
		// Dropping an absent file is success: the caller wants "gone".
		return true, c.Write(wire.TypeFileDropOK, nil) != nil

	case wire.TypeFileStat:
		fs, err := wire.UnmarshalFileStat(f.Payload)
		if err != nil {
			c.Errorf(wire.CodeProtocol, false, "bad FileStat: %v", err)
			return true, true
		}
		disk := s.cfg.Engine.Disk()
		resp := wire.FileStatOK{Present: make([]bool, len(fs.Names))}
		for i, n := range fs.Names {
			resp.Present[i] = disk.Exists(simdisk.FileManifest, n)
		}
		return true, c.Write(wire.TypeFileStatOK, resp.Marshal()) != nil
	}
	return false, false
}
