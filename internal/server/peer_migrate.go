package server

import (
	"context"

	"mhdedup/internal/events"
	"mhdedup/internal/session"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/wire"
)

// A migration is one in-flight migrated-file ingest on a ModePeer
// connection: a gateway (rebalancing a drained shard or repairing an
// under-replicated file) streams the file's raw bytes — it holds no cuts —
// so here, and only here, the shard is the edge: its engine chunks, hashes
// and dedups them like any local PutFile, and the closing claim is a SHA-1
// over the stream. It is the feed the client ingest path drives — same
// size+sum check before the engine may commit, same durability barrier
// before the acknowledgement — minus the offer→need negotiation, which the
// engine's own dedup makes redundant here (known chunks cost an index
// lookup, not new storage).

// handleMigrateFrames serves one replica/migrate-plane frame inside the
// peer-connection loop. It returns (handled, fatal): fatal means the
// connection must be dropped (an Error frame was already sent where the
// protocol allows one).
func (s *Server) handleMigrateFrames(f wire.Frame, mig **feed, c *session.Conn) (bool, bool) {
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
		*mig = beginByteFeed(context.Background(), s.cfg.Engine.NewSession(), mb.Name)
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
		if err := (*mig).write(md.Data); err != nil {
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
		if err := m.finish(me.TotalBytes, me.Sum); err != nil {
			c.Errorf(wire.CodeIntegrity, false, "migrated %q: %v", m.name, err)
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
