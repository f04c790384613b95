// Shard rebalance and replica repair: the gateway-driven data plane that
// moves whole files between shards over the trusted interior protocol.
// Migration is a verified restore spliced into a migrate-ingest: the
// source shard streams the file's bytes (hashed and counted by the
// gateway as they pass), the target re-chunks them through its own
// engine, proves size and sum, and commits durably before MigrateOK.
// Nothing is dropped from a source until every live owner has confirmed
// its copy.
package cluster

import (
	"fmt"

	"mhdedup/internal/events"
	"mhdedup/internal/session"
	"mhdedup/internal/wire"
)

// statBatch bounds one FileStat frame: well under both MaxStatNames and
// the frame payload cap even with maximal names.
const statBatch = 512

// statFiles asks sh which of names it holds, in batches, over the pooled
// peer connection.
func (gw *Gateway) statFiles(sh Shard, names []string) ([]bool, error) {
	out := make([]bool, 0, len(names))
	for start := 0; start < len(names); start += statBatch {
		end := min(start+statBatch, len(names))
		f, err := gw.peers.rpc(sh, wire.TypeFileStat, wire.FileStat{Names: names[start:end]}.Marshal(), wire.TypeFileStatOK)
		if err != nil {
			return nil, err
		}
		ok, err := wire.UnmarshalFileStatOK(f.Payload)
		if err != nil {
			return nil, err
		}
		if len(ok.Present) != end-start {
			return nil, fmt.Errorf("shard %s answered %d presence bits for %d names", sh.ID, len(ok.Present), end-start)
		}
		out = append(out, ok.Present...)
	}
	return out, nil
}

// dropFile forgets name on sh (idempotent on the shard side).
func (gw *Gateway) dropFile(sh Shard, name string) error {
	_, err := gw.peers.rpc(sh, wire.TypeFileDrop, wire.FileDrop{Name: name}.Marshal(), wire.TypeFileDropOK)
	return err
}

// migrate streams name from src into dst: a root-namespace restore on
// the source side feeds a migrate-ingest on the target side, with the
// gateway verifying the source's declared size and sum against the bytes
// it actually relayed before asking the target to commit. The source side
// is a pooled restore link; the target side is the migration's own
// connection (the pooled peer connection stays free for chunk routing), and
// closing it half-fed is what makes the shard abort the ingest on any
// failure.
func (gw *Gateway) migrate(src, dst Shard, name string) error {
	mc, _, err := gw.dialShard(dst, wire.Hello{Mode: wire.ModePeer}, session.Meter{})
	if err != nil {
		return fmt.Errorf("target: %w", err)
	}
	defer mc.Close()
	if err := mc.Write(wire.TypeMigrateBegin, wire.MigrateBegin{Name: name}.Marshal()); err != nil {
		return fmt.Errorf("target %s: %w", dst.ID, err)
	}
	// MigrateData adds a 4-byte blob prefix to what RestoreData carried,
	// so re-cut runs that would overflow the target's payload cap.
	budget := int(mc.MaxPayload()) - 64
	var end wire.RestoreEnd
	err = gw.links.do(src, "", func(rc *session.Conn) (bool, error) {
		if err := rc.Write(wire.TypeRestoreReq, wire.RestoreReq{Name: name}.Marshal()); err != nil {
			return false, err
		}
		// Verified relay: ReceiveRestore holds what the source DECLARED to
		// what actually passed through here, or the copy is not a copy.
		var err error
		end, err = rc.ReceiveRestore(func(data []byte) error {
			for len(data) > 0 {
				n := min(len(data), budget)
				if err := mc.Write(wire.TypeMigrateData, wire.MigrateData{Data: data[:n]}.Marshal()); err != nil {
					return fmt.Errorf("target %s: %w", dst.ID, err)
				}
				data = data[n:]
			}
			return nil
		})
		return answered(err), err
	})
	if err != nil {
		return fmt.Errorf("migrating %q from %s: %w", name, src.ID, err)
	}
	commit := wire.MigrateEnd{TotalBytes: end.TotalBytes, Sum: end.Sum}
	if _, err := mc.Call(wire.TypeMigrateEnd, commit.Marshal(), wire.TypeMigrateOK); err != nil {
		return fmt.Errorf("target %s: %w", dst.ID, err)
	}
	mc.Goodbye()
	return nil
}

// RebalanceReport summarizes one RebalanceShard pass.
type RebalanceReport struct {
	Shard    string `json:"shard"`
	Files    int    `json:"files"`    // files found homed on the drained shard
	Migrated int    `json:"migrated"` // copies streamed to new owners
	Dropped  int    `json:"dropped"`  // files forgotten on the drained shard
}

// RebalanceShard drains a shard (if it is not already draining) and moves
// every file it holds onto the file's current write-ring owners: each
// owner that lacks a copy receives one by verified migration, and only
// when every owner holds the file is it dropped from the drained shard.
// The pass is idempotent — a second call finds zero files and is a no-op
// — and crash-safe in the sense that an interrupted pass leaves every
// file on at least as many shards as before.
func (gw *Gateway) RebalanceShard(id string) (RebalanceReport, error) {
	rep := RebalanceReport{Shard: id}
	if err := gw.DrainShard(id); err != nil {
		return rep, err
	}
	full, write := gw.rings()
	src, found := full.Shard(id)
	if !found {
		return rep, fmt.Errorf("cluster: no shard %q", id)
	}
	names, err := gw.shardList(src, "")
	if err != nil {
		return rep, fmt.Errorf("cluster: listing drained shard %s: %w", id, err)
	}
	rep.Files = len(names)

	// Presence on each distinct target, batched per shard up front.
	present := make(map[string]map[string]bool) // target ID → name → present
	ownersOf := make(map[string][]Shard, len(names))
	targets := make(map[string][]string)
	shardByID := make(map[string]Shard)
	for _, name := range names {
		owners := write.OwnersOfName(name, gw.cfg.Replication)
		ownersOf[name] = owners
		for _, o := range owners {
			shardByID[o.ID] = o
			targets[o.ID] = append(targets[o.ID], name)
		}
	}
	for tid, tnames := range targets {
		bits, err := gw.statFiles(shardByID[tid], tnames)
		if err != nil {
			return rep, fmt.Errorf("cluster: stat on %s: %w", tid, err)
		}
		m := make(map[string]bool, len(tnames))
		for i, n := range tnames {
			m[n] = bits[i]
		}
		present[tid] = m
	}

	var firstErr error
	for _, name := range names {
		confirmed := true
		for _, owner := range ownersOf[name] {
			if present[owner.ID][name] {
				continue
			}
			if err := gw.migrate(src, owner, name); err != nil {
				gw.cfg.Events.Warn("gateway.rebalance_migrate_fail",
					events.F("file", name), events.F("target", owner.ID), events.F("err", err))
				if firstErr == nil {
					firstErr = err
				}
				confirmed = false
				continue
			}
			present[owner.ID][name] = true
			rep.Migrated++
			gw.cMigrated.Add(1)
		}
		if !confirmed {
			continue // keep the source copy; a later pass retries
		}
		if err := gw.dropFile(src, name); err != nil {
			gw.cfg.Events.Warn("gateway.rebalance_drop_fail",
				events.F("file", name), events.F("err", err))
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		rep.Dropped++
	}
	gw.cfg.Events.Info("gateway.rebalance_shard",
		events.F("shard", id), events.F("files", rep.Files),
		events.F("migrated", rep.Migrated), events.F("dropped", rep.Dropped))
	return rep, firstErr
}
