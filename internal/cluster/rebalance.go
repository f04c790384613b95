// Shard rebalance and replica repair: the gateway-driven data plane that
// moves whole files between shards. A migration is a verified restore
// piped into an ordinary ingest session: the source shard restores the
// file through its verified path (a stored byte that does not hash to its
// recorded SHA-1 fails the copy), the gateway cuts and hashes the bytes as
// any client does, and the target takes the cuts pre-chunked and commits
// durably before its FileEnd Ack. Nothing is dropped from a source until
// every live owner has confirmed its copy.
package cluster

import (
	"errors"
	"fmt"
	"io"

	"mhdedup/internal/client"
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
		f, err := gw.peerRPC(sh, wire.TypeFileStat, wire.FileStat{Names: names[start:end]}.Marshal(), wire.TypeFileStatOK)
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
	_, err := gw.peerRPC(sh, wire.TypeFileDrop, wire.FileDrop{Name: name}.Marshal(), wire.TypeFileDropOK)
	return err
}

// migrate copies name from src to dst. The source restores it over a
// pooled restore link with verification on, and ReceiveRestore holds what
// the source declared to the bytes that passed; those bytes are piped into
// a client session on the target, which cuts by the contract the target
// announces. The target's FileEnd Ack, sent only once the file is durable,
// confirms the copy. A restore that fails stops the pipe with its error,
// so the client abandons the half-sent file and the target commits
// nothing.
func (gw *Gateway) migrate(src, dst Shard, name string) error {
	ing, err := client.Connect(client.Config{Addr: dst.Addr, Dial: gw.cfg.Dial})
	if err != nil {
		return fmt.Errorf("migrating %q to %s: %w", name, dst.ID, err)
	}
	pr, pw := io.Pipe()
	restored := make(chan error, 1)
	go func() {
		err := gw.restoreLink(src, "", func(rc *session.Conn) (bool, error) {
			if err := rc.Write(wire.TypeRestoreReq, wire.RestoreReq{Name: name, Verify: true}.Marshal()); err != nil {
				return false, err
			}
			_, err := rc.ReceiveRestore(func(data []byte) error {
				_, err := pw.Write(data)
				return err
			})
			return session.Answered(err), err
		})
		pw.CloseWithError(err) // nil: the reader sees EOF
		restored <- err
	}()
	perr := ing.PutFile(name, pr)
	pr.CloseWithError(perr) // a target that failed first stops the restore
	rerr := <-restored
	ing.Close() // frees the target's session, abandoning a half-sent file
	if perr != nil && !errors.Is(perr, rerr) {
		return fmt.Errorf("migrating %q to %s: %w", name, dst.ID, perr)
	}
	if rerr != nil {
		return fmt.Errorf("migrating %q from %s: %w", name, src.ID, rerr)
	}
	return nil
}

// RebalanceReport summarizes one RebalanceShard pass.
type RebalanceReport struct {
	Shard    string `json:"shard"`
	Files    int    `json:"files"`    // files found homed on the drained shard
	Migrated int    `json:"migrated"` // copies made on new owners
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
