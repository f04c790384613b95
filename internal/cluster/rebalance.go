// Shard rebalance and replica repair: the gateway-driven data plane that
// moves whole files between shards. A migration is a verified restore
// piped into an ordinary ingest session: the source shard restores the
// file through its verified path (a stored byte that does not hash to its
// recorded SHA-1 fails the copy), the gateway cuts and hashes the bytes as
// any client does, and the target takes the cuts pre-chunked and commits
// durably before its FileEnd Ack. Nothing is dropped from a source until
// every owner of the file was listed holding it or has confirmed its copy.
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

// copyTo copies name onto owner from the first of srcs whose copy
// verifies: a holder whose copy does not verify fails its migration, and
// the next one may have a good one. It returns the last failure when none
// does.
func (gw *Gateway) copyTo(name string, owner Shard, srcs []Shard) (err error) {
	for _, src := range srcs {
		if err = gw.migrate(src, owner, name); err == nil {
			return nil
		}
		gw.cfg.Events.Warn("gateway.migrate_fail", events.F("file", name),
			events.F("source", src.ID), events.F("target", owner.ID), events.F("err", err))
	}
	return err
}

// RebalanceReport summarizes one RebalanceShard pass.
type RebalanceReport struct {
	Shard    string `json:"shard"`
	Files    int    `json:"files"`    // files found homed on the drained shard
	Migrated int    `json:"migrated"` // copies made on new owners
	Dropped  int    `json:"dropped"`  // files forgotten on the drained shard
}

// RebalanceShard drains a shard (if it is not already draining) and moves
// every file it holds onto the file's home: each owner that lacks a copy
// receives one by verified migration from the drained shard, and only once
// every owner was listed holding the file or confirmed its copy is the file
// dropped from the drained shard. Presence comes from every shard's
// listing, as repair's does; an owner that cannot be listed is not known to
// lack the file, so the file stays and the pass returns an error. The pass
// is idempotent — a second call finds zero files and is a no-op — and
// crash-safe in the sense that an interrupted pass leaves every file on at
// least as many shards as before.
func (gw *Gateway) RebalanceShard(id string) (RebalanceReport, error) {
	rep := RebalanceReport{Shard: id}
	if err := gw.DrainShard(id); err != nil {
		return rep, err
	}
	full, _ := gw.rings()
	src, _ := full.Shard(id) // DrainShard refused an unknown id
	holders, listed, lastErr := gw.listShards("")
	if !listed[id] {
		return rep, fmt.Errorf("cluster: listing drained shard %s: %w", id, lastErr)
	}

	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, name := range sortedNames(holders) {
		if !holds(holders[name], id) {
			continue
		}
		rep.Files++
		confirmed := true
		for _, owner := range gw.home(name) {
			if holds(holders[name], owner.ID) {
				continue
			}
			err := fmt.Errorf("cluster: %q stays on %s: its owner %s could not be listed", name, id, owner.ID)
			if listed[owner.ID] {
				err = gw.copyTo(name, owner, []Shard{src})
			}
			if err != nil {
				fail(err)
				confirmed = false
				continue
			}
			rep.Migrated++
			gw.cMigrated.Add(1)
		}
		if !confirmed {
			continue // keep the source copy; a later pass retries
		}
		if err := gw.dropFile(src, name); err != nil {
			gw.cfg.Events.Warn("gateway.rebalance_drop_fail",
				events.F("file", name), events.F("err", err))
			fail(err)
			continue
		}
		rep.Dropped++
	}
	gw.cfg.Events.Info("gateway.rebalance_shard",
		events.F("shard", id), events.F("files", rep.Files),
		events.F("migrated", rep.Migrated), events.F("dropped", rep.Dropped))
	return rep, firstErr
}
