// Replica repair: the background sibling of rebalance. Where rebalance
// empties one known shard, repair sweeps the whole cluster for files
// that are under-replicated — a shard died and took copies with it, or
// the replication factor was raised — and re-streams each missing copy
// from any surviving holder to the write-ring owner that lacks it.
package cluster

import (
	"fmt"
	"sort"

	"mhdedup/internal/events"
)

// RepairReport summarizes one RepairScan pass.
type RepairReport struct {
	Shards    int `json:"shards"`    // reachable shards scanned
	Files     int `json:"files"`     // distinct files seen cluster-wide
	Repaired  int `json:"repaired"`  // copies re-replicated this pass
	Unfixable int `json:"unfixable"` // files whose owners could not all be filled
	Skipped   int `json:"skipped"`   // files whose owners were all unreachable
}

// ReplicationReport is the invariant check: how many files sit on every
// one of their write-ring owners, and which do not.
type ReplicationReport struct {
	Files           int      `json:"files"`
	FullyReplicated int      `json:"fully_replicated"`
	Under           []string `json:"under_replicated,omitempty"`
}

// clusterNames unions the root-namespace listing of every reachable
// shard, recording which shards hold which file. Unreachable shards are
// skipped (their holdings are what repair exists to reconstruct).
func (gw *Gateway) clusterNames() (holders map[string][]Shard, reachable []Shard) {
	full, _ := gw.rings()
	holders = make(map[string][]Shard)
	for _, sh := range full.Shards() {
		names, err := gw.shardList(sh, "")
		if err != nil {
			gw.cfg.Events.Warn("gateway.repair_shard_unreachable",
				events.F("shard", sh.ID), events.F("err", err))
			continue
		}
		reachable = append(reachable, sh)
		for _, n := range names {
			holders[n] = append(holders[n], sh)
		}
	}
	return holders, reachable
}

// RepairScan walks every file the reachable shards hold and re-creates
// any missing copy on its write-ring owners, sourcing from an existing
// holder. Owners that are unreachable (dead, not drained) are left for a
// later pass — repair converges as shards come back or stay drained.
func (gw *Gateway) RepairScan() (RepairReport, error) {
	var rep RepairReport
	holders, reachable := gw.clusterNames()
	rep.Shards = len(reachable)
	rep.Files = len(holders)
	up := make(map[string]bool, len(reachable))
	for _, sh := range reachable {
		up[sh.ID] = true
	}
	_, write := gw.rings()

	names := make([]string, 0, len(holders))
	for n := range holders {
		names = append(names, n)
	}
	sort.Strings(names)

	var firstErr error
	for _, name := range names {
		srcs := holders[name]
		has := make(map[string]bool, len(srcs))
		for _, s := range srcs {
			has[s.ID] = true
		}
		owners := write.OwnersOfName(name, gw.cfg.Replication)
		anyOwnerReachable := false
		for _, owner := range owners {
			if has[owner.ID] {
				anyOwnerReachable = true
				continue
			}
			if !up[owner.ID] {
				continue // dead owner: nothing to write to yet
			}
			anyOwnerReachable = true
			if err := gw.migrate(srcs[0], owner, name); err != nil {
				gw.cfg.Events.Warn("gateway.repair_migrate_fail",
					events.F("file", name), events.F("target", owner.ID), events.F("err", err))
				if firstErr == nil {
					firstErr = fmt.Errorf("repair %q onto %s: %w", name, owner.ID, err)
				}
				rep.Unfixable++
				continue
			}
			rep.Repaired++
			gw.cRepaired.Add(1)
		}
		if !anyOwnerReachable {
			rep.Skipped++
		}
	}
	gw.cfg.Events.Info("gateway.repair_scan",
		events.F("files", rep.Files), events.F("repaired", rep.Repaired),
		events.F("unfixable", rep.Unfixable), events.F("skipped", rep.Skipped))
	return rep, firstErr
}

// CheckReplication reports, for every file any reachable shard holds,
// whether all of its write-ring owners hold a copy. It is the invariant
// the fault matrix gates on after repair: Under empty means every file
// is at its full replication factor.
func (gw *Gateway) CheckReplication() ReplicationReport {
	holders, _ := gw.clusterNames()
	_, write := gw.rings()
	rep := ReplicationReport{Files: len(holders)}
	names := make([]string, 0, len(holders))
	for n := range holders {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		has := make(map[string]bool)
		for _, s := range holders[name] {
			has[s.ID] = true
		}
		full := true
		for _, owner := range write.OwnersOfName(name, gw.cfg.Replication) {
			if !has[owner.ID] {
				full = false
				break
			}
		}
		if full {
			rep.FullyReplicated++
		} else {
			rep.Under = append(rep.Under, name)
		}
	}
	return rep
}

// Replication exposes the configured replication factor (for status
// endpoints and harnesses).
func (gw *Gateway) Replication() int { return gw.cfg.Replication }
