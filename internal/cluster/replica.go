// Replica repair: the background sibling of rebalance. Where rebalance
// empties one known shard, repair sweeps the whole cluster for files
// that are under-replicated — a shard died and took copies with it, or
// the replication factor was raised — and copies each missing one to the
// write-ring owner that lacks it from a surviving holder whose copy
// verifies.
package cluster

import (
	"fmt"

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

// RepairScan walks every file the reachable shards hold and re-creates
// any missing copy on its home, sourcing from the first holder whose copy
// verifies. Owners that cannot be listed (dead, not drained) are left for
// a later pass — repair converges as shards come back or stay drained.
func (gw *Gateway) RepairScan() (RepairReport, error) {
	holders, listed, _ := gw.listShards("")
	rep := RepairReport{Shards: len(listed), Files: len(holders)}
	var firstErr error
	for _, name := range sortedNames(holders) {
		srcs := holders[name]
		anyOwnerReachable := false
		for _, owner := range gw.home(name) {
			if holds(srcs, owner.ID) {
				anyOwnerReachable = true
				continue
			}
			if !listed[owner.ID] {
				continue // dead owner: nothing to write to yet
			}
			anyOwnerReachable = true
			if err := gw.copyTo(name, owner, srcs); err != nil {
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
// whether all of its home's owners hold a copy. It is the invariant the
// fault matrix gates on after repair: Under empty means every file is at
// its full replication factor.
func (gw *Gateway) CheckReplication() ReplicationReport {
	holders, _, _ := gw.listShards("")
	rep := ReplicationReport{Files: len(holders)}
	for _, name := range sortedNames(holders) {
		full := true
		for _, owner := range gw.home(name) {
			full = full && holds(holders[name], owner.ID)
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
