// Rebalance regression tests: the drain → rebalance → drain-again cycle
// must converge (a second pass finds nothing), survive being pointed at
// the same shard twice, and never strand a file below its replication
// factor.
package cluster_test

import (
	"bytes"
	"testing"

	"mhdedup/internal/cluster"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/wire"
)

// TestRebalanceShardConverges drains and rebalances a live shard, then
// proves the pass was complete and idempotent: every file restores
// bit-identical, the drained shard holds nothing, and a second
// RebalanceShard of the same shard is a no-op with file count 0. It then
// kills a different shard and restores everything through what is left.
func TestRebalanceShardConverges(t *testing.T) {
	tc := startCluster(t, 3, func(c *cluster.GatewayConfig) { c.Replication = 2 })
	files, order := matrixFiles(t, tc, 77, 2, 1<<18)
	putAll(t, tc.clientConfig(), files, order)

	victim := tc.shards[0].ID
	rep, err := tc.gw.RebalanceShard(victim)
	if err != nil {
		t.Fatalf("rebalance: %v (report %+v)", err, rep)
	}
	if rep.Files == 0 {
		t.Fatal("rebalance found no files on the victim; the test placed none there")
	}
	if rep.Dropped != rep.Files {
		t.Fatalf("rebalance dropped %d of %d files — victim not emptied", rep.Dropped, rep.Files)
	}

	// The victim's engine really holds zero file manifests now.
	for name := range files {
		if tc.engines[0].Disk().Exists(simdisk.FileManifest, name) {
			t.Fatalf("drained shard still holds %s after rebalance", name)
		}
	}

	// Everything restores bit-identical through the gateway.
	for name, want := range files {
		if got := restoreOne(t, tc.clientConfig(), name); !bytes.Equal(got, want) {
			t.Fatalf("%s: restore after rebalance differs from input", name)
		}
	}
	requireFullReplication(t, tc.gw)

	// Drain-again regression: the second pass must find file count 0 and
	// move nothing.
	again, err := tc.gw.RebalanceShard(victim)
	if err != nil {
		t.Fatal(err)
	}
	if again.Files != 0 || again.Migrated != 0 || again.Dropped != 0 {
		t.Fatalf("second rebalance pass was not a no-op: %+v", again)
	}

	if migrated := tc.registry.Counter("gateway.rebalance.files").Load(); migrated == 0 {
		t.Fatal("gateway.rebalance.files counter never moved")
	}

	// Failover after rebalance: hard-kill a DIFFERENT shard, one that holds
	// replicas. The rebalanced placement must have left a live copy of
	// every file outside both the drained and the dead shard, so everything
	// still restores bit-identical through what is left.
	held := 0
	for name := range files {
		if tc.engines[1].Disk().Exists(simdisk.FileManifest, name) {
			held++
		}
	}
	if held == 0 {
		t.Fatalf("shard %s holds no replica; killing it would prove nothing", tc.shards[1].ID)
	}
	tc.servers[1].Close()
	for name, want := range files {
		if got := restoreOne(t, tc.clientConfig(), name); !bytes.Equal(got, want) {
			t.Fatalf("%s: restore with %s drained and %s dead differs from input",
				name, victim, tc.shards[1].ID)
		}
	}
}

// TestRebalanceUnknownShard pins the error path: rebalancing a shard the
// ring does not know must fail without touching anything.
func TestRebalanceUnknownShard(t *testing.T) {
	tc := startCluster(t, 2, nil)
	if _, err := tc.gw.RebalanceShard("nope"); err == nil {
		t.Fatal("rebalancing an unknown shard succeeded")
	}
}

// TestRepairScanRestoresFactor deletes one replica behind the gateway's
// back (operator error, disk swap) and requires RepairScan to notice and
// re-replicate it from the surviving copy.
func TestRepairScanRestoresFactor(t *testing.T) {
	tc := startCluster(t, 3, func(c *cluster.GatewayConfig) { c.Replication = 2 })
	files, order := matrixFiles(t, tc, 78, 1, 1<<18)
	putAll(t, tc.clientConfig(), files, order)

	// Remove one file's manifest from one shard that holds it.
	var hurt string
	for name := range files {
		for i := range tc.engines {
			if tc.engines[i].Disk().Exists(simdisk.FileManifest, name) {
				if err := tc.engines[i].Disk().Delete(simdisk.FileManifest, name); err != nil {
					t.Fatal(err)
				}
				hurt = name
				break
			}
		}
		if hurt != "" {
			break
		}
	}
	if hurt == "" {
		t.Fatal("found no replica to delete")
	}
	if rep := tc.gw.CheckReplication(); len(rep.Under) == 0 {
		t.Fatal("deleting a replica left the cluster fully replicated; the check is blind")
	}

	rep, err := tc.gw.RepairScan()
	if err != nil {
		t.Fatalf("repair: %v (report %+v)", err, rep)
	}
	if rep.Repaired == 0 {
		t.Fatal("repair scan repaired nothing")
	}
	requireFullReplication(t, tc.gw)
	if got := restoreOne(t, tc.clientConfig(), hurt); !bytes.Equal(got, files[hurt]) {
		t.Fatalf("%s: restore after repair differs from input", hurt)
	}
}

// TestReplicationPlacement pins the placement contract: with R=2 every
// acked file sits on exactly its two write-ring owners.
func TestReplicationPlacement(t *testing.T) {
	tc := startCluster(t, 3, func(c *cluster.GatewayConfig) { c.Replication = 2 })
	files, order := matrixFiles(t, tc, 79, 1, 1<<18)
	putAll(t, tc.clientConfig(), files, order)

	ring, err := cluster.NewRing(cluster.RingConfig{Shards: tc.shards})
	if err != nil {
		t.Fatal(err)
	}
	for name := range files {
		owners := ring.OwnersOfName(wire.NSJoin("", name), 2)
		want := map[string]bool{owners[0].ID: true, owners[1].ID: true}
		for i, sh := range tc.shards {
			has := tc.engines[i].Disk().Exists(simdisk.FileManifest, name)
			if has != want[sh.ID] {
				t.Fatalf("%s on shard %s: present=%v, ring owners %v", name, sh.ID, has, want)
			}
		}
	}
}
