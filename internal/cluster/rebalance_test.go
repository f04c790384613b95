// Rebalance regression tests: the drain → rebalance → drain-again cycle
// must converge (a second pass finds nothing), survive being pointed at
// the same shard twice, and never strand a file below its replication
// factor.
package cluster_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sort"
	"testing"

	"mhdedup/internal/client"
	"mhdedup/internal/cluster"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
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

// drainedHomes maps each file to its home once shard 0 is drained: its
// owners at r on a ring of the other shards.
func drainedHomes(t *testing.T, tc *testCluster, names []string, r int) map[string][]cluster.Shard {
	t.Helper()
	ring, err := cluster.NewRing(tc.shards[1:])
	if err != nil {
		t.Fatal(err)
	}
	homes := make(map[string][]cluster.Shard, len(names))
	for _, name := range names {
		homes[name] = ring.OwnersOfName(name, r)
	}
	return homes
}

// holding reports whether shard id's engine holds name.
func (tc *testCluster) holding(id, name string) bool {
	for i, sh := range tc.shards {
		if sh.ID == id {
			return tc.engines[i].Disk().Exists(simdisk.FileManifest, name)
		}
	}
	return false
}

// TestRebalanceMigratesOnlyWhatOwnersLack: rebalance learns who holds a
// file from the shards' listings. At R=2 every file of the drained shard
// keeps one owner that already holds it, and some are also put straight
// onto their other new owner first; Migrated must be exactly the (file,
// owner) pairs whose owner lacked a copy before the pass.
func TestRebalanceMigratesOnlyWhatOwnersLack(t *testing.T) {
	tc := startCluster(t, 4, func(c *cluster.GatewayConfig) { c.Replication = 2 })
	files, order := matrixFiles(t, tc, 86, 2, 1<<17)
	putAll(t, tc.clientConfig(), files, order)
	var victims []string
	for _, name := range order {
		if tc.holding(tc.shards[0].ID, name) {
			victims = append(victims, name)
		}
	}
	homes := drainedHomes(t, tc, victims, 2)
	prePut := 0
	for i, name := range victims {
		if i%2 != 0 {
			continue
		}
		for _, owner := range homes[name] {
			if !tc.holding(owner.ID, name) {
				putAll(t, client.Config{Addr: owner.Addr, Options: tc.options}, files, []string{name})
				prePut++
			}
		}
	}
	lacking := 0
	for _, name := range victims {
		for _, owner := range homes[name] {
			if !tc.holding(owner.ID, name) {
				lacking++
			}
		}
	}
	if prePut == 0 || lacking == 0 || lacking == len(victims)*2 {
		t.Fatalf("%d files on the victim, %d put ahead, %d copies lacking: the placement proves nothing",
			len(victims), prePut, lacking)
	}

	rep, err := tc.gw.RebalanceShard(tc.shards[0].ID)
	if err != nil {
		t.Fatalf("rebalance: %v (report %+v)", err, rep)
	}
	if rep.Files != len(victims) || rep.Migrated != lacking || rep.Dropped != len(victims) {
		t.Fatalf("rebalance %+v; want %d files, %d migrated, %d dropped", rep, len(victims), lacking, len(victims))
	}
	for _, name := range victims {
		for _, owner := range homes[name] {
			if !tc.holding(owner.ID, name) {
				t.Fatalf("%s is not on its owner %s after the rebalance", name, owner.ID)
			}
		}
	}
	requireFullReplication(t, tc.gw)
}

// TestRebalanceKeepsFilesOfUnlistedOwner: a shard that cannot be listed is
// not known to hold a file or to lack it. Rebalance drops none of the
// files that shard should hold and returns an error, still moves every
// file whose owners could all be listed, and leaves no session behind.
func TestRebalanceKeepsFilesOfUnlistedOwner(t *testing.T) {
	tc := startCluster(t, 4, func(c *cluster.GatewayConfig) { c.Replication = 2 })
	files, order := matrixFiles(t, tc, 87, 3, 1<<17)
	putAll(t, tc.clientConfig(), files, order)
	victim, dead := tc.shards[0].ID, tc.shards[3].ID
	var victims, stuck []string
	for _, name := range order {
		if tc.holding(victim, name) {
			victims = append(victims, name)
		}
	}
	homes := drainedHomes(t, tc, victims, 2)
	for _, name := range victims {
		for _, owner := range homes[name] {
			if owner.ID == dead {
				stuck = append(stuck, name)
			}
		}
	}
	if len(stuck) == 0 || len(stuck) == len(victims) {
		t.Fatalf("%d of the victim's %d files are homed on %s: the placement proves nothing", len(stuck), len(victims), dead)
	}
	tc.servers[3].Close()

	rep, err := tc.gw.RebalanceShard(victim)
	if err == nil {
		t.Fatalf("rebalance with %s unlisted succeeded: %+v", dead, rep)
	}
	if rep.Files != len(victims) || rep.Dropped != len(victims)-len(stuck) {
		t.Fatalf("rebalance %+v; want %d files and %d dropped", rep, len(victims), len(victims)-len(stuck))
	}
	for _, name := range victims {
		if slices.Contains(stuck, name) {
			if !tc.holding(victim, name) {
				t.Fatalf("%s was dropped from %s though its owner %s could not be listed", name, victim, dead)
			}
			continue
		}
		if tc.holding(victim, name) {
			t.Fatalf("%s stayed on %s though its owners could all be listed", name, victim)
		}
		for _, owner := range homes[name] {
			if !tc.holding(owner.ID, name) {
				t.Fatalf("%s is not on its owner %s after the rebalance", name, owner.ID)
			}
		}
	}
	requireNoSessions(t, tc)
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

	ring, err := cluster.NewRing(tc.shards)
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

// TestRebalanceCopyIsPreChunkedAndVerified: a migration is an ingest
// session the gateway drives, so the copy on every new owner restores
// bit-identical through that owner's verified path, and it arrived
// pre-chunked — no target engine ran its chunker across the rebalance.
func TestRebalanceCopyIsPreChunkedAndVerified(t *testing.T) {
	tc := startCluster(t, 3, nil)
	files, order := matrixFiles(t, tc, 81, 2, 1<<19)
	putAll(t, tc.clientConfig(), files, order)
	var homed []string
	for _, name := range order {
		if tc.engines[0].Disk().Exists(simdisk.FileManifest, name) {
			homed = append(homed, name)
		}
	}
	chunked := make([]int64, len(tc.engines))
	for i, eng := range tc.engines {
		chunked[i] = eng.Stats().ChunkedBytes
	}

	rep, err := tc.gw.RebalanceShard(tc.shards[0].ID)
	if err != nil || rep.Migrated != len(homed) || rep.Dropped != len(homed) || len(homed) == 0 {
		t.Fatalf("rebalance: %v, %+v; want all %d homed files migrated and dropped", err, rep, len(homed))
	}
	for i, eng := range tc.engines {
		if got := eng.Stats().ChunkedBytes; got != chunked[i] {
			t.Fatalf("shard %s chunked %d bytes during the rebalance: the copy did not arrive pre-chunked", tc.shards[i].ID, got-chunked[i])
		}
	}
	for _, name := range homed {
		copies := 0
		for i := 1; i < len(tc.engines); i++ {
			disk := tc.engines[i].Disk()
			if !disk.Exists(simdisk.FileManifest, name) {
				continue
			}
			contract, _ := store.ContractOf(disk)
			var got bytes.Buffer
			if err := store.NewVerifier(store.New(disk, contract.Format), store.VerifyOpts{}).RestoreFile(name, &got); err != nil {
				t.Fatalf("%s on %s: verified restore: %v", name, tc.shards[i].ID, err)
			}
			if !bytes.Equal(got.Bytes(), files[name]) {
				t.Fatalf("%s on %s restores different bytes", name, tc.shards[i].ID)
			}
			copies++
		}
		if copies != 1 {
			t.Fatalf("%s has %d copies after the rebalance, want 1", name, copies)
		}
	}
}

// failingReader returns its data, then err instead of EOF.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}

// requireNoSessions fails unless the gateway and every shard hold no
// session, live or parked.
func requireNoSessions(t *testing.T, tc *testCluster) {
	t.Helper()
	if n := tc.gw.SessionCount(); n != 0 {
		t.Fatalf("the gateway holds %d sessions", n)
	}
	for i, srv := range tc.servers {
		if n := srv.SessionCount(); n != 0 {
			t.Fatalf("shard %s holds %d sessions", tc.shards[i].ID, n)
		}
	}
}

// TestGatewayPutFileReadFailureFreesSessions: a PutFile through the
// gateway whose reader fails halfway still closes in order: the gateway
// forwards the Close, every replica abandons the half-fed file, and no
// session stays parked anywhere. The same name then puts cleanly.
func TestGatewayPutFileReadFailureFreesSessions(t *testing.T) {
	tc := startCluster(t, 3, func(c *cluster.GatewayConfig) { c.Replication = 2 })
	data := genData(82, 1<<20+300<<10)
	broken := errors.New("disk unreadable")
	ing, err := client.Connect(tc.clientConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.PutFile("half", &failingReader{data: data[:len(data)/2], err: broken}); !errors.Is(err, broken) {
		t.Fatalf("PutFile = %v, want the reader's error", err)
	}
	ing.Close()
	requireNoSessions(t, tc)
	for i, eng := range tc.engines {
		if eng.Disk().Exists(simdisk.FileManifest, "half") {
			t.Fatalf("shard %s committed a file whose reader failed", tc.shards[i].ID)
		}
	}
	putAll(t, tc.clientConfig(), map[string][]byte{"half": data}, []string{"half"})
	if got := restoreOne(t, tc.clientConfig(), "half"); !bytes.Equal(got, data) {
		t.Fatal("re-put after the failed read restores different bytes")
	}
}

// TestRebalanceSourceFailsMidStream: a migration whose source restore
// fails after some of the file has been sent leaves nothing behind — no
// session on any shard, no file on the target — and the source keeps it.
func TestRebalanceSourceFailsMidStream(t *testing.T) {
	tc := startCluster(t, 2, nil)
	pair := tc.namesByShard(t, "", 2)[tc.shards[0].ID]
	sort.Strings(pair)
	name, base := pair[0], pair[1] // the shard lists name first, so it migrates first
	// name alternates 1 MiB of base with 1 MiB of its own, so its restore is
	// sixteen planned reads from two containers, one at a time past the
	// source's restore window: the source is still reading when the target
	// has taken some of the file.
	baseData, own := genData(83, 8<<20), genData(85, 8<<20)
	var data []byte
	for off := 0; off < 8<<20; off += 1 << 20 {
		data = append(append(data, baseData[off:off+1<<20]...), own[off:off+1<<20]...)
	}
	putAll(t, tc.clientConfig(), map[string][]byte{base: baseData, name: data}, []string{base, name})

	// The source's container reads fail from the moment the target's engine
	// has taken some of the file.
	fed := tc.engines[1].Stats().InputBytes
	tc.engines[0].Disk().SetFailureHook(func(op simdisk.Op, cat simdisk.Category, _ string) error {
		if op == simdisk.OpRead && cat == simdisk.Data && tc.engines[1].Stats().InputBytes != fed {
			return errors.New("sector unreadable")
		}
		return nil
	})
	rep, err := tc.gw.RebalanceShard(tc.shards[0].ID)
	if err == nil || rep.Migrated != 0 || rep.Dropped != 0 {
		t.Fatalf("rebalance off a failing source: %v, %+v; want an error and nothing moved", err, rep)
	}
	requireNoSessions(t, tc)
	for _, n := range pair {
		if tc.engines[1].Disk().Exists(simdisk.FileManifest, n) {
			t.Fatalf("the target committed a copy of %s whose source failed", n)
		}
		if !tc.engines[0].Disk().Exists(simdisk.FileManifest, n) {
			t.Fatalf("the source dropped %s, which it could not copy", n)
		}
	}
}

// TestGatewayCloseOKMeansSessionGone: as on a dedupd, a session is out of
// the gateway's table before its CloseOK, so a client that has closed never
// counts against MaxSessions.
func TestGatewayCloseOKMeansSessionGone(t *testing.T) {
	tc := startCluster(t, 3, nil)
	data := genData(84, 64<<10)
	for i := range 50 {
		name := fmt.Sprintf("f%d", i)
		putAll(t, tc.clientConfig(), map[string][]byte{name: data}, []string{name})
		if n := tc.gw.SessionCount(); n != 0 {
			t.Fatalf("cycle %d: the gateway lists %d sessions after CloseOK", i, n)
		}
	}
}
