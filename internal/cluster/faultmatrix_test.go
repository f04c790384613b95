// The cluster fault matrix: every fault the design claims to survive,
// crossed with every replication factor, gated on one invariant — an
// acked file either restores bit-identical or (at R=1, where the design
// makes no durability promise) errors loudly. Silent corruption is the
// only unacceptable outcome in any cell. With R>=2 a single dead shard
// must lose zero acked files, and after drain+repair the cluster must be
// back at its full replication factor.
package cluster_test

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"mhdedup/internal/client"
	"mhdedup/internal/cluster"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/store"
)

// faultCell is one row of the matrix: a named fault injected into a
// freshly built cluster at replication factor r, with file contents
// derived from seed.
type faultCell struct {
	name string
	run  func(t *testing.T, r int, seed int64)
}

// TestClusterFaultMatrix is the tentpole harness. Short mode (the CI
// -race preset) runs every cell at R=2 with one seed; full mode crosses
// all cells with R in {1,2,3} and two seeds.
func TestClusterFaultMatrix(t *testing.T) {
	cells := []faultCell{
		{"kill-shard-mid-ingest", cellKillIngest},
		{"kill-shard-mid-restore", cellKillRestore},
		{"drain-rebalance-live-traffic", cellDrainRebalance},
		{"kill-gateway-reattach", cellKillGateway},
		{"corrupt-replica-on-disk", cellCorruptReplica},
		{"rotted-source-rebalance-and-repair", cellRottedSource},
	}
	rs := []int{1, 2, 3}
	seeds := []int64{1, 2}
	if testing.Short() {
		rs = []int{2}
		seeds = []int64{1}
	}
	for _, cell := range cells {
		for _, r := range rs {
			for _, seed := range seeds {
				cell, r, seed := cell, r, seed
				t.Run(fmt.Sprintf("%s/R=%d/seed=%d", cell.name, r, seed), func(t *testing.T) {
					cell.run(t, r, seed)
				})
			}
		}
	}
}

// matrixFiles builds a deterministic file set covering every shard as
// primary home: per files on each of the cluster's shards, contents
// derived from seed, returned with a round-robin order so any prefix of
// the order still touches every shard.
func matrixFiles(t *testing.T, tc *testCluster, seed int64, per, size int) (map[string][]byte, []string) {
	t.Helper()
	byShard := tc.namesByShard(t, "", per)
	files := make(map[string][]byte)
	var order []string
	for round := 0; round < per; round++ {
		for i := range tc.shards {
			names := byShard[tc.shards[i].ID]
			name := names[round]
			files[name] = genData(seed*1000+int64(len(order)), size)
			order = append(order, name)
		}
	}
	return files, order
}

// putTracked ingests files one Ingestor per file, tolerating failures,
// and returns the names whose PutFile AND Close both succeeded — the
// "acked" set the fault matrix verifies against. (Close drains the
// FileEnd ack, so membership means the gateway released the ack, which
// with replication means every replica confirmed durability.)
func putTracked(t *testing.T, cfg client.Config, files map[string][]byte, order []string) (acked, failed []string) {
	t.Helper()
	for _, name := range order {
		err := func() error {
			ing, err := client.Connect(cfg)
			if err != nil {
				return err
			}
			defer ing.Close()
			if err := ing.PutFile(name, bytes.NewReader(files[name])); err != nil {
				return err
			}
			return ing.Close()
		}()
		if err != nil {
			t.Logf("put %s failed (tolerated): %v", name, err)
			failed = append(failed, name)
			continue
		}
		acked = append(acked, name)
	}
	return acked, failed
}

// verifyAcked restores every acked file with server-side verification
// on. strict (R>=2 with at most one fault, or no shard dead at all)
// means every restore must succeed; otherwise an error is tolerated and
// the name reported as lost. A successful restore that returns wrong
// bytes fails the cell in every mode — that is the one outcome the
// design never permits.
func verifyAcked(t *testing.T, cfg client.Config, files map[string][]byte, acked []string, strict bool) (lost []string) {
	t.Helper()
	for _, name := range acked {
		var out bytes.Buffer
		if _, err := client.Restore(cfg, name, true, &out); err != nil {
			if strict {
				t.Errorf("acked file %s must restore, got: %v", name, err)
			} else {
				t.Logf("acked file %s lost (tolerated at R=1): %v", name, err)
				lost = append(lost, name)
			}
			continue
		}
		if !bytes.Equal(out.Bytes(), files[name]) {
			t.Errorf("acked file %s restored with WRONG BYTES (%d got, %d want) — silent corruption", name, out.Len(), len(files[name]))
		}
	}
	return lost
}

// requireFullReplication gates a cell on the post-repair invariant:
// every file any reachable shard holds sits on all of its write-ring
// owners.
func requireFullReplication(t *testing.T, gw *cluster.Gateway) {
	t.Helper()
	rep := gw.CheckReplication()
	if len(rep.Under) > 0 {
		t.Fatalf("after repair, %d/%d files under-replicated: %v", len(rep.Under), rep.Files, rep.Under)
	}
}

// cellKillIngest kills one shard halfway through an ingest run. Files
// acked before or after the kill must survive it at R>=2; then the dead
// shard is drained out, repaired around, and the survivors re-verified
// at full replication.
func cellKillIngest(t *testing.T, r int, seed int64) {
	tc := startCluster(t, 4, func(c *cluster.GatewayConfig) { c.Replication = r })
	files, order := matrixFiles(t, tc, seed, 2, 1<<18)
	half := len(order) / 2

	acked, _ := putTracked(t, tc.clientConfig(), files, order[:half])
	if len(acked) != half {
		t.Fatalf("healthy cluster acked %d/%d files", len(acked), half)
	}

	victim := tc.shards[0].ID
	tc.servers[0].Close()

	late, failed := putTracked(t, tc.clientConfig(), files, order[half:])
	acked = append(acked, late...)
	t.Logf("after kill: %d acked, %d failed of %d late puts", len(late), len(failed), len(order)-half)

	lost := verifyAcked(t, tc.clientConfig(), files, acked, r >= 2)
	if r >= 2 && len(lost) > 0 {
		t.Fatalf("R=%d lost %d acked files to a single shard death: %v", r, len(lost), lost)
	}

	// Operator response: drain the corpse, repair to full factor.
	if err := tc.gw.DrainShard(victim); err != nil {
		t.Fatal(err)
	}
	if rep, err := tc.gw.RepairScan(); err != nil {
		t.Fatalf("repair: %v (report %+v)", err, rep)
	}
	requireFullReplication(t, tc.gw)
	verifyAcked(t, tc.clientConfig(), files, survivors(acked, lost), true)
}

// cellKillRestore arms a tripwire on one shard's disk that kills its
// server the moment it serves chunk data, then restores everything: the
// first restore the victim serves dies mid-stream and must fail over.
func cellKillRestore(t *testing.T, r int, seed int64) {
	tc := startCluster(t, 4, func(c *cluster.GatewayConfig) { c.Replication = r })
	files, order := matrixFiles(t, tc, seed, 2, 1<<18)
	putAll(t, tc.clientConfig(), files, order)

	victim := tc.shards[0].ID
	var once sync.Once
	tc.engines[0].Disk().SetReadTransform(func(cat simdisk.Category, name string, data []byte) []byte {
		if cat == simdisk.Data {
			// Close from a goroutine: Close waits for connection handlers,
			// and this callback runs inside one.
			once.Do(func() { go tc.servers[0].Close() })
		}
		return data
	})

	lost := verifyAcked(t, tc.clientConfig(), files, order, r >= 2)
	if r >= 2 && len(lost) > 0 {
		t.Fatalf("R=%d lost %d files to a shard killed mid-restore: %v", r, len(lost), lost)
	}

	if err := tc.gw.DrainShard(victim); err != nil {
		t.Fatal(err)
	}
	if rep, err := tc.gw.RepairScan(); err != nil {
		t.Fatalf("repair: %v (report %+v)", err, rep)
	}
	requireFullReplication(t, tc.gw)
	// At R=1, a victim-homed file can restore in the pass above (the
	// tripwire fires on the victim's FIRST chunk read, which may come
	// after other victim files were served) and still be gone now, so
	// the post-repair pass stays error-or-correct below R=2.
	verifyAcked(t, tc.clientConfig(), files, survivors(order, lost), r >= 2)
}

// cellDrainRebalance rebalances a shard away while a second client is
// actively ingesting. Nothing dies, so even R=1 must lose nothing; the
// drained shard must end empty and a second pass must be a no-op.
func cellDrainRebalance(t *testing.T, r int, seed int64) {
	tc := startCluster(t, 4, func(c *cluster.GatewayConfig) { c.Replication = r })
	files, order := matrixFiles(t, tc, seed, 3, 1<<18)
	third := len(order) / 3

	putAll(t, tc.clientConfig(), files, order[:third])

	victim := tc.shards[0].ID
	done := make(chan []string)
	go func() {
		acked, _ := putTracked(t, tc.clientConfig(), files, order[third:2*third])
		done <- acked
	}()
	if _, err := tc.gw.RebalanceShard(victim); err != nil {
		t.Errorf("rebalance under live traffic: %v", err)
	}
	liveAcked := <-done
	if len(liveAcked) != third {
		t.Fatalf("puts during rebalance acked %d/%d — no shard died, none may fail", len(liveAcked), third)
	}

	// Catch any file that raced past the first listing, then prove
	// convergence: the next pass must find the shard empty.
	if _, err := tc.gw.RebalanceShard(victim); err != nil {
		t.Fatalf("second rebalance pass: %v", err)
	}
	rep, err := tc.gw.RebalanceShard(victim)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Files != 0 {
		t.Fatalf("rebalance did not converge: third pass still found %d files", rep.Files)
	}

	putAll(t, tc.clientConfig(), files, order[2*third:])
	verifyAcked(t, tc.clientConfig(), files, order, true)
	requireFullReplication(t, tc.gw)
}

// cellKillGateway closes the gateway after an acked batch, stands up a
// fresh gateway over the same shards, and requires the new one to serve
// every acked file and accept new writes — shard state, not gateway
// state, is the system of record.
func cellKillGateway(t *testing.T, r int, seed int64) {
	tc := startCluster(t, 4, func(c *cluster.GatewayConfig) { c.Replication = r })
	files, order := matrixFiles(t, tc, seed, 2, 1<<18)
	half := len(order) / 2
	putAll(t, tc.clientConfig(), files, order[:half])

	tc.gw.Close()

	gw2, cfg2 := tc.startGateway(t, func(c *cluster.GatewayConfig) { c.Replication = r })
	verifyAcked(t, cfg2, files, order[:half], true)
	putAll(t, cfg2, files, order[half:])
	verifyAcked(t, cfg2, files, order, true)
	requireFullReplication(t, gw2)
}

// cellCorruptReplica makes one shard's disk return flipped bits for
// every chunk read. Verified restores must fail over to a clean replica
// at R>=2 and must never return the corrupt bytes at any R; once the
// disk heals, everything restores everywhere.
func cellCorruptReplica(t *testing.T, r int, seed int64) {
	tc := startCluster(t, 4, func(c *cluster.GatewayConfig) { c.Replication = r })
	files, order := matrixFiles(t, tc, seed, 2, 1<<18)
	putAll(t, tc.clientConfig(), files, order)

	tc.engines[0].Disk().SetReadTransform(func(cat simdisk.Category, name string, data []byte) []byte {
		if cat != simdisk.Data || len(data) == 0 {
			return data
		}
		out := append([]byte(nil), data...)
		out[0] ^= 0xFF
		return out
	})

	lost := verifyAcked(t, tc.clientConfig(), files, order, r >= 2)
	if r >= 2 && len(lost) > 0 {
		t.Fatalf("R=%d lost %d files to one corrupt replica: %v", r, len(lost), lost)
	}

	// The disk heals (transient corruption): every file must come back,
	// and the cluster was never under-replicated — the data at rest was
	// always intact.
	tc.engines[0].Disk().SetReadTransform(nil)
	verifyAcked(t, tc.clientConfig(), files, order, true)
	requireFullReplication(t, tc.gw)
}

// cellRottedSource flips one stored bit in every container of one shard —
// rot at rest, which the shard's own plain reads cannot see — and then
// rebalances that shard away. A migration copies by verified restore, so
// rot never migrates: the pass fails loudly, naming a file, and the shard
// keeps every file whose copy does not verify. At R=1 no other shard may
// then hold such a file; at R>=2 a repair scan fills each new owner from a
// good holder, after which the next pass drops everything off the shard.
func cellRottedSource(t *testing.T, r int, seed int64) {
	tc := startCluster(t, 4, func(c *cluster.GatewayConfig) { c.Replication = r })
	files, order := matrixFiles(t, tc, seed, 2, 1<<19)
	putAll(t, tc.clientConfig(), files, order)

	victim := tc.engines[0].Disk()
	for _, c := range victim.Names(simdisk.Data) {
		if err := victim.FlipStoredBit(simdisk.Data, c, 12345); err != nil {
			t.Fatal(err)
		}
	}
	contract, _ := store.ContractOf(victim)
	verifier := store.NewVerifier(store.New(victim, contract.Format), store.VerifyOpts{})
	var held, rotted []string
	for _, name := range order {
		if !victim.Exists(simdisk.FileManifest, name) {
			continue
		}
		held = append(held, name)
		if verifier.RestoreFile(name, io.Discard) != nil {
			rotted = append(rotted, name)
		}
	}
	if len(rotted) == 0 {
		t.Fatalf("flipping a bit in every container of %s rotted none of its %d files", tc.shards[0].ID, len(held))
	}

	rep, err := tc.gw.RebalanceShard(tc.shards[0].ID)
	if err == nil {
		t.Fatalf("rebalance off a rotted shard succeeded: %+v", rep)
	}
	named := false
	for _, name := range rotted {
		named = named || strings.Contains(err.Error(), fmt.Sprintf("%q", name))
	}
	if !named {
		t.Fatalf("rebalance error names no rotted file: %v", err)
	}
	for _, name := range rotted {
		if !victim.Exists(simdisk.FileManifest, name) {
			t.Fatalf("rotted %s was dropped from its source", name)
		}
		for i := 1; r == 1 && i < len(tc.engines); i++ {
			if tc.engines[i].Disk().Exists(simdisk.FileManifest, name) {
				t.Fatalf("rotted %s was copied to %s", name, tc.shards[i].ID)
			}
		}
	}
	for i, srv := range tc.servers {
		if n := srv.SessionCount(); n != 0 {
			t.Fatalf("shard %s holds %d sessions after the failed migrations", tc.shards[i].ID, n)
		}
	}

	if r >= 2 {
		if rep, err := tc.gw.RepairScan(); err != nil {
			t.Fatalf("repair from the good holders: %v (report %+v)", err, rep)
		}
		requireFullReplication(t, tc.gw)
		rep, err := tc.gw.RebalanceShard(tc.shards[0].ID)
		if err != nil || rep.Migrated != 0 || rep.Dropped != len(held) {
			t.Fatalf("rebalance after repair: %v, %+v; want all %d files dropped, none migrated", err, rep, len(held))
		}
	}
	// Rot restores as an error, never as bytes: at R=1 a rotted file is
	// lost, at R>=2 every file restores from a good copy.
	lost := verifyAcked(t, tc.clientConfig(), files, order, r >= 2)
	if r == 1 && len(lost) != len(rotted) {
		t.Fatalf("R=1 lost %d files, %d of them rotted", len(lost), len(rotted))
	}
}

// survivors filters lost names out of acked.
func survivors(acked, lost []string) []string {
	if len(lost) == 0 {
		return acked
	}
	dead := make(map[string]bool, len(lost))
	for _, n := range lost {
		dead[n] = true
	}
	out := acked[:0:0]
	for _, n := range acked {
		if !dead[n] {
			out = append(out, n)
		}
	}
	return out
}
