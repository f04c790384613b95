package main

import (
	"testing"
	"time"
)

// TestSoakKillShardRepairs runs the churn harness small: three shards at
// R=2, one killed and drained halfway, then the repair scan, the
// replication check and the final verification of every acked file.
func TestSoakKillShardRepairs(t *testing.T) {
	err := run(options{
		duration:       3 * time.Second,
		shards:         3,
		replication:    2,
		killShard:      true,
		clients:        2,
		fileSize:       64 << 10,
		filesPerClient: 4,
		seed:           1,
		killPercent:    25,
		maxHeapMB:      1024,
		logLevel:       "error",
	})
	if err != nil {
		t.Fatal(err)
	}
}
