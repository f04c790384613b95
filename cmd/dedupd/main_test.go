package main

import (
	"bytes"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mhdedup/internal/events"
)

// testOptions mirrors main's flag defaults on ephemeral ports, in-memory.
func testOptions() options {
	return options{
		addr:               "127.0.0.1:0",
		algo:               "mhd",
		ecs:                4096,
		sd:                 64,
		cache:              64,
		maxSessions:        4,
		window:             8,
		chunkCache:         1 << 20,
		restoreWorkers:     4,
		restoreWindow:      8 << 20,
		idleTimeout:        2 * time.Minute,
		resumeTimeout:      2 * time.Minute,
		drainTimeout:       time.Minute,
		logLevel:           "error",
		slowOp:             100 * time.Millisecond,
		checkpointInterval: 30 * time.Second,
		logFlushInterval:   200 * time.Millisecond,
		compactLogBytes:    64 << 20,
		shedPendingBytes:   32 << 20,
	}
}

func quietEvents() *events.Log { return events.New(events.Options{Level: events.LevelError}) }

func TestBuildEngineRefusesUnservableAlgo(t *testing.T) {
	o := testOptions()
	o.algo = "cdc"
	o.storeDir = filepath.Join(t.TempDir(), "store")
	_, _, _, err := buildEngine(o, quietEvents())
	if err == nil || !strings.Contains(err.Error(), "not servable") {
		t.Fatalf("buildEngine(-algo cdc) = %v, want a \"not servable\" error", err)
	}
	if _, statErr := os.Stat(o.storeDir); statErr == nil {
		t.Fatal("a refused algorithm still created the store directory")
	}
}

func TestBuildEngineInMemory(t *testing.T) {
	eng, dur, resumed, err := buildEngine(testOptions(), quietEvents())
	if err != nil {
		t.Fatal(err)
	}
	if eng == nil || dur != nil || resumed {
		t.Fatalf("-store \"\": engine %v, durability %v, resumed %v; want an engine, no durability, not resumed",
			eng != nil, dur != nil, resumed)
	}
}

// TestBuildEngineMountsStore pins the resumed flag on both sides: an absent
// directory is a fresh store, and the same directory mounted again is a
// resumed one that still holds what was committed into it.
func TestBuildEngineMountsStore(t *testing.T) {
	o := testOptions()
	o.storeDir = filepath.Join(t.TempDir(), "store")
	data := make([]byte, 200_000)
	rand.New(rand.NewSource(3)).Read(data)

	eng, dur, resumed, err := buildEngine(o, quietEvents())
	if err != nil {
		t.Fatal(err)
	}
	if dur == nil || resumed {
		t.Fatalf("absent dir: durability %v, resumed %v; want a durable fresh store", dur != nil, resumed)
	}
	if err := eng.PutFile("img", bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := dur.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := dur.Close(); err != nil {
		t.Fatal(err)
	}

	eng2, dur2, resumed, err := buildEngine(o, quietEvents())
	if err != nil {
		t.Fatal(err)
	}
	defer dur2.Close()
	if !resumed {
		t.Fatal("existing dir mounted with resumed=false")
	}
	var got bytes.Buffer
	if err := eng2.Restore("img", &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatal("resumed store restores different bytes")
	}
}

func TestRunRejectsBadLogLevelBeforeOpening(t *testing.T) {
	o := testOptions()
	o.logLevel = "loud"
	o.storeDir = filepath.Join(t.TempDir(), "store")
	if err := run(o); err == nil || !strings.Contains(err.Error(), "loud") {
		t.Fatalf("run(-log-level loud) = %v, want an unknown-level error", err)
	}
	if _, err := os.Stat(o.storeDir); err == nil {
		t.Fatal("run opened the store before validating -log-level")
	}
}

// TestRunFailsOnOccupiedMetricsAddr: a taken -metrics-addr must stop the
// daemon with an error naming the address, not leave it serving without
// /healthz and /metrics.json.
func TestRunFailsOnOccupiedMetricsAddr(t *testing.T) {
	squatter, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()
	o := testOptions()
	o.metricsAddr = squatter.Addr().String()

	done := make(chan error, 1)
	go func() { done <- run(o) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), o.metricsAddr) {
			t.Fatalf("run = %v, want an error naming %s", err, o.metricsAddr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run is serving although its debug endpoint could not bind")
	}
}
