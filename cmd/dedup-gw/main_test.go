package main

import (
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"mhdedup/internal/cluster"
)

func TestParseShards(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		want    []cluster.Shard
		wantErr string
	}{
		{spec: "", wantErr: "required"},
		{spec: "a=", wantErr: "bad shard spec"},
		{spec: "=b", wantErr: "bad shard spec"},
		{spec: "ab", wantErr: "bad shard spec"},
		{spec: "s0=h:1,", wantErr: "bad shard spec"},
		{spec: "s0=h:1", want: []cluster.Shard{{ID: "s0", Addr: "h:1"}}},
		{spec: " s0=h:1 ,\ts1=h:2 ", want: []cluster.Shard{{ID: "s0", Addr: "h:1"}, {ID: "s1", Addr: "h:2"}}},
	} {
		got, err := parseShards(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseShards(%q) = %v, %v; want a %q error", tc.spec, got, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseShards(%q) = %v, %v; want %v", tc.spec, got, err, tc.want)
		}
	}

	// parseShards does not judge membership; a repeated ID is the ring's
	// call, and the gateway must refuse to start over it.
	dup, err := parseShards("s0=h:1,s0=h:2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.NewGateway(cluster.GatewayConfig{Shards: dup}); err == nil ||
		!strings.Contains(err.Error(), "duplicate shard") {
		t.Fatalf("NewGateway over a duplicate shard ID = %v, want a duplicate-shard error", err)
	}
}

func TestLoadTenants(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		return p
	}

	if table, err := loadTenants(""); err != nil || table != nil {
		t.Fatalf("loadTenants(\"\") = %v, %v; want the open gateway's nil table", table, err)
	}
	if _, err := loadTenants(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("a missing tenants file loaded")
	}
	bad := write("bad.json", `{"acme": {"secret": `)
	if _, err := loadTenants(bad); err == nil || !strings.Contains(err.Error(), bad) {
		t.Fatalf("malformed tenants file = %v, want a parse error naming %s", err, bad)
	}
	table, err := loadTenants(write("ok.json", `{"acme":{"secret":"s1"},"initech":{"secret":"s2","quota_bytes":4096}}`))
	want := map[string]cluster.TenantAuth{
		"acme":    {Secret: "s1"},
		"initech": {Secret: "s2", QuotaBytes: 4096},
	}
	if err != nil || !reflect.DeepEqual(table, want) {
		t.Fatalf("loadTenants = %v, %v; want %v", table, err, want)
	}
}

// TestRunFailsOnOccupiedMetricsAddr: a taken -metrics-addr must stop the
// gateway with an error naming the address, not leave it routing without
// /healthz and the drain/rebalance/repair verbs.
func TestRunFailsOnOccupiedMetricsAddr(t *testing.T) {
	squatter, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer squatter.Close()
	// main's flag defaults, on an ephemeral data port; the shard is never
	// dialed because no client connects.
	o := options{
		addr:        "127.0.0.1:0",
		metricsAddr: squatter.Addr().String(),
		shards:      "s0=127.0.0.1:1",
		replication: 1,
		logLevel:    "error",
	}

	done := make(chan error, 1)
	go func() { done <- run(o) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), o.metricsAddr) {
			t.Fatalf("run = %v, want an error naming %s", err, o.metricsAddr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run is serving although its admin endpoint could not bind")
	}
}
