package server

import (
	"bytes"
	"reflect"
	"testing"

	"mhdedup/internal/client"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/wire"
)

// TestTenantNamespaceIsolation backs up the same client-visible name as
// two tenants and checks that each tenant lists and restores only its own
// bytes, while the root namespace sees the prefixed store layout.
func TestTenantNamespaceIsolation(t *testing.T) {
	srv, _, addr := startServer(t, nil)
	dataA := genData(11, 1<<19)
	dataB := genData(22, 1<<19)

	for _, tc := range []struct {
		tenant string
		data   []byte
	}{{"acme", dataA}, {"beta", dataB}} {
		cfg := clientConfig(srv, addr)
		cfg.Tenant = tc.tenant
		ing, err := client.Connect(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := ing.PutFile("img", bytes.NewReader(tc.data)); err != nil {
			t.Fatal(err)
		}
		if err := ing.Close(); err != nil {
			t.Fatal(err)
		}
	}

	for _, tc := range []struct {
		tenant string
		want   []string
	}{
		{"acme", []string{"img"}},
		{"beta", []string{"img"}},
		{"", []string{"acme/img", "beta/img"}}, // root sees the raw layout
	} {
		cfg := clientConfig(srv, addr)
		cfg.Tenant = tc.tenant
		names, err := client.List(cfg)
		if err != nil {
			t.Fatalf("list as %q: %v", tc.tenant, err)
		}
		if !reflect.DeepEqual(names, tc.want) {
			t.Fatalf("list as %q = %v, want %v", tc.tenant, names, tc.want)
		}
	}

	for _, tc := range []struct {
		tenant string
		data   []byte
	}{{"acme", dataA}, {"beta", dataB}} {
		cfg := clientConfig(srv, addr)
		cfg.Tenant = tc.tenant
		var out bytes.Buffer
		if _, err := client.Restore(cfg, "img", true, &out); err != nil {
			t.Fatalf("restore as %q: %v", tc.tenant, err)
		}
		if !bytes.Equal(out.Bytes(), tc.data) {
			t.Fatalf("restore as %q returned the wrong tenant's bytes", tc.tenant)
		}
	}

	// A tenant cannot reach another tenant's file through the raw stored
	// name: the request is re-namespaced, so the name simply doesn't exist.
	cfg := clientConfig(srv, addr)
	cfg.Tenant = "acme"
	var out bytes.Buffer
	if _, err := client.Restore(cfg, "beta/img", false, &out); err == nil {
		t.Fatal("cross-tenant restore by raw name succeeded")
	}
}

func TestInvalidTenantRejected(t *testing.T) {
	_, _, addr := startServer(t, nil)
	_, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, Tenant: "a/b"}.Marshal())
	expectError(t, read(), wire.CodeHandshake, false)
}

// TestResumeCannotCrossTenants: a resume token obtained by one tenant is
// dead in another tenant's hands, indistinguishable from an expired one.
func TestResumeCannotCrossTenants(t *testing.T) {
	_, _, addr := startServer(t, nil)
	_, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, Tenant: "acme"}.Marshal())
	f := read()
	if f.Type != wire.TypeHelloOK {
		t.Fatalf("expected HelloOK, got %s", wire.TypeName(f.Type))
	}
	ok, err := wire.UnmarshalHelloOK(f.Payload)
	if err != nil {
		t.Fatal(err)
	}

	_, write2, read2 := rawConn(t, addr)
	write2(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, ResumeToken: ok.SessionToken, Tenant: "beta"}.Marshal())
	expectError(t, read2(), wire.CodeNotFound, false)
}

// TestPeerPlane drives the gateway-facing sub-protocol by hand: PeerPut
// seeds the shard's chunk cache, PeerFetch returns exactly the subset it
// holds (by re-hashed address), and a size mismatch reads as a miss.
func TestPeerPlane(t *testing.T) {
	_, _, addr := startServer(t, nil)
	_, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModePeer}.Marshal())
	if f := read(); f.Type != wire.TypeHelloOK {
		t.Fatalf("expected HelloOK, got %s", wire.TypeName(f.Type))
	}

	chunk := genData(3, 8192)
	h := hashutil.SumBytes(chunk)

	// Cold fetch: a miss is an empty (not absent) reply.
	fetch := wire.PeerFetch{Entries: []wire.OfferEntry{{Hash: h, Size: uint32(len(chunk))}}}
	write(wire.TypePeerFetch, fetch.Marshal())
	f := read()
	if f.Type != wire.TypePeerChunks {
		t.Fatalf("expected PeerChunks, got %s", wire.TypeName(f.Type))
	}
	pc, err := wire.UnmarshalPeerChunks(f.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.Indices) != 0 {
		t.Fatalf("cold cache served %d chunks", len(pc.Indices))
	}

	write(wire.TypePeerPut, wire.PeerPut{Chunks: [][]byte{chunk}}.Marshal())
	if f := read(); f.Type != wire.TypePeerPutOK {
		t.Fatalf("expected PeerPutOK, got %s", wire.TypeName(f.Type))
	}

	write(wire.TypePeerFetch, fetch.Marshal())
	pc, err = wire.UnmarshalPeerChunks(read().Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.Indices) != 1 || pc.Indices[0] != 0 || !bytes.Equal(pc.Chunks[0], chunk) {
		t.Fatalf("warm fetch did not return the seeded chunk")
	}

	// Same hash offered with the wrong size must read as a miss, not a
	// wrong-sized hit.
	bad := wire.PeerFetch{Entries: []wire.OfferEntry{{Hash: h, Size: uint32(len(chunk)) - 1}}}
	write(wire.TypePeerFetch, bad.Marshal())
	pc, err = wire.UnmarshalPeerChunks(read().Payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.Indices) != 0 {
		t.Fatal("size-mismatched fetch served a chunk")
	}

	write(wire.TypeClose, nil)
	if f := read(); f.Type != wire.TypeCloseOK {
		t.Fatalf("expected CloseOK, got %s", wire.TypeName(f.Type))
	}
}
