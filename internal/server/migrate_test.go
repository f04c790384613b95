package server

import (
	"bytes"
	"errors"
	"testing"

	"mhdedup/internal/client"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/wire"
)

// peerConn opens a ModePeer connection against a started server.
func peerConn(t *testing.T, addr string) (func(uint8, []byte), func() wire.Frame) {
	t.Helper()
	_, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModePeer}.Marshal())
	if f := read(); f.Type != wire.TypeHelloOK {
		t.Fatalf("expected HelloOK, got %s", wire.TypeName(f.Type))
	}
	return write, read
}

// TestPeerMigrateProtocol: frame types 22–25 carried the byte-stream
// migration, which is gone — a migration is an ingest session. A shard
// refuses each of them on a peer connection as a protocol error, whatever
// the payload, and commits nothing.
func TestPeerMigrateProtocol(t *testing.T) {
	_, eng, addr := startServer(t, nil)
	for retired := uint8(22); retired <= 25; retired++ {
		write, read := peerConn(t, addr)
		write(retired, []byte("acme/m00/disk.img"))
		expectError(t, read(), wire.CodeProtocol, false)
	}
	if names := eng.Disk().Names(simdisk.FileManifest); len(names) != 0 {
		t.Fatalf("retired frames committed %v", names)
	}
}

// TestPeerFileDropAndStat: FileDrop removes the manifest (idempotently —
// dropping an absent name is success), and FileStat answers presence for
// a batch of names in order.
func TestPeerFileDropAndStat(t *testing.T) {
	srv, eng, addr := startServer(t, nil)
	write, read := peerConn(t, addr)

	const name = "acme/m00/drop.img"
	putFiles(t, srv, addr, map[string][]byte{name: genData(13, 128<<10)})

	stat := func(names ...string) []bool {
		t.Helper()
		write(wire.TypeFileStat, wire.FileStat{Names: names}.Marshal())
		f := read()
		if f.Type != wire.TypeFileStatOK {
			t.Fatalf("expected FileStatOK, got %s", wire.TypeName(f.Type))
		}
		ok, err := wire.UnmarshalFileStatOK(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(ok.Present) != len(names) {
			t.Fatalf("stat of %d names answered %d bits", len(names), len(ok.Present))
		}
		return ok.Present
	}

	if got := stat(name, "acme/never-existed"); !got[0] || got[1] {
		t.Fatalf("stat before drop: %v", got)
	}

	drop := func() {
		t.Helper()
		write(wire.TypeFileDrop, wire.FileDrop{Name: name}.Marshal())
		if f := read(); f.Type != wire.TypeFileDropOK {
			t.Fatalf("expected FileDropOK, got %s", wire.TypeName(f.Type))
		}
	}
	drop()
	if eng.Disk().Exists(simdisk.FileManifest, name) {
		t.Fatal("manifest survived FileDrop")
	}
	if got := stat(name); got[0] {
		t.Fatal("dropped file still reported present")
	}
	drop() // second drop of the same name: idempotent success
}

// failingReader returns its data up to the failure point, then err.
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

// TestPutFileReadFailureFreesSession: a PutFile whose reader fails halfway
// returns the read error, and the Close after it still closes in order —
// the server abandons the half-fed file, commits nothing under the name
// and frees the session at once, not after ResumeTimeout. The same name
// then puts cleanly on a new session.
func TestPutFileReadFailureFreesSession(t *testing.T) {
	srv, eng, addr := startServer(t, nil)
	data := genData(14, 1<<20+300<<10)
	broken := errors.New("disk unreadable")
	ing, err := client.Connect(clientConfig(srv, addr))
	if err != nil {
		t.Fatal(err)
	}
	if err := ing.PutFile("half", &failingReader{data: data[:len(data)/2], err: broken}); !errors.Is(err, broken) {
		t.Fatalf("PutFile = %v, want the reader's error", err)
	}
	ing.Close()
	if n := srv.SessionCount(); n != 0 {
		t.Fatalf("%d sessions after Close of a session whose file failed to read", n)
	}
	if eng.Disk().Exists(simdisk.FileManifest, "half") {
		t.Fatal("a file whose reader failed was committed")
	}
	putFiles(t, srv, addr, map[string][]byte{"half": data})
	var got bytes.Buffer
	if err := eng.Restore("half", &got); err != nil || !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("re-put after the failed read restores %d bytes, %v", got.Len(), err)
	}
}
