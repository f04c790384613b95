package server

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"mhdedup/internal/client"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/wire"
)

// putFiles ingests files through a client session.
func putFiles(t *testing.T, srv *Server, addr string, files map[string][]byte) {
	t.Helper()
	ing, err := client.Connect(clientConfig(srv, addr))
	if err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		if err := ing.PutFile(name, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}
}

// readRestoreStream reads one reply stream off a raw connection, checks
// every RestoreData frame against the frame bound and the stream against
// its RestoreEnd, and returns the bytes and the number of data frames.
func readRestoreStream(t *testing.T, read func() wire.Frame) ([]byte, int) {
	t.Helper()
	var got []byte
	frames := 0
	for {
		f := read()
		switch f.Type {
		case wire.TypeRestoreData:
			if len(f.Payload) > restoreFrameBytes+restoreDataOverhead {
				t.Fatalf("RestoreData payload of %d bytes, above the %d-byte frame bound", len(f.Payload), restoreFrameBytes+restoreDataOverhead)
			}
			rd, err := wire.UnmarshalRestoreData(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rd.Data...)
			frames++
		case wire.TypeRestoreEnd:
			end, err := wire.UnmarshalRestoreEnd(f.Payload)
			if err != nil {
				t.Fatal(err)
			}
			if end.TotalBytes != uint64(len(got)) || end.Sum != hashutil.SumBytes(got) {
				t.Fatalf("RestoreEnd declares %d bytes, stream carried %d (sum match %v)", end.TotalBytes, len(got), end.Sum == hashutil.SumBytes(got))
			}
			return got, frames
		default:
			t.Fatalf("unexpected %s in restore stream", wire.TypeName(f.Type))
		}
	}
}

// TestRestoreStreamIsBoundedFrames counts frames on a raw connection: a
// 3 MiB file restored plain, verified and as three ranges — five requests
// on one connection — arrives bit-identical in at least 40 RestoreData
// frames per pass, none above 64 KiB plus the length prefix, and the
// server's frame counter says the same.
func TestRestoreStreamIsBoundedFrames(t *testing.T) {
	srv, _, addr := startServer(t, nil)
	data := genData(71, 3<<20)
	putFiles(t, srv, addr, map[string][]byte{"img": data})
	_, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModeRestore}.Marshal())
	if f := read(); f.Type != wire.TypeHelloOK {
		t.Fatalf("handshake answered %s", wire.TypeName(f.Type))
	}

	total := 0
	for _, verify := range []bool{false, true} {
		write(wire.TypeRestoreReq, wire.RestoreReq{Name: "img", Verify: verify}.Marshal())
		got, frames := readRestoreStream(t, read)
		if !bytes.Equal(got, data) || frames < 40 {
			t.Fatalf("verify=%v: %d bytes in %d frames (identical %v), want all of them in ≥ 40", verify, len(got), frames, bytes.Equal(got, data))
		}
		total += frames
	}
	var joined []byte
	ranged := 0
	third := uint64(len(data) / 3)
	for i := uint64(0); i < 3; i++ {
		req := wire.RestoreRange{Name: "img", Offset: i * third, Length: third}
		if i == 2 {
			req.Length = wire.RestoreToEOF
		}
		write(wire.TypeRestoreRange, req.Marshal())
		got, frames := readRestoreStream(t, read)
		joined = append(joined, got...)
		ranged += frames
	}
	if !bytes.Equal(joined, data) || ranged < 40 {
		t.Fatalf("three ranges: %d bytes in %d frames (identical %v), want all of them in ≥ 40", len(joined), ranged, bytes.Equal(joined, data))
	}
	if counted := srv.cRestoreFrames.Load(); counted != int64(total+ranged) {
		t.Fatalf("server.restore.frames = %d, the connection carried %d", counted, total+ranged)
	}
}

// TestAbandonedRestoreStream: a client that reads one frame of a
// multi-frame restore and hangs up costs the server that connection and
// nothing else — the next ten restores are bit-identical, and the handler
// it abandoned is gone (a drain has nothing to wait for).
func TestAbandonedRestoreStream(t *testing.T) {
	srv, _, addr := startServer(t, nil)
	files := map[string][]byte{"big": genData(81, 16<<20)}
	for i := 0; i < 10; i++ {
		files[fmt.Sprintf("f%d", i)] = genData(int64(90+i), 200_000)
	}
	putFiles(t, srv, addr, files)

	c, write, read := rawConn(t, addr)
	write(wire.TypeHello, wire.Hello{Mode: wire.ModeRestore}.Marshal())
	read() // HelloOK
	write(wire.TypeRestoreReq, wire.RestoreReq{Name: "big"}.Marshal())
	if f := read(); f.Type != wire.TypeRestoreData {
		t.Fatalf("first reply frame is %s", wire.TypeName(f.Type))
	}
	c.Close()

	for i := 0; i < 10; i++ {
		name := fmt.Sprintf("f%d", i)
		var got bytes.Buffer
		if _, err := client.Restore(clientConfig(srv, addr), name, i%2 == 1, &got); err != nil || !bytes.Equal(got.Bytes(), files[name]) {
			t.Fatalf("restore %s after an abandoned stream: err %v, identical %v", name, err, bytes.Equal(got.Bytes(), files[name]))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain after an abandoned stream: %v", err)
	}
}
