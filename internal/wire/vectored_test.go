package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"testing"
)

// framed is one frame's type and payload.
type framed struct {
	t       uint8
	payload []byte
}

// differentialPayloads is every golden message's payload plus the sizes the
// table does not reach: empty, one byte, and 1 MiB.
func differentialPayloads() []framed {
	var out []framed
	for _, tc := range sampleMessages() {
		out = append(out, framed{tc.t, tc.msg.Marshal()})
	}
	big := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(big)
	return append(out, framed{TypeListReq, nil}, framed{TypeRestoreData, []byte{0x5A}}, framed{TypeRestoreData, big})
}

// cutPoints returns the split offsets tried for an n-byte payload: every
// one for a small payload, the seven-way boundaries and both edges' inner
// neighbours for a large one (a 1 MiB payload is written a few dozen times,
// not a million).
func cutPoints(n int) []int {
	if n <= 48 {
		pts := make([]int, 0, n+1)
		for i := 0; i <= n; i++ {
			pts = append(pts, i)
		}
		return pts
	}
	pts := []int{0, 1}
	for k := 1; k < 7; k++ {
		pts = append(pts, n*k/7)
	}
	return append(pts, n-1, n)
}

// splits returns payload cut into one, two and three parts at cutPoints.
func splits(payload []byte) [][][]byte {
	out := [][][]byte{{payload}}
	pts := cutPoints(len(payload))
	for i, a := range pts {
		out = append(out, [][]byte{payload[:a], payload[a:]})
		for _, b := range pts[i:] {
			out = append(out, [][]byte{payload[:a], payload[a:b], payload[b:]})
		}
	}
	return out
}

// transports are the writers a frame is written through: an in-memory
// buffer, a synchronous pipe (one Write per piece, each a rendezvous) and a
// loopback TCP connection (writev). collect returns the n bytes of the
// write in progress; written is closed when that write has returned.
type transport struct {
	name    string
	w       io.Writer
	collect func(n int, written <-chan struct{}) ([]byte, error)
}

func openTransports(t *testing.T) []transport {
	t.Helper()
	var buf bytes.Buffer
	fromConn := func(r net.Conn) func(int, <-chan struct{}) ([]byte, error) {
		return func(n int, _ <-chan struct{}) ([]byte, error) {
			got := make([]byte, n)
			_, err := io.ReadFull(r, got)
			return got, err
		}
	}
	pw, pr := net.Pipe()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pw.Close(); pr.Close(); tw.Close(); tr.Close() })
	return []transport{
		{"bytes.Buffer", &buf, func(_ int, written <-chan struct{}) ([]byte, error) {
			<-written
			got := append([]byte(nil), buf.Bytes()...)
			buf.Reset()
			return got, nil
		}},
		{"net.Pipe", pw, fromConn(pr)},
		{"tcp", tw, fromConn(tr)},
	}
}

// TestWriteFrameMatchesAppendFrame is the wire differential: however the
// payload is split into parts and whatever carries it, the vectored
// WriteFrame puts on the wire exactly the bytes AppendFrame assembles —
// the encoder every earlier version of the protocol shipped — and reports
// their count.
func TestWriteFrameMatchesAppendFrame(t *testing.T) {
	if Version != 3 {
		t.Fatalf("wire.Version = %d: frame bytes changed without a version this test knows", Version)
	}
	for _, tr := range openTransports(t) {
		for _, tc := range differentialPayloads() {
			want := AppendFrame(nil, tc.t, tc.payload)
			for _, parts := range splits(tc.payload) {
				type result struct {
					n   int
					err error
				}
				wrote, written := make(chan result, 1), make(chan struct{})
				go func() {
					n, err := WriteFrame(tr.w, tc.t, parts...)
					wrote <- result{n, err}
					close(written)
				}()
				got, rerr := tr.collect(len(want), written)
				res := <-wrote
				if res.err != nil || rerr != nil {
					t.Fatalf("%s %s: write err %v, read err %v", tr.name, TypeName(tc.t), res.err, rerr)
				}
				if res.n != len(want) {
					t.Fatalf("%s %s: WriteFrame reported %d wire bytes, want %d", tr.name, TypeName(tc.t), res.n, len(want))
				}
				if !bytes.Equal(got, want) {
					lens := make([]int, len(parts))
					for i, p := range parts {
						lens[i] = len(p)
					}
					t.Fatalf("%s %s: parts %v: wire bytes differ from AppendFrame's", tr.name, TypeName(tc.t), lens)
				}
			}
		}
	}
}

// TestRestoreDataPartsIsMarshal: the two-part encoding the restore plane
// writes is the payload Marshal builds.
func TestRestoreDataPartsIsMarshal(t *testing.T) {
	for _, data := range [][]byte{nil, {7}, bytes.Repeat([]byte("ab"), 40000)} {
		rd := RestoreData{Data: data}
		var prefix [4]byte
		head, body := rd.Parts(&prefix)
		if got := append(append([]byte(nil), head...), body...); !bytes.Equal(got, rd.Marshal()) {
			t.Fatalf("%d data bytes: Parts differs from Marshal", len(data))
		}
	}
}

// streamRead is ReadFrameInto over a buffer that already held another
// frame, the way a connection's stream buffer does.
func streamRead(raw []byte, maxPayload uint32) (Frame, []byte, error) {
	buf := bytes.Repeat([]byte{0xEE}, 64)
	return ReadFrameInto(bytes.NewReader(raw), maxPayload, &buf)
}

// TestStreamReadMatchesReadFrame holds ReadFrameInto to ReadFrame: the same
// frame for the same input, the raw bytes as they arrived, and the same
// error for every corrupt, oversized and truncated input ReadFrame's own
// tests use.
func TestStreamReadMatchesReadFrame(t *testing.T) {
	for _, tc := range differentialPayloads() {
		raw := AppendFrame(nil, tc.t, tc.payload)
		want, err := ReadFrame(bytes.NewReader(raw), 0)
		if err != nil {
			t.Fatal(err)
		}
		got, gotRaw, err := streamRead(raw, 0)
		if err != nil || got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("%s: stream read %v, differs from ReadFrame", TypeName(tc.t), err)
		}
		if !bytes.Equal(gotRaw, raw) {
			t.Fatalf("%s: raw differs from the bytes read", TypeName(tc.t))
		}
	}

	sameErr := func(what string, raw []byte, maxPayload uint32) {
		t.Helper()
		_, want := ReadFrame(bytes.NewReader(raw), maxPayload)
		_, gotRaw, got := streamRead(raw, maxPayload)
		if want == nil || got == nil || got.Error() != want.Error() || gotRaw != nil {
			t.Errorf("%s: stream read gave %v (raw %d bytes), ReadFrame %v", what, got, len(gotRaw), want)
		}
		for _, sentinel := range []error{ErrBadMagic, ErrBadVersion, ErrBadFlags, ErrTooLarge, ErrBadCRC, io.ErrUnexpectedEOF, io.EOF} {
			if errors.Is(got, sentinel) != errors.Is(want, sentinel) {
				t.Errorf("%s: stream read %v and ReadFrame %v disagree on %v", what, got, want, sentinel)
			}
		}
	}
	base, cases := corruptionCases()
	for _, tc := range cases {
		sameErr(tc.name, tc.mutate(append([]byte(nil), base...)), 0)
	}
	big := AppendFrame(nil, TypeRestoreData, RestoreData{Data: make([]byte, 1000)}.Marshal())
	sameErr("over the cap", big, 64)
	for cut := 0; cut < len(base); cut++ {
		sameErr(fmt.Sprintf("truncated at %d", cut), base[:cut], 0)
	}
}

// TestStreamReadAllocatesWithinCap: a hostile length field is refused from
// the header, before the buffer grows; an honest one grows it to the frame
// and no further, and the next frame that fits reuses it.
func TestStreamReadAllocatesWithinCap(t *testing.T) {
	const maxPayload = 1 << 20
	hostile := AppendFrame(nil, TypeRestoreData, nil)
	hostile[8], hostile[9], hostile[10], hostile[11] = 0xFF, 0xFF, 0xFF, 0xFF
	var buf []byte
	if _, _, err := ReadFrameInto(bytes.NewReader(hostile), maxPayload, &buf); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("hostile length: %v, want ErrTooLarge", err)
	}
	if cap(buf) > HeaderSize+TrailerSize {
		t.Fatalf("a refused header grew the buffer to %d bytes", cap(buf))
	}
	// A length inside the cap on a stream that never delivers it.
	lying := AppendFrame(nil, TypeRestoreData, nil)
	lying[8], lying[9], lying[10], lying[11] = 0x00, 0x10, 0x00, 0x00 // 1 MiB, the cap
	if _, _, err := ReadFrameInto(bytes.NewReader(lying), maxPayload, &buf); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("undelivered payload: %v, want ErrUnexpectedEOF", err)
	}
	if limit := HeaderSize + maxPayload + TrailerSize; cap(buf) > limit {
		t.Fatalf("buffer grew to %d bytes, above header + cap + trailer = %d", cap(buf), limit)
	}
	held := cap(buf)
	small := AppendFrame(nil, TypeAck, Ack{Seq: 1}.Marshal())
	if _, _, err := ReadFrameInto(bytes.NewReader(small), maxPayload, &buf); err != nil || cap(buf) != held {
		t.Fatalf("a frame that fits: err %v, buffer %d → %d bytes (want it reused)", err, held, cap(buf))
	}
}
