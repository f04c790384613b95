package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"testing"

	"mhdedup/internal/hashutil"
)

// sampleMessages returns one instance of every typed message, paired with
// its frame type, for round-trip coverage.
func sampleMessages() []struct {
	t   uint8
	msg interface{ Marshal() []byte }
} {
	h1 := hashutil.SumString("one")
	h2 := hashutil.SumString("two")
	return []struct {
		t   uint8
		msg interface{ Marshal() []byte }
	}{
		{TypeHello, Hello{Mode: ModeIngest, ResumeToken: 77, Tenant: "acme", Secret: "s3cret"}},
		{TypeHelloOK, HelloOK{SessionToken: 42, Window: 8, MaxPayload: 1 << 20, LastApplied: 13,
			Options: EngineOptions{Algorithm: "mhd", ECS: 4096, FastCDC: true, Poly: 0x3DA3358B4DC173}}},
		{TypeError, ErrorMsg{Code: CodeBusy, Retryable: true, Msg: "too many sessions", RetryAfterMs: 1500}},
		{TypeFileBegin, FileBegin{Seq: 9, Name: "m00/d01"}},
		{TypeOffer, Offer{Seq: 10, Entries: []OfferEntry{{Hash: h1, Size: 4096}, {Hash: h2, Size: 123}}}},
		{TypeNeed, Need{Seq: 10, Indices: []uint32{0, 5, 7}}},
		{TypeChunkData, ChunkData{Seq: 10, Start: 1, Chunks: [][]byte{[]byte("abc"), {}, []byte("defg")}}},
		{TypeFileEnd, FileEnd{Seq: 11, TotalBytes: 1 << 30, Sum: h1}},
		{TypeAck, Ack{Seq: 11}},
		{TypeRestoreReq, RestoreReq{Name: "m00/d01", Verify: true}},
		{TypeRestoreRange, RestoreRange{Name: "m00/d01", Verify: true, Offset: 1 << 20, Length: RestoreToEOF}},
		{TypeRestoreData, RestoreData{Data: []byte("hello bytes")}},
		{TypeRestoreEnd, RestoreEnd{TotalBytes: 999, Sum: h2}},
		{TypeListResp, ListResp{Names: []string{"a", "b/c", ""}}},
		{TypePeerFetch, PeerFetch{Entries: []OfferEntry{{Hash: h1, Size: 4096}, {Hash: h2, Size: 7}}}},
		{TypePeerChunks, PeerChunks{Indices: []uint32{0, 2}, Chunks: [][]byte{[]byte("abc"), []byte("xyz1")}}},
		{TypePeerPut, PeerPut{Chunks: [][]byte{[]byte("chunk bytes"), {}}}},
		{TypeFileDrop, FileDrop{Name: "acme/m00/d01"}},
		{TypeFileStat, FileStat{Names: []string{"acme/a", "b"}}},
		{TypeFileStatOK, FileStatOK{Present: []bool{true, false}}},
	}
}

func TestMessageRoundTrip(t *testing.T) {
	for _, tc := range sampleMessages() {
		payload := tc.msg.Marshal()
		got, err := UnmarshalAny(Frame{Type: tc.t, Payload: payload})
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", TypeName(tc.t), err)
		}
		// Normalize: decoded [][]byte/[]byte fields may alias vs own, and
		// empty slices may decode as empty-non-nil; compare via re-encode.
		reenc := got.(interface{ Marshal() []byte }).Marshal()
		if !bytes.Equal(reenc, payload) {
			t.Fatalf("%s: re-encode mismatch:\n got %x\nwant %x", TypeName(tc.t), reenc, payload)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	for _, tc := range sampleMessages() {
		if _, err := WriteFrame(&buf, tc.t, tc.msg.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
	// Bare frames too.
	if _, err := WriteFrame(&buf, TypeListReq, nil); err != nil {
		t.Fatal(err)
	}
	for _, tc := range sampleMessages() {
		f, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("%s: read: %v", TypeName(tc.t), err)
		}
		if f.Type != tc.t {
			t.Fatalf("type: got %d want %d", f.Type, tc.t)
		}
		if !bytes.Equal(f.Payload, tc.msg.Marshal()) {
			t.Fatalf("%s: payload mismatch", TypeName(tc.t))
		}
	}
	f, err := ReadFrame(&buf, 0)
	if err != nil || f.Type != TypeListReq || len(f.Payload) != 0 {
		t.Fatalf("bare frame: %+v err=%v", f, err)
	}
	if _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("expected EOF at stream end, got %v", err)
	}
}

func TestWriteFrameReportsWireBytes(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("0123456789")
	n, err := WriteFrame(&buf, TypeRestoreData, payload)
	if err != nil {
		t.Fatal(err)
	}
	if want := HeaderSize + len(payload) + TrailerSize; n != want || buf.Len() != want {
		t.Fatalf("wire bytes: n=%d buf=%d want %d", n, buf.Len(), want)
	}
}

// corruptCase is one single-fault mutation of a good frame and the error
// every frame reader must give for it.
type corruptCase struct {
	name   string
	mutate func([]byte) []byte
	want   error
}

func corruptionCases() (base []byte, cases []corruptCase) {
	base = AppendFrame(nil, TypeAck, Ack{Seq: 5}.Marshal())
	cases = []corruptCase{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrBadMagic},
		{"bad version", func(b []byte) []byte { b[4] = 99; return b }, ErrBadVersion},
		// A well-formed frame from a version-1 peer, CRC and all: its
		// FileEnd.Sum would mean something else, so it fails closed here.
		{"version 1", func(b []byte) []byte {
			b[4] = 1
			binary.BigEndian.PutUint32(b[len(b)-TrailerSize:], crc32.ChecksumIEEE(b[4:len(b)-TrailerSize]))
			return b
		}, ErrBadVersion},
		{"reserved flags", func(b []byte) []byte { b[6] = 1; return b }, ErrBadFlags},
		{"payload bit flip", func(b []byte) []byte { b[HeaderSize] ^= 0x01; return b }, ErrBadCRC},
		{"crc bit flip", func(b []byte) []byte { b[len(b)-1] ^= 0x80; return b }, ErrBadCRC},
		{"type bit flip", func(b []byte) []byte { b[5] ^= 0x02; return b }, ErrBadCRC},
	}
	return base, cases
}

func TestReadFrameRejectsCorruption(t *testing.T) {
	base, cases := corruptionCases()
	for _, tc := range cases {
		raw := tc.mutate(append([]byte(nil), base...))
		if _, err := ReadFrame(bytes.NewReader(raw), 0); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		if _, err := Decode(raw, 0); !errors.Is(err, tc.want) {
			t.Errorf("%s (Decode): got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestVersion2FrameRefused: a version-2 peer — whose Hello offered engine
// options and whose HelloOK announced none — fails closed on its first
// frame, on both read paths, however well-formed that frame is.
func TestVersion2FrameRefused(t *testing.T) {
	v2Hello, _ := hex.DecodeString("0100036d686400001000000000400001000000000000004d000461636d650006733363726574")
	raw := AppendFrame(nil, TypeHello, v2Hello)
	raw[4] = 2
	body := raw[:len(raw)-TrailerSize]
	binary.BigEndian.PutUint32(raw[len(body):], crc32.ChecksumIEEE(body[4:]))
	if _, err := ReadFrame(bytes.NewReader(raw), 0); !errors.Is(err, ErrBadVersion) {
		t.Errorf("ReadFrame: got %v, want ErrBadVersion", err)
	}
	if _, err := Decode(raw, 0); !errors.Is(err, ErrBadVersion) {
		t.Errorf("Decode: got %v, want ErrBadVersion", err)
	}
}

func TestReadFrameEnforcesPayloadCap(t *testing.T) {
	raw := AppendFrame(nil, TypeRestoreData, RestoreData{Data: make([]byte, 1000)}.Marshal())
	if _, err := ReadFrame(bytes.NewReader(raw), 64); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
	// The cap must be enforced from the header alone — a stream that lies
	// about a huge payload is rejected without reading it.
	var hdr [HeaderSize]byte
	copy(hdr[:], raw[:HeaderSize])
	hdr[8], hdr[9], hdr[10], hdr[11] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), 1<<20); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("header-only oversized frame: got %v, want ErrTooLarge", err)
	}
}

func TestReadFrameTruncation(t *testing.T) {
	raw := AppendFrame(nil, TypeFileBegin, FileBegin{Seq: 1, Name: "x"}.Marshal())
	for cut := 1; cut < len(raw); cut++ {
		_, err := ReadFrame(bytes.NewReader(raw[:cut]), 0)
		if err == nil {
			t.Fatalf("truncated at %d: expected error", cut)
		}
		if _, err := Decode(raw[:cut], 0); err == nil {
			t.Fatalf("Decode truncated at %d: expected error", cut)
		}
	}
	// Trailing garbage after a full frame is fine for ReadFrame (next
	// frame's bytes) but an error for the one-frame Decode.
	if _, err := Decode(append(append([]byte(nil), raw...), 0xAA), 0); err == nil {
		t.Fatal("Decode with trailing byte: expected error")
	}
}

func TestMessageDecodersRejectTrailingBytes(t *testing.T) {
	for _, tc := range sampleMessages() {
		payload := append(tc.msg.Marshal(), 0x00)
		if _, err := UnmarshalAny(Frame{Type: tc.t, Payload: payload}); err == nil {
			t.Errorf("%s: trailing byte accepted", TypeName(tc.t))
		}
	}
}

func TestMessageDecodersRejectTruncation(t *testing.T) {
	for _, tc := range sampleMessages() {
		full := tc.msg.Marshal()
		for cut := 0; cut < len(full); cut++ {
			if _, err := UnmarshalAny(Frame{Type: tc.t, Payload: full[:cut]}); err == nil {
				t.Errorf("%s: truncation at %d accepted", TypeName(tc.t), cut)
				break
			}
		}
	}
}

// Append-style encoders for hand-built payloads, hostile ones above all.
func putU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func putU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func putBlob(b, p []byte) []byte       { return append(putU32(b, uint32(len(p))), p...) }

func TestHostileCountsDoNotAllocate(t *testing.T) {
	// An Offer claiming 2^16 entries with a near-empty payload must fail
	// before allocating room for them.
	p := putU64(nil, 1)
	p = putU32(p, MaxBatchChunks)
	if _, err := UnmarshalOffer(p); err == nil {
		t.Fatal("hostile offer count accepted")
	}
	if a := testing.AllocsPerRun(10, func() { UnmarshalOffer(p) }); a != 0 {
		t.Fatalf("hostile offer count: %v allocations before the refusal", a)
	}
	p = putU32(nil, MaxListNames)
	if _, err := UnmarshalListResp(p); err == nil {
		t.Fatal("hostile list count accepted")
	}
	if a := testing.AllocsPerRun(10, func() { UnmarshalListResp(p) }); a != 0 {
		t.Fatalf("hostile list count: %v allocations before the refusal", a)
	}
}

func TestPeerChunksRejectsMismatchedCounts(t *testing.T) {
	// A reply claiming 2 indices but carrying 1 chunk would let a consumer
	// index out of bounds; the decoder must refuse it.
	p := putU32(nil, 2)
	p = putU32(p, 0)
	p = putU32(p, 1)
	p = putU32(p, 1)
	p = putBlob(p, []byte("x"))
	if _, err := UnmarshalPeerChunks(p); err == nil {
		t.Fatal("mismatched PeerChunks counts accepted")
	}
}

func TestUnknownFrameType(t *testing.T) {
	if _, err := UnmarshalAny(Frame{Type: 200}); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestErrorMsgIsError(t *testing.T) {
	var err error = ErrorMsg{Code: CodeNotFound, Msg: "nope"}
	var em ErrorMsg
	if !errors.As(err, &em) || em.Code != CodeNotFound {
		t.Fatalf("errors.As failed: %v", err)
	}
}

func TestDecodeMatchesReadFrame(t *testing.T) {
	raw := AppendFrame(nil, TypeNeed, Need{Seq: 3, Indices: []uint32{1, 2}}.Marshal())
	a, errA := Decode(raw, 0)
	b, errB := ReadFrame(bytes.NewReader(raw), 0)
	if errA != nil || errB != nil {
		t.Fatalf("errs: %v %v", errA, errB)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("Decode %+v != ReadFrame %+v", a, b)
	}
}
