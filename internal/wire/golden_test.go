package wire

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"mhdedup/internal/hashutil"
)

// wireFormat is the wire-format oracle: every sampleMessages payload as hex,
// and the allocations its decoder makes, both recorded from the hand-written
// encoders and decoders the field codec replaced. A layout change fails here
// even when it is made to encoder and decoder at once, which no round trip
// can see. Decoding allocates one slice per list and one string per
// non-empty name (Go keeps one-byte strings static); a fixed-size message
// allocates nothing.
var wireFormat = map[uint8]struct {
	hex    string
	allocs float64
}{
	TypeHello:        {"01000000000000004d000461636d650006733363726574", 2},
	TypeHelloOK:      {"000000000000002a0000000800100000000000000000000d00036d6864000010000001003da3358b4dc173", 1},
	TypeError:        {"0003010011746f6f206d616e792073657373696f6e73000005dc", 1},
	TypeFileBegin:    {"000000000000000900076d30302f643031", 1},
	TypeOffer:        {"000000000000000a00000002fe05bcdcdc4928012781a5f1a2a77cbb5398e10600001000ad782ecdac770fc6eb9a62e44f90873fb97fb26b0000007b", 1},
	TypeNeed:         {"000000000000000a00000003000000000000000500000007", 1},
	TypeChunkData:    {"000000000000000a000000010000000300000003616263000000000000000464656667", 1},
	TypeFileEnd:      {"000000000000000b0000000040000000fe05bcdcdc4928012781a5f1a2a77cbb5398e106", 0},
	TypeAck:          {"000000000000000b", 0},
	TypeRestoreReq:   {"00076d30302f64303101", 1},
	TypeRestoreRange: {"0100076d30302f643031010000000000100000ffffffffffffffff", 1},
	TypeRestoreData:  {"0000000b68656c6c6f206279746573", 0},
	TypeRestoreEnd:   {"00000000000003e7ad782ecdac770fc6eb9a62e44f90873fb97fb26b", 0},
	TypeListResp:     {"000000030001610003622f630000", 2},
	TypePeerFetch:    {"00000002fe05bcdcdc4928012781a5f1a2a77cbb5398e10600001000ad782ecdac770fc6eb9a62e44f90873fb97fb26b00000007", 1},
	TypePeerChunks:   {"00000002000000000000000200000002000000036162630000000478797a31", 2},
	TypePeerPut:      {"000000020000000b6368756e6b20627974657300000000", 1},
	TypeFileDrop:     {"01000c61636d652f6d30302f643031", 1},
	TypeFileStat:     {"0100000002000661636d652f61000162", 2},
	TypeFileStatOK:   {"000000020100", 1},
}

// TestGoldenPayloads holds both halves of the codec to the recorded bytes
// separately: every sample encodes to its golden payload, and the golden
// payload decodes to the sample.
func TestGoldenPayloads(t *testing.T) {
	samples := sampleMessages()
	if len(samples) != len(wireFormat) {
		t.Fatalf("%d sample messages, %d golden payloads", len(samples), len(wireFormat))
	}
	for _, tc := range samples {
		golden, ok := wireFormat[tc.t]
		if !ok {
			t.Fatalf("%s: no golden payload", TypeName(tc.t))
		}
		if got := hex.EncodeToString(tc.msg.Marshal()); got != golden.hex {
			t.Errorf("%s: encodes to\n %s\nwant\n %s", TypeName(tc.t), got, golden.hex)
		}
		p, _ := hex.DecodeString(golden.hex)
		got, err := UnmarshalAny(Frame{Type: tc.t, Payload: p})
		if err != nil || !reflect.DeepEqual(got, tc.msg) {
			t.Errorf("%s: golden payload decodes to %+v (%v), want %+v", TypeName(tc.t), got, err, tc.msg)
		}
	}
}

// allocsOf measures one decoder's allocations on a payload.
func allocsOf[M any](dec func([]byte) (M, error)) func([]byte) float64 {
	return func(p []byte) float64 { return testing.AllocsPerRun(200, func() { dec(p) }) }
}

// TestCodecAllocs pins what the field codec costs: Marshal makes exactly the
// payload, and no decoder allocates more than the hand-written one did.
func TestCodecAllocs(t *testing.T) {
	decoders := map[uint8]func([]byte) float64{
		TypeHello: allocsOf(UnmarshalHello), TypeHelloOK: allocsOf(UnmarshalHelloOK),
		TypeError: allocsOf(UnmarshalError), TypeFileBegin: allocsOf(UnmarshalFileBegin),
		TypeOffer: allocsOf(UnmarshalOffer), TypeNeed: allocsOf(UnmarshalNeed),
		TypeChunkData: allocsOf(UnmarshalChunkData), TypeFileEnd: allocsOf(UnmarshalFileEnd),
		TypeAck: allocsOf(UnmarshalAck), TypeRestoreReq: allocsOf(UnmarshalRestoreReq),
		TypeRestoreRange: allocsOf(UnmarshalRestoreRange), TypeRestoreData: allocsOf(UnmarshalRestoreData),
		TypeRestoreEnd: allocsOf(UnmarshalRestoreEnd), TypeListResp: allocsOf(UnmarshalListResp),
		TypePeerFetch: allocsOf(UnmarshalPeerFetch), TypePeerChunks: allocsOf(UnmarshalPeerChunks),
		TypePeerPut: allocsOf(UnmarshalPeerPut), TypeFileDrop: allocsOf(UnmarshalFileDrop), TypeFileStat: allocsOf(UnmarshalFileStat),
		TypeFileStatOK: allocsOf(UnmarshalFileStatOK),
	}
	for _, tc := range sampleMessages() {
		if got := testing.AllocsPerRun(200, func() { tc.msg.Marshal() }); got != 1 {
			t.Errorf("%s: Marshal makes %v allocations, want 1", TypeName(tc.t), got)
		}
		if got, want := decoders[tc.t](tc.msg.Marshal()), wireFormat[tc.t].allocs; got > want {
			t.Errorf("%s: decoding makes %v allocations, want at most %v", TypeName(tc.t), got, want)
		}
	}
}

// TestRestoreRangeBounds covers the RestoreRange grammar's version byte and
// the extents it refuses before any arithmetic sees them: 2^62 is the
// largest offset or length, RestoreToEOF the one length above it.
func TestRestoreRangeBounds(t *testing.T) {
	const limit = uint64(1) << 62
	good := RestoreRange{Name: "f", Offset: 7, Length: 9}
	wrongVersion := good.Marshal()
	wrongVersion[0] = restoreRangeVersion + 1
	for _, tc := range []struct {
		name string
		p    []byte
		ok   bool
	}{
		{"good", good.Marshal(), true},
		{"offset at the limit", RestoreRange{Name: "f", Offset: limit}.Marshal(), true},
		{"offset above the limit", RestoreRange{Name: "f", Offset: limit + 1}.Marshal(), false},
		{"offset all ones", RestoreRange{Name: "f", Offset: RestoreToEOF}.Marshal(), false},
		{"length at the limit", RestoreRange{Name: "f", Length: limit}.Marshal(), true},
		{"length above the limit", RestoreRange{Name: "f", Length: limit + 1}.Marshal(), false},
		{"length one below RestoreToEOF", RestoreRange{Name: "f", Length: RestoreToEOF - 1}.Marshal(), false},
		{"length RestoreToEOF", RestoreRange{Name: "f", Offset: limit, Length: RestoreToEOF}.Marshal(), true},
		{"version 0", append([]byte{0}, good.Marshal()[1:]...), false},
		{"next version", wrongVersion, false},
		{"version byte only", []byte{restoreRangeVersion}, false},
	} {
		q, err := UnmarshalRestoreRange(tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("%s: got %+v, %v; want accepted=%v", tc.name, q, err, tc.ok)
		}
		if err == nil && !bytes.Equal(q.Marshal(), tc.p) {
			t.Errorf("%s: accepted payload does not re-encode to itself", tc.name)
		}
	}
}

// BenchmarkMessageRoundTrip is one Marshal and one decode of the messages
// the ingest conversation sends most: an Ack per command, an Offer of 64
// entries and a ChunkData of 64 chunks of 2–10 KiB.
func BenchmarkMessageRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	offer := Offer{Seq: 9, Entries: make([]OfferEntry, 64)}
	data := ChunkData{Seq: 9, Chunks: make([][]byte, 64)}
	for i := range data.Chunks {
		data.Chunks[i] = make([]byte, 2048+rng.Intn(8193))
		rng.Read(data.Chunks[i])
		offer.Entries[i] = OfferEntry{Hash: hashutil.SumBytes(data.Chunks[i]), Size: uint32(len(data.Chunks[i]))}
	}
	run := func(name string, marshal func() []byte, decode func([]byte) error) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(marshal())))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := decode(marshal()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("Ack", Ack{Seq: 9}.Marshal, func(p []byte) error { _, err := UnmarshalAck(p); return err })
	run("Offer", offer.Marshal, func(p []byte) error { _, err := UnmarshalOffer(p); return err })
	run("ChunkData", data.Marshal, func(p []byte) error { _, err := UnmarshalChunkData(p); return err })
}
