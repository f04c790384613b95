// Package wire is the dedup service's framing layer: a versioned,
// length-prefixed binary protocol carrying the hash-negotiating backup
// conversation between a chunking client and a dedupd server.
//
// The unit of the protocol is the frame:
//
//	offset  size  field
//	0       4     magic "MHDW"
//	4       1     protocol version (Version)
//	5       1     frame type
//	6       2     flags (reserved, must be 0)
//	8       4     payload length (big endian)
//	12      n     payload
//	12+n    4     CRC-32 (IEEE) over bytes [4, 12+n) — version..payload
//
// Every multi-byte integer in the protocol is big endian. The payload of
// each frame type is one fields method (messages.go, replica.go) that the
// codec in codec.go runs; it is pure (bytes in, message out) so it can be
// fuzzed without sockets.
//
// Design rules, in the order they are enforced by ReadFrame:
//
//  1. A reader knows the worst case before it allocates: payloads larger
//     than the negotiated cap are rejected from the header alone.
//  2. Corruption is detected before interpretation: the CRC is checked
//     before the payload is handed to a message decoder.
//  3. Version mismatches fail closed with a distinct error so clients can
//     print something actionable.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
)

// Magic identifies a frame stream ("MHDW", MHD wire).
const Magic uint32 = 0x4D484457

// Version is the protocol version this codec speaks. Since 2, FileEnd.Sum
// covers the file's chunk digests, not its bytes: a version-1 peer fails
// closed on its first frame instead of with an integrity error on each file.
// Since 3, HelloOK announces the cut contract and Hello offers none.
const Version uint8 = 3

// HeaderSize is the fixed frame prologue (magic + version + type + flags +
// length); TrailerSize the CRC suffix.
const (
	HeaderSize  = 12
	TrailerSize = 4
)

// DefaultMaxPayload caps frame payloads unless the handshake negotiates
// otherwise: big enough for a 4·ECS max chunk run with headroom, small
// enough that a malicious length field cannot balloon memory.
const DefaultMaxPayload = 4 << 20

// Frame types. The numeric values are wire format — never renumber.
const (
	// Session establishment.
	TypeHello   uint8 = 1 // client → server: open or resume a session
	TypeHelloOK uint8 = 2 // server → client: session accepted
	TypeError   uint8 = 3 // either direction: failure report

	// Sessioned ingest (client chunks locally, negotiates by hash).
	TypeFileBegin uint8 = 4 // client → server: start one named file
	TypeOffer     uint8 = 5 // client → server: batch of chunk hashes
	TypeNeed      uint8 = 6 // server → client: which offered chunks to send
	TypeChunkData uint8 = 7 // client → server: run of needed chunk bytes
	TypeFileEnd   uint8 = 8 // client → server: file complete (size + sum)
	TypeAck       uint8 = 9 // server → client: command seq fully applied

	// Restore stream.
	TypeRestoreReq  uint8 = 10 // client → server: restore one file
	TypeRestoreData uint8 = 11 // server → client: run of restored bytes
	TypeRestoreEnd  uint8 = 12 // server → client: restore complete
	TypeListReq     uint8 = 13 // client → server: list restorable files
	TypeListResp    uint8 = 14 // server → client: the names

	// Orderly teardown.
	TypeClose   uint8 = 15 // client → server: session done
	TypeCloseOK uint8 = 16 // server → client: state durably applied

	// Peer plane (gateway ⇄ shard chunk-cache routing). A ModePeer
	// connection is a trusted interior link: the cluster gateway uses it
	// to ask the shard that owns a chunk-hash range (by consistent
	// hashing) whether it holds the bytes, and to seed freshly uploaded
	// chunks into their owner's cache — so a chunk any tenant has ever
	// sent through the cluster never crosses a client link twice.
	TypePeerFetch  uint8 = 17 // gateway → shard: chunk hashes wanted
	TypePeerChunks uint8 = 18 // shard → gateway: the subset it holds
	TypePeerPut    uint8 = 19 // gateway → shard: chunk bytes to cache
	TypePeerPutOK  uint8 = 20 // shard → gateway: cached (flow control)

	// Ranged restore (recipe trees make the seek O(log n) server-side).
	TypeRestoreRange uint8 = 21 // client → server: restore a byte range

	// Replica plane (gateway ⇄ shard, ModePeer). Shard rebalance copies a
	// file as an ordinary ingest session and then drops it from its
	// drained source. Numbers 22–25 were the four frames of a byte-stream
	// migration and 28–29 a presence query that shard listings replaced;
	// they are retired, never reused.
	TypeFileDrop   uint8 = 26 // gateway → shard: forget a migrated file
	TypeFileDropOK uint8 = 27 // shard → gateway: dropped (or never had it)
)

// typeNames renders frame types for errors and traces.
var typeNames = map[uint8]string{
	TypeHello: "Hello", TypeHelloOK: "HelloOK", TypeError: "Error",
	TypeFileBegin: "FileBegin", TypeOffer: "Offer", TypeNeed: "Need",
	TypeChunkData: "ChunkData", TypeFileEnd: "FileEnd", TypeAck: "Ack",
	TypeRestoreReq: "RestoreReq", TypeRestoreData: "RestoreData",
	TypeRestoreEnd: "RestoreEnd", TypeListReq: "ListReq",
	TypeListResp: "ListResp", TypeClose: "Close", TypeCloseOK: "CloseOK",
	TypePeerFetch: "PeerFetch", TypePeerChunks: "PeerChunks",
	TypePeerPut: "PeerPut", TypePeerPutOK: "PeerPutOK",
	TypeRestoreRange: "RestoreRange",
	TypeFileDrop:     "FileDrop", TypeFileDropOK: "FileDropOK",
}

// TypeName returns a human-readable frame-type name.
func TypeName(t uint8) string {
	if n, ok := typeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("type%d", t)
}

// Framing errors. ErrTooLarge and ErrBadCRC are connection-fatal: once
// framing is suspect nothing later on the stream can be trusted.
var (
	ErrBadMagic   = errors.New("wire: bad frame magic")
	ErrBadVersion = errors.New("wire: unsupported protocol version")
	ErrBadFlags   = errors.New("wire: reserved frame flags set")
	ErrTooLarge   = errors.New("wire: frame payload exceeds negotiated cap")
	ErrBadCRC     = errors.New("wire: frame CRC mismatch")
)

// Frame is one decoded frame: its type and raw payload.
type Frame struct {
	Type    uint8
	Payload []byte
}

// seal fills ends with the prologue ([0, HeaderSize)) and the CRC trailer
// (the rest) of the frame whose payload is the concatenation of parts.
func seal(ends *[HeaderSize + TrailerSize]byte, t uint8, parts [][]byte) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	binary.BigEndian.PutUint32(ends[0:4], Magic)
	ends[4] = Version
	ends[5] = t
	ends[6], ends[7] = 0, 0 // flags
	binary.BigEndian.PutUint32(ends[8:12], uint32(n))
	crc := crc32.ChecksumIEEE(ends[4:HeaderSize])
	for _, p := range parts {
		crc = crc32.Update(crc, crc32.IEEETable, p)
	}
	binary.BigEndian.PutUint32(ends[HeaderSize:], crc)
}

// AppendFrame appends the encoded frame for (t, payload) to dst and
// returns the extended slice: the frame assembled in memory, which is what
// WriteFrame puts on a connection without assembling it.
func AppendFrame(dst []byte, t uint8, payload []byte) []byte {
	var ends [HeaderSize + TrailerSize]byte
	seal(&ends, t, [][]byte{payload})
	dst = append(dst, ends[:HeaderSize]...)
	dst = append(dst, payload...)
	return append(dst, ends[HeaderSize:]...)
}

// frameVec is one frame write's scratch: the sealed ends and the vector
// that strings them around the caller's payload parts. Pooled, so that a
// frame write allocates nothing.
type frameVec struct {
	ends [HeaderSize + TrailerSize]byte
	vec  [4][]byte
	bufs net.Buffers
}

var frameVecs = sync.Pool{New: func() any { return new(frameVec) }}

// WriteFrame writes one frame whose payload is the concatenation of parts,
// without assembling it: header, parts and trailer go to w as one vectored
// write (writev on a TCP connection; on any other writer one Write per
// piece, in order — the same bytes either way, and the bytes AppendFrame
// builds). It returns the number of bytes put on the wire so callers can
// account bandwidth exactly.
func WriteFrame(w io.Writer, t uint8, parts ...[]byte) (int, error) {
	v := frameVecs.Get().(*frameVec)
	seal(&v.ends, t, parts)
	v.bufs = append(v.vec[:0], v.ends[:HeaderSize])
	for _, p := range parts {
		if len(p) > 0 {
			v.bufs = append(v.bufs, p)
		}
	}
	v.bufs = append(v.bufs, v.ends[HeaderSize:])
	n, err := v.bufs.WriteTo(w)
	clear(v.bufs) // what a failed write left unsent still points at the caller's parts
	frameVecs.Put(v)
	return int(n), err
}

// ReadFrame reads and validates one frame. maxPayload caps the payload
// length accepted (0 means DefaultMaxPayload); the cap is enforced from
// the header before any payload allocation. The returned payload is a
// fresh slice owned by the caller.
func ReadFrame(r io.Reader, maxPayload uint32) (Frame, error) {
	var buf []byte
	f, _, err := ReadFrameInto(r, maxPayload, &buf)
	return f, err
}

// ReadFrameInto is ReadFrame into *buf, which it grows when the frame does
// not fit and otherwise reuses: the returned payload, and raw — the whole
// frame as it arrived, header to trailer — alias *buf and are valid until
// the caller next hands the same buffer in.
func ReadFrameInto(r io.Reader, maxPayload uint32, buf *[]byte) (f Frame, raw []byte, err error) {
	if cap(*buf) < HeaderSize+TrailerSize {
		*buf = make([]byte, HeaderSize+TrailerSize)
	}
	hdr := (*buf)[:HeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, nil, err
	}
	n, err := checkHeader(hdr, maxPayload)
	if err != nil {
		return Frame{}, nil, err
	}
	if size := HeaderSize + int(n) + TrailerSize; cap(*buf) < size {
		*buf = append(make([]byte, 0, size), hdr...)
	}
	raw = (*buf)[:HeaderSize+int(n)+TrailerSize]
	if _, err := io.ReadFull(r, raw[HeaderSize:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, nil, err
	}
	if f, err = checkSealed(raw); err != nil {
		return Frame{}, nil, err
	}
	return f, raw, nil
}

// checkHeader validates a frame's fixed prologue — magic, version, flags,
// and the declared payload length against the cap (0 means
// DefaultMaxPayload) — and returns that length. It is the one validator of
// an inbound header, run before anything is allocated for the payload.
func checkHeader(hdr []byte, maxPayload uint32) (uint32, error) {
	if maxPayload == 0 {
		maxPayload = DefaultMaxPayload
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != Magic {
		return 0, ErrBadMagic
	}
	if hdr[4] != Version {
		return 0, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, hdr[4], Version)
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return 0, ErrBadFlags
	}
	n := binary.BigEndian.Uint32(hdr[8:12])
	if n > maxPayload {
		return 0, fmt.Errorf("%w: %d > %d", ErrTooLarge, n, maxPayload)
	}
	return n, nil
}

// checkSealed verifies the CRC of raw, one whole frame whose header
// checkHeader has passed, and returns the frame; its payload aliases raw.
func checkSealed(raw []byte) (Frame, error) {
	body := raw[:len(raw)-TrailerSize]
	if crc32.ChecksumIEEE(body[4:]) != binary.BigEndian.Uint32(raw[len(body):]) {
		return Frame{}, ErrBadCRC
	}
	return Frame{Type: raw[5], Payload: body[HeaderSize:]}, nil
}

// Decode parses raw as one complete frame (header, payload, trailer) held
// entirely in memory — the fuzzable entry point, through the validators
// ReadFrame runs. Trailing bytes after the frame are an error.
func Decode(raw []byte, maxPayload uint32) (Frame, error) {
	if len(raw) < HeaderSize+TrailerSize {
		return Frame{}, io.ErrUnexpectedEOF
	}
	n, err := checkHeader(raw[:HeaderSize], maxPayload)
	if err != nil {
		return Frame{}, err
	}
	if uint64(len(raw)) != uint64(HeaderSize)+uint64(n)+uint64(TrailerSize) {
		return Frame{}, io.ErrUnexpectedEOF
	}
	return checkSealed(raw)
}
