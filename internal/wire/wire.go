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
// each frame type is defined in messages.go; the codec there is pure
// (bytes in, message out) so it can be fuzzed without sockets.
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
)

// Magic identifies a frame stream ("MHDW", MHD wire).
const Magic uint32 = 0x4D484457

// Version is the protocol version this codec speaks. Since 2, FileEnd.Sum
// covers the file's chunk digests, not its bytes: a version-1 peer fails
// closed on its first frame instead of with an integrity error on each file.
const Version uint8 = 2

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

	// Replica/migrate plane (gateway ⇄ shard, ModePeer). Used by shard
	// rebalance and replication repair: the gateway streams a file it
	// restored from one shard into another shard's engine (which chunks
	// and dedups the stream itself — no chunker handshake is needed on
	// this interior link), batch-checks file presence, and
	// drops a fully-migrated file from its drained source.
	TypeMigrateBegin uint8 = 22 // gateway → shard: start migrated-file ingest
	TypeMigrateData  uint8 = 23 // gateway → shard: run of file bytes
	TypeMigrateEnd   uint8 = 24 // gateway → shard: stream done (size + sum)
	TypeMigrateOK    uint8 = 25 // shard → gateway: file ingested + durable
	TypeFileDrop     uint8 = 26 // gateway → shard: forget a migrated file
	TypeFileDropOK   uint8 = 27 // shard → gateway: dropped (or never had it)
	TypeFileStat     uint8 = 28 // gateway → shard: which of these files exist?
	TypeFileStatOK   uint8 = 29 // shard → gateway: presence bitmap
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
	TypeMigrateBegin: "MigrateBegin", TypeMigrateData: "MigrateData",
	TypeMigrateEnd: "MigrateEnd", TypeMigrateOK: "MigrateOK",
	TypeFileDrop: "FileDrop", TypeFileDropOK: "FileDropOK",
	TypeFileStat: "FileStat", TypeFileStatOK: "FileStatOK",
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

// AppendFrame appends the encoded frame for (t, payload) to dst and
// returns the extended slice — the allocation-free core of WriteFrame.
func AppendFrame(dst []byte, t uint8, payload []byte) []byte {
	var hdr [HeaderSize]byte
	binary.BigEndian.PutUint32(hdr[0:4], Magic)
	hdr[4] = Version
	hdr[5] = t
	// hdr[6:8] flags, zero.
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[len(dst)-len(payload)-(HeaderSize-4) : len(dst)])
	var tr [TrailerSize]byte
	binary.BigEndian.PutUint32(tr[:], crc)
	return append(dst, tr[:]...)
}

// WriteFrame encodes and writes one frame. It returns the number of bytes
// put on the wire so callers can account bandwidth exactly.
func WriteFrame(w io.Writer, t uint8, payload []byte) (int, error) {
	buf := AppendFrame(make([]byte, 0, HeaderSize+len(payload)+TrailerSize), t, payload)
	n, err := w.Write(buf)
	return n, err
}

// ReadFrame reads and validates one frame. maxPayload caps the payload
// length accepted (0 means DefaultMaxPayload); the cap is enforced from
// the header before any payload allocation. The returned payload is a
// fresh slice owned by the caller.
func ReadFrame(r io.Reader, maxPayload uint32) (Frame, error) {
	if maxPayload == 0 {
		maxPayload = DefaultMaxPayload
	}
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	f, n, err := parseHeader(hdr)
	if err != nil {
		return Frame{}, err
	}
	if n > maxPayload {
		return Frame{}, fmt.Errorf("%w: %d > %d", ErrTooLarge, n, maxPayload)
	}
	body := make([]byte, int(n)+TrailerSize)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Frame{}, err
	}
	payload := body[:n]
	want := binary.BigEndian.Uint32(body[n:])
	crc := crc32.ChecksumIEEE(hdr[4:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if crc != want {
		return Frame{}, ErrBadCRC
	}
	f.Payload = payload
	return f, nil
}

// parseHeader validates the fixed prologue and returns the frame skeleton
// plus the declared payload length.
func parseHeader(hdr [HeaderSize]byte) (Frame, uint32, error) {
	if binary.BigEndian.Uint32(hdr[0:4]) != Magic {
		return Frame{}, 0, ErrBadMagic
	}
	if hdr[4] != Version {
		return Frame{}, 0, fmt.Errorf("%w: got %d, want %d", ErrBadVersion, hdr[4], Version)
	}
	if hdr[6] != 0 || hdr[7] != 0 {
		return Frame{}, 0, ErrBadFlags
	}
	return Frame{Type: hdr[5]}, binary.BigEndian.Uint32(hdr[8:12]), nil
}

// Decode parses raw as one complete frame (header, payload, trailer) held
// entirely in memory — the fuzzable entry point shared with ReadFrame's
// validation logic. Trailing bytes after the frame are an error.
func Decode(raw []byte, maxPayload uint32) (Frame, error) {
	if maxPayload == 0 {
		maxPayload = DefaultMaxPayload
	}
	if len(raw) < HeaderSize+TrailerSize {
		return Frame{}, io.ErrUnexpectedEOF
	}
	var hdr [HeaderSize]byte
	copy(hdr[:], raw)
	f, n, err := parseHeader(hdr)
	if err != nil {
		return Frame{}, err
	}
	if n > maxPayload {
		return Frame{}, fmt.Errorf("%w: %d > %d", ErrTooLarge, n, maxPayload)
	}
	if uint64(len(raw)) != uint64(HeaderSize)+uint64(n)+uint64(TrailerSize) {
		return Frame{}, io.ErrUnexpectedEOF
	}
	payload := raw[HeaderSize : HeaderSize+n]
	want := binary.BigEndian.Uint32(raw[HeaderSize+n:])
	crc := crc32.ChecksumIEEE(raw[4 : HeaderSize+n])
	if crc != want {
		return Frame{}, ErrBadCRC
	}
	f.Payload = payload
	return f, nil
}
