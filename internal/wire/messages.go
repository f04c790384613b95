// Message payload codec. Each frame type's payload is a fixed grammar of
// big-endian integers, length-prefixed strings/byte runs and 20-byte
// hashes. Encoding is append-style (Marshal returns a payload for
// WriteFrame); decoding is a pure function of the payload bytes with an
// error-latched cursor, so a truncated or trailing-garbage payload fails
// loudly instead of being misread.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mhdedup/internal/hashutil"
)

// Limits on variable-length message fields, enforced by the decoders so a
// hostile peer cannot make a small frame allocate a large structure.
const (
	// MaxNameLen bounds file and algorithm names.
	MaxNameLen = 4096
	// MaxBatchChunks bounds the chunks of one Offer/Need/ChunkData batch.
	MaxBatchChunks = 1 << 16
	// MaxListNames bounds one ListResp.
	MaxListNames = 1 << 20
)

// ErrTruncated reports a payload shorter than its grammar requires.
var ErrTruncated = errors.New("wire: truncated message payload")

// ErrTrailing reports payload bytes after the end of the message grammar.
var ErrTrailing = errors.New("wire: trailing bytes after message payload")

// ErrFieldRange reports a length or count field outside its allowed range.
var ErrFieldRange = errors.New("wire: message field out of range")

// ---------------------------------------------------------------------------
// Cursor primitives.

// reader is an error-latched decode cursor: after the first failure every
// subsequent read is a no-op returning zero values, and the final err()
// reports what went wrong. This keeps decoders linear and total.
type reader struct {
	buf []byte
	off int
	e   error
}

func (r *reader) fail(err error) {
	if r.e == nil {
		r.e = err
	}
}

func (r *reader) take(n int) []byte {
	if r.e != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) || r.off+n < r.off {
		r.fail(ErrTruncated)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *reader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// bool reads a strict boolean: only 0 and 1 are accepted, so every
// accepted payload re-encodes byte-identically (the canonical-encode
// invariant the decode fuzzers pin).
func (r *reader) bool() bool {
	b := r.u8()
	if r.e == nil && b > 1 {
		r.fail(fmt.Errorf("%w: boolean byte 0x%02x", ErrFieldRange, b))
	}
	return b == 1
}

func (r *reader) hash() hashutil.Sum {
	var s hashutil.Sum
	b := r.take(hashutil.Size)
	if b != nil {
		copy(s[:], b)
	}
	return s
}

// str reads a u16-length-prefixed string bounded by MaxNameLen.
func (r *reader) str() string {
	n := int(r.u16())
	if r.e == nil && n > MaxNameLen {
		r.fail(fmt.Errorf("%w: string length %d > %d", ErrFieldRange, n, MaxNameLen))
		return ""
	}
	return string(r.take(n))
}

// blob reads a u32-length-prefixed byte run. The bytes alias the payload;
// callers that retain them past the frame must copy.
func (r *reader) blob() []byte {
	n := r.u32()
	if r.e == nil && int64(n) > int64(len(r.buf)) {
		r.fail(fmt.Errorf("%w: blob length %d exceeds payload", ErrFieldRange, n))
		return nil
	}
	return r.take(int(n))
}

// count validates a declared element count against a cap and against the
// bytes actually remaining (each element needs at least minSize bytes), so
// a hostile count field cannot drive a large allocation from a tiny
// payload.
func (r *reader) count(n uint32, cap uint32, minSize int) bool {
	if r.e != nil {
		return false
	}
	if n > cap {
		r.fail(fmt.Errorf("%w: count %d > %d", ErrFieldRange, n, cap))
		return false
	}
	if int64(n)*int64(minSize) > int64(len(r.buf)-r.off) {
		r.fail(ErrTruncated)
		return false
	}
	return true
}

// done verifies the whole payload was consumed.
func (r *reader) done() error {
	if r.e != nil {
		return r.e
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(r.buf)-r.off)
	}
	return nil
}

// Append-style encode primitives.
func putU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func putU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func putU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

func putBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func putStr(b []byte, s string) []byte {
	b = putU16(b, uint16(len(s)))
	return append(b, s...)
}

func putBlob(b, p []byte) []byte {
	b = putU32(b, uint32(len(p)))
	return append(b, p...)
}

// ---------------------------------------------------------------------------
// Handshake.

// Session modes carried in Hello.
const (
	ModeIngest  uint8 = 1 // sessioned backup upload
	ModeRestore uint8 = 2 // restore / list; no ingest session allocated
	ModePeer    uint8 = 3 // interior chunk-cache plane (gateway ⇄ shard)
)

// EngineOptions is the chunking/engine configuration the two sides must
// agree on: the client chunks locally, so a mismatch would silently ruin
// deduplication. The server validates these against its engine and
// rejects the handshake on any difference.
type EngineOptions struct {
	Algorithm string // "mhd" or "si-mhd"
	ECS       uint32 // expected chunk size, bytes
	SD        uint32 // sample distance
	TTTD      bool   // two-thresholds-two-divisors chunker
	FastCDC   bool   // gear-hash chunker
}

// Hello opens (ResumeToken == 0) or resumes (ResumeToken != 0) a session.
//
// Tenant selects the namespace the session operates in: every file name
// the session ingests, lists or restores is scoped to it, so two tenants
// never see each other's files (chunk-level deduplication still happens
// across tenants — that is the point of a shared store). Empty means the
// root namespace. Secret is the tenant's credential, checked by
// authenticating front doors (the cluster gateway); a plain dedupd shard
// is an interior service and ignores it.
type Hello struct {
	Mode        uint8
	Options     EngineOptions // ignored for ModeRestore/ModePeer
	ResumeToken uint64
	Tenant      string
	Secret      string
}

// Marshal encodes h as a TypeHello payload.
func (h Hello) Marshal() []byte {
	b := make([]byte, 0, 40+len(h.Options.Algorithm)+len(h.Tenant)+len(h.Secret))
	b = append(b, h.Mode)
	b = putStr(b, h.Options.Algorithm)
	b = putU32(b, h.Options.ECS)
	b = putU32(b, h.Options.SD)
	b = putBool(b, h.Options.TTTD)
	b = putBool(b, h.Options.FastCDC)
	b = putU64(b, h.ResumeToken)
	b = putStr(b, h.Tenant)
	b = putStr(b, h.Secret)
	return b
}

// UnmarshalHello decodes a TypeHello payload.
func UnmarshalHello(p []byte) (Hello, error) {
	r := &reader{buf: p}
	var h Hello
	h.Mode = r.u8()
	h.Options.Algorithm = r.str()
	h.Options.ECS = r.u32()
	h.Options.SD = r.u32()
	h.Options.TTTD = r.bool()
	h.Options.FastCDC = r.bool()
	h.ResumeToken = r.u64()
	h.Tenant = r.str()
	h.Secret = r.str()
	return h, r.done()
}

// HelloOK accepts a session.
type HelloOK struct {
	// SessionToken identifies the session for resumption. Zero for
	// ModeRestore connections.
	SessionToken uint64
	// Window is the maximum number of unacked command seqs the client may
	// keep in flight (server backpressure).
	Window uint32
	// MaxPayload is the frame payload cap both sides enforce from now on.
	MaxPayload uint32
	// LastApplied is the highest command seq the server has durably
	// applied — on a fresh session 0, on resume the client's replay point.
	LastApplied uint64
}

// Marshal encodes ok as a TypeHelloOK payload.
func (ok HelloOK) Marshal() []byte {
	b := make([]byte, 0, 24)
	b = putU64(b, ok.SessionToken)
	b = putU32(b, ok.Window)
	b = putU32(b, ok.MaxPayload)
	b = putU64(b, ok.LastApplied)
	return b
}

// UnmarshalHelloOK decodes a TypeHelloOK payload.
func UnmarshalHelloOK(p []byte) (HelloOK, error) {
	r := &reader{buf: p}
	var ok HelloOK
	ok.SessionToken = r.u64()
	ok.Window = r.u32()
	ok.MaxPayload = r.u32()
	ok.LastApplied = r.u64()
	return ok, r.done()
}

// ---------------------------------------------------------------------------
// Errors.

// Error codes. Retryable errors invite the client to reconnect and resume;
// the rest are final for the session.
const (
	CodeProtocol   uint16 = 1 // framing/grammar/sequencing violation
	CodeHandshake  uint16 = 2 // algorithm/options mismatch
	CodeBusy       uint16 = 3 // session limit reached (retryable)
	CodeDraining   uint16 = 4 // server shutting down (retryable elsewhere)
	CodeNotFound   uint16 = 5 // no such file / session
	CodeInternal   uint16 = 6 // engine failure
	CodeIntegrity  uint16 = 7 // chunk or file hash mismatch
	CodeOverloaded uint16 = 8 // durability budget exceeded; shed (retryable)
	CodeQuota      uint16 = 9 // tenant over its namespace quota (retryable)
)

// ErrorMsg is a structured failure report. RetryAfterMs, when non-zero on
// a retryable error, is the server's backoff hint: the client should wait
// at least that long before retrying — it lets an overloaded or
// quota-shedding service pace its herd instead of being hammered by
// exponential-backoff guesswork.
type ErrorMsg struct {
	Code         uint16
	Retryable    bool
	Msg          string
	RetryAfterMs uint32
}

// Error implements error so servers/clients can return it directly.
func (e ErrorMsg) Error() string {
	return fmt.Sprintf("wire: remote error code=%d retryable=%v: %s", e.Code, e.Retryable, e.Msg)
}

// Marshal encodes e as a TypeError payload.
func (e ErrorMsg) Marshal() []byte {
	b := make([]byte, 0, 12+len(e.Msg))
	b = putU16(b, e.Code)
	b = putBool(b, e.Retryable)
	b = putStr(b, e.Msg)
	b = putU32(b, e.RetryAfterMs)
	return b
}

// UnmarshalError decodes a TypeError payload.
func UnmarshalError(p []byte) (ErrorMsg, error) {
	r := &reader{buf: p}
	var e ErrorMsg
	e.Code = r.u16()
	e.Retryable = r.bool()
	e.Msg = r.str()
	e.RetryAfterMs = r.u32()
	return e, r.done()
}

// ---------------------------------------------------------------------------
// Sessioned ingest.

// FileBegin starts one named file on the session's ordered stream.
type FileBegin struct {
	Seq  uint64
	Name string
}

// Marshal encodes f as a TypeFileBegin payload.
func (f FileBegin) Marshal() []byte {
	b := make([]byte, 0, 16+len(f.Name))
	b = putU64(b, f.Seq)
	b = putStr(b, f.Name)
	return b
}

// UnmarshalFileBegin decodes a TypeFileBegin payload.
func UnmarshalFileBegin(p []byte) (FileBegin, error) {
	r := &reader{buf: p}
	var f FileBegin
	f.Seq = r.u64()
	f.Name = r.str()
	return f, r.done()
}

// OfferEntry is one locally chunked chunk: its hash and exact size.
type OfferEntry struct {
	Hash hashutil.Sum
	Size uint32
}

// Offer is a batch of consecutive stream chunks offered by hash. The
// server answers with the indices it needs the bytes for.
type Offer struct {
	Seq     uint64
	Entries []OfferEntry
}

// Marshal encodes o as a TypeOffer payload.
func (o Offer) Marshal() []byte {
	b := make([]byte, 0, 12+len(o.Entries)*(hashutil.Size+4))
	b = putU64(b, o.Seq)
	b = putU32(b, uint32(len(o.Entries)))
	for _, e := range o.Entries {
		b = append(b, e.Hash[:]...)
		b = putU32(b, e.Size)
	}
	return b
}

// UnmarshalOffer decodes a TypeOffer payload.
func UnmarshalOffer(p []byte) (Offer, error) {
	r := &reader{buf: p}
	var o Offer
	o.Seq = r.u64()
	n := r.u32()
	if r.count(n, MaxBatchChunks, hashutil.Size+4) {
		o.Entries = make([]OfferEntry, 0, n)
		for i := uint32(0); i < n && r.e == nil; i++ {
			var e OfferEntry
			e.Hash = r.hash()
			e.Size = r.u32()
			o.Entries = append(o.Entries, e)
		}
	}
	return o, r.done()
}

// Need answers an Offer: the offer-batch indices whose bytes the server
// wants, in ascending order. An empty list means the whole batch was
// already known — pure bandwidth elimination.
type Need struct {
	Seq     uint64
	Indices []uint32
}

// Marshal encodes n as a TypeNeed payload.
func (n Need) Marshal() []byte {
	b := make([]byte, 0, 12+4*len(n.Indices))
	b = putU64(b, n.Seq)
	b = putU32(b, uint32(len(n.Indices)))
	for _, i := range n.Indices {
		b = putU32(b, i)
	}
	return b
}

// UnmarshalNeed decodes a TypeNeed payload.
func UnmarshalNeed(p []byte) (Need, error) {
	r := &reader{buf: p}
	var n Need
	n.Seq = r.u64()
	c := r.u32()
	if r.count(c, MaxBatchChunks, 4) {
		n.Indices = make([]uint32, 0, c)
		for i := uint32(0); i < c && r.e == nil; i++ {
			n.Indices = append(n.Indices, r.u32())
		}
	}
	return n, r.done()
}

// ChunkData carries a run of needed chunk bytes for offer batch Seq:
// Chunks[i] is the payload of need-list position Start+i. A batch's data
// may be split across several ChunkData frames to respect the payload cap.
type ChunkData struct {
	Seq    uint64
	Start  uint32 // index into the Need list (not the offer batch)
	Chunks [][]byte
}

// Marshal encodes d as a TypeChunkData payload.
func (d ChunkData) Marshal() []byte {
	size := 16
	for _, c := range d.Chunks {
		size += 4 + len(c)
	}
	b := make([]byte, 0, size)
	b = putU64(b, d.Seq)
	b = putU32(b, d.Start)
	b = putU32(b, uint32(len(d.Chunks)))
	for _, c := range d.Chunks {
		b = putBlob(b, c)
	}
	return b
}

// UnmarshalChunkData decodes a TypeChunkData payload. The chunk slices
// alias the payload buffer.
func UnmarshalChunkData(p []byte) (ChunkData, error) {
	r := &reader{buf: p}
	var d ChunkData
	d.Seq = r.u64()
	d.Start = r.u32()
	n := r.u32()
	if r.count(n, MaxBatchChunks, 4) {
		d.Chunks = make([][]byte, 0, n)
		for i := uint32(0); i < n && r.e == nil; i++ {
			d.Chunks = append(d.Chunks, r.blob())
		}
	}
	return d, r.done()
}

// FileEnd completes the current file. Sum is the SHA-1 over the file's
// chunk digests as offered, in stream order. Every chunk was checked
// against its digest on the way in, so a server holding exactly TotalBytes
// under that Sum holds the client's stream, whole and in order — end-to-end
// integrity over the negotiated transfer — and only then acknowledges.
type FileEnd struct {
	Seq        uint64
	TotalBytes uint64
	Sum        hashutil.Sum
}

// Marshal encodes f as a TypeFileEnd payload.
func (f FileEnd) Marshal() []byte {
	b := make([]byte, 0, 16+hashutil.Size)
	b = putU64(b, f.Seq)
	b = putU64(b, f.TotalBytes)
	return append(b, f.Sum[:]...)
}

// UnmarshalFileEnd decodes a TypeFileEnd payload.
func UnmarshalFileEnd(p []byte) (FileEnd, error) {
	r := &reader{buf: p}
	var f FileEnd
	f.Seq = r.u64()
	f.TotalBytes = r.u64()
	f.Sum = r.hash()
	return f, r.done()
}

// Ack acknowledges that command Seq (FileBegin, Offer or FileEnd) was
// fully applied. Acks are cumulative in effect — the server applies
// commands in seq order — but are sent individually.
type Ack struct {
	Seq uint64
}

// Marshal encodes a as a TypeAck payload.
func (a Ack) Marshal() []byte { return putU64(make([]byte, 0, 8), a.Seq) }

// UnmarshalAck decodes a TypeAck payload.
func UnmarshalAck(p []byte) (Ack, error) {
	r := &reader{buf: p}
	a := Ack{Seq: r.u64()}
	return a, r.done()
}

// ---------------------------------------------------------------------------
// Restore.

// RestoreReq asks for one file; Verify selects the verified (re-hashing)
// restore path on the server.
type RestoreReq struct {
	Name   string
	Verify bool
}

// Marshal encodes q as a TypeRestoreReq payload.
func (q RestoreReq) Marshal() []byte {
	b := make([]byte, 0, 4+len(q.Name))
	b = putStr(b, q.Name)
	return putBool(b, q.Verify)
}

// UnmarshalRestoreReq decodes a TypeRestoreReq payload.
func UnmarshalRestoreReq(p []byte) (RestoreReq, error) {
	r := &reader{buf: p}
	var q RestoreReq
	q.Name = r.str()
	q.Verify = r.bool()
	return q, r.done()
}

// RestoreToEOF is the RestoreRange length meaning "through end of file".
const RestoreToEOF = ^uint64(0)

// restoreRangeVersion versions the RestoreRange payload grammar.
const restoreRangeVersion = 1

// maxRestoreExtent bounds offsets and lengths a peer may request: 2^62
// bytes is beyond any storable file, so anything larger (other than the
// RestoreToEOF sentinel) is a hostile or corrupt frame, rejected at decode
// before it can reach int64 arithmetic.
const maxRestoreExtent = uint64(1) << 62

// RestoreRange asks for Length bytes of one file starting at Offset
// (RestoreToEOF = through EOF). The reply stream is the same
// RestoreData*/RestoreEnd as a whole-file restore — RestoreEnd carries the
// size and SHA-1 of the range actually sent (ranges past EOF clamp).
type RestoreRange struct {
	Name   string
	Verify bool
	Offset uint64
	Length uint64
}

// Marshal encodes q as a TypeRestoreRange payload.
func (q RestoreRange) Marshal() []byte {
	b := make([]byte, 0, 1+4+len(q.Name)+1+16)
	b = append(b, restoreRangeVersion)
	b = putStr(b, q.Name)
	b = putBool(b, q.Verify)
	b = putU64(b, q.Offset)
	return putU64(b, q.Length)
}

// UnmarshalRestoreRange decodes a TypeRestoreRange payload, rejecting
// extents no real file can have before any arithmetic happens on them.
func UnmarshalRestoreRange(p []byte) (RestoreRange, error) {
	r := &reader{buf: p}
	if v := r.u8(); r.e == nil && v != restoreRangeVersion {
		return RestoreRange{}, fmt.Errorf("wire: RestoreRange version %d not supported", v)
	}
	var q RestoreRange
	q.Name = r.str()
	q.Verify = r.bool()
	q.Offset = r.u64()
	q.Length = r.u64()
	if err := r.done(); err != nil {
		return RestoreRange{}, err
	}
	if q.Offset > maxRestoreExtent {
		return RestoreRange{}, fmt.Errorf("wire: RestoreRange offset %d out of range", q.Offset)
	}
	if q.Length > maxRestoreExtent && q.Length != RestoreToEOF {
		return RestoreRange{}, fmt.Errorf("wire: RestoreRange length %d out of range", q.Length)
	}
	return q, nil
}

// UnmarshalRestoreRequest decodes either restore request frame: a
// RestoreReq reads as the range [0, EOF) of its file.
func UnmarshalRestoreRequest(f Frame) (RestoreRange, error) {
	if f.Type == TypeRestoreRange {
		return UnmarshalRestoreRange(f.Payload)
	}
	whole, err := UnmarshalRestoreReq(f.Payload)
	return RestoreRange{Name: whole.Name, Verify: whole.Verify, Length: RestoreToEOF}, err
}

// RestoreData is one run of restored bytes, in file order.
type RestoreData struct {
	Data []byte
}

// Marshal encodes d as a TypeRestoreData payload.
func (d RestoreData) Marshal() []byte {
	return putBlob(make([]byte, 0, 4+len(d.Data)), d.Data)
}

// Parts is Marshal without the copy: the payload as its length prefix,
// written into prefix, and d.Data itself — two parts for WriteFrame.
func (d RestoreData) Parts(prefix *[4]byte) (head, data []byte) {
	binary.BigEndian.PutUint32(prefix[:], uint32(len(d.Data)))
	return prefix[:], d.Data
}

// UnmarshalRestoreData decodes a TypeRestoreData payload. Data aliases p.
func UnmarshalRestoreData(p []byte) (RestoreData, error) {
	r := &reader{buf: p}
	d := RestoreData{Data: r.blob()}
	return d, r.done()
}

// RestoreEnd closes a restore stream with the file's total size and
// SHA-1, letting the client verify end-to-end what it wrote.
type RestoreEnd struct {
	TotalBytes uint64
	Sum        hashutil.Sum
}

// Marshal encodes e as a TypeRestoreEnd payload.
func (e RestoreEnd) Marshal() []byte {
	b := putU64(make([]byte, 0, 8+hashutil.Size), e.TotalBytes)
	return append(b, e.Sum[:]...)
}

// UnmarshalRestoreEnd decodes a TypeRestoreEnd payload.
func UnmarshalRestoreEnd(p []byte) (RestoreEnd, error) {
	r := &reader{buf: p}
	var e RestoreEnd
	e.TotalBytes = r.u64()
	e.Sum = r.hash()
	return e, r.done()
}

// ListResp carries the store's restorable file names.
type ListResp struct {
	Names []string
}

// Marshal encodes l as a TypeListResp payload.
func (l ListResp) Marshal() []byte {
	b := putU32(make([]byte, 0, 64), uint32(len(l.Names)))
	for _, n := range l.Names {
		b = putStr(b, n)
	}
	return b
}

// UnmarshalListResp decodes a TypeListResp payload.
func UnmarshalListResp(p []byte) (ListResp, error) {
	r := &reader{buf: p}
	var l ListResp
	n := r.u32()
	if r.count(n, MaxListNames, 2) {
		l.Names = make([]string, 0, n)
		for i := uint32(0); i < n && r.e == nil; i++ {
			l.Names = append(l.Names, r.str())
		}
	}
	return l, r.done()
}

// ---------------------------------------------------------------------------
// Peer plane (gateway ⇄ shard chunk-cache routing).

// PeerFetch asks a shard for the bytes of the listed chunks, identified
// exactly like Offer entries (hash + exact size). The answer is
// best-effort: the shard replies with whatever subset its wire cache
// holds — a miss is never an error, just a chunk the client must send.
type PeerFetch struct {
	Entries []OfferEntry
}

// Marshal encodes f as a TypePeerFetch payload.
func (f PeerFetch) Marshal() []byte {
	b := make([]byte, 0, 4+len(f.Entries)*(hashutil.Size+4))
	b = putU32(b, uint32(len(f.Entries)))
	for _, e := range f.Entries {
		b = append(b, e.Hash[:]...)
		b = putU32(b, e.Size)
	}
	return b
}

// UnmarshalPeerFetch decodes a TypePeerFetch payload.
func UnmarshalPeerFetch(p []byte) (PeerFetch, error) {
	r := &reader{buf: p}
	var f PeerFetch
	n := r.u32()
	if r.count(n, MaxBatchChunks, hashutil.Size+4) {
		f.Entries = make([]OfferEntry, 0, n)
		for i := uint32(0); i < n && r.e == nil; i++ {
			var e OfferEntry
			e.Hash = r.hash()
			e.Size = r.u32()
			f.Entries = append(f.Entries, e)
		}
	}
	return f, r.done()
}

// PeerChunks answers a PeerFetch: Chunks[i] is the bytes of fetch-list
// position Indices[i]. Positions absent from Indices were cache misses.
type PeerChunks struct {
	Indices []uint32
	Chunks  [][]byte
}

// Marshal encodes c as a TypePeerChunks payload.
func (c PeerChunks) Marshal() []byte {
	size := 8 + 4*len(c.Indices)
	for _, ch := range c.Chunks {
		size += 4 + len(ch)
	}
	b := make([]byte, 0, size)
	b = putU32(b, uint32(len(c.Indices)))
	for _, i := range c.Indices {
		b = putU32(b, i)
	}
	b = putU32(b, uint32(len(c.Chunks)))
	for _, ch := range c.Chunks {
		b = putBlob(b, ch)
	}
	return b
}

// UnmarshalPeerChunks decodes a TypePeerChunks payload. The chunk slices
// alias the payload buffer. A well-formed reply has matching Indices and
// Chunks lengths; the decoder enforces it so consumers can index freely.
func UnmarshalPeerChunks(p []byte) (PeerChunks, error) {
	r := &reader{buf: p}
	var c PeerChunks
	ni := r.u32()
	if r.count(ni, MaxBatchChunks, 4) {
		c.Indices = make([]uint32, 0, ni)
		for i := uint32(0); i < ni && r.e == nil; i++ {
			c.Indices = append(c.Indices, r.u32())
		}
	}
	nc := r.u32()
	if r.e == nil && nc != ni {
		r.fail(fmt.Errorf("%w: PeerChunks has %d indices but %d chunks", ErrFieldRange, ni, nc))
	}
	if r.count(nc, MaxBatchChunks, 4) {
		c.Chunks = make([][]byte, 0, nc)
		for i := uint32(0); i < nc && r.e == nil; i++ {
			c.Chunks = append(c.Chunks, r.blob())
		}
	}
	return c, r.done()
}

// PeerPut seeds chunk bytes into the receiving shard's wire cache. The
// shard re-hashes each chunk itself (the hash is not carried — a trusted
// link is still not a trusted computation), so a corrupt put can never
// poison negotiation. Acknowledged with a bare PeerPutOK for flow
// control.
type PeerPut struct {
	Chunks [][]byte
}

// Marshal encodes p as a TypePeerPut payload.
func (pp PeerPut) Marshal() []byte {
	size := 4
	for _, ch := range pp.Chunks {
		size += 4 + len(ch)
	}
	b := make([]byte, 0, size)
	b = putU32(b, uint32(len(pp.Chunks)))
	for _, ch := range pp.Chunks {
		b = putBlob(b, ch)
	}
	return b
}

// UnmarshalPeerPut decodes a TypePeerPut payload. The chunk slices alias
// the payload buffer.
func UnmarshalPeerPut(p []byte) (PeerPut, error) {
	r := &reader{buf: p}
	var pp PeerPut
	n := r.u32()
	if r.count(n, MaxBatchChunks, 4) {
		pp.Chunks = make([][]byte, 0, n)
		for i := uint32(0); i < n && r.e == nil; i++ {
			pp.Chunks = append(pp.Chunks, r.blob())
		}
	}
	return pp, r.done()
}
