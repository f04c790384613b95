// Message payloads. Each frame type's payload is a fixed grammar of
// big-endian integers, length-prefixed strings and byte runs, 20-byte hashes
// and counted lists, written once as the message's fields method; the codec
// (codec.go) runs that walk to size, encode and decode the payload, so
// Marshal and UnmarshalX are thin calls into it. Decoding is a pure function
// of the payload bytes: a truncated, out-of-range or trailing-garbage
// payload fails loudly instead of being misread.
package wire

import (
	"encoding/binary"
	"fmt"

	"mhdedup/internal/hashutil"
)

// ---------------------------------------------------------------------------
// Handshake.

// Session modes carried in Hello.
const (
	ModeIngest  uint8 = 1 // sessioned backup upload
	ModeRestore uint8 = 2 // restore / list; no ingest session allocated
	ModePeer    uint8 = 3 // interior chunk-cache plane (gateway ⇄ shard)
)

// EngineOptions is the cut contract of the store behind a server. A client
// chunks locally, and chunks cut otherwise would silently fail to
// deduplicate, so HelloOK announces it and the client cuts as it was told.
type EngineOptions struct {
	Algorithm string // "mhd" or "si-mhd"
	ECS       uint32 // expected chunk size, bytes
	TTTD      bool   // two-thresholds-two-divisors chunker
	FastCDC   bool   // gear-hash chunker
	Poly      uint64 // Rabin polynomial (fastcdc: gear seed); zero is the chunker's default
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
	ResumeToken uint64
	Tenant      string
	Secret      string
}

func (h *Hello) fields(c *codec) *codec {
	return c.u8(&h.Mode).u64(&h.ResumeToken).str(&h.Tenant).str(&h.Secret)
}

// Marshal encodes h as a TypeHello payload.
func (h Hello) Marshal() []byte { return h.fields(h.fields(&codec{}).encoder()).buf }

// UnmarshalHello decodes a TypeHello payload.
func UnmarshalHello(p []byte) (Hello, error) {
	var h Hello
	err := h.fields(decoder(p)).done()
	return h, err
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
	// Options is the cut contract the client must cut by, on an ingest
	// session; zero on restore and peer connections.
	Options EngineOptions
}

func (ok *HelloOK) fields(c *codec) *codec {
	o := &ok.Options
	return c.u64(&ok.SessionToken).u32(&ok.Window).u32(&ok.MaxPayload).u64(&ok.LastApplied).
		str(&o.Algorithm).u32(&o.ECS).bool(&o.TTTD).bool(&o.FastCDC).u64(&o.Poly)
}

// Marshal encodes ok as a TypeHelloOK payload.
func (ok HelloOK) Marshal() []byte { return ok.fields(ok.fields(&codec{}).encoder()).buf }

// UnmarshalHelloOK decodes a TypeHelloOK payload.
func UnmarshalHelloOK(p []byte) (HelloOK, error) {
	var ok HelloOK
	err := ok.fields(decoder(p)).done()
	return ok, err
}

// ---------------------------------------------------------------------------
// Errors.

// Error codes. Retryable errors invite the client to reconnect and resume;
// the rest are final for the session.
const (
	CodeProtocol   uint16 = 1 // framing/grammar/sequencing violation
	CodeHandshake  uint16 = 2 // tenant refused: a malformed name or failed auth
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

func (e *ErrorMsg) fields(c *codec) *codec {
	return c.u16(&e.Code).bool(&e.Retryable).str(&e.Msg).u32(&e.RetryAfterMs)
}

// Marshal encodes e as a TypeError payload.
func (e ErrorMsg) Marshal() []byte { return e.fields(e.fields(&codec{}).encoder()).buf }

// UnmarshalError decodes a TypeError payload.
func UnmarshalError(p []byte) (ErrorMsg, error) {
	var e ErrorMsg
	err := e.fields(decoder(p)).done()
	return e, err
}

// ---------------------------------------------------------------------------
// Sessioned ingest.

// FileBegin starts one named file on the session's ordered stream.
type FileBegin struct {
	Seq  uint64
	Name string
}

func (f *FileBegin) fields(c *codec) *codec { return c.u64(&f.Seq).str(&f.Name) }

// Marshal encodes f as a TypeFileBegin payload.
func (f FileBegin) Marshal() []byte { return f.fields(f.fields(&codec{}).encoder()).buf }

// UnmarshalFileBegin decodes a TypeFileBegin payload.
func UnmarshalFileBegin(p []byte) (FileBegin, error) {
	var f FileBegin
	err := f.fields(decoder(p)).done()
	return f, err
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

func (o *Offer) fields(c *codec) *codec { return c.u64(&o.Seq).entries(&o.Entries) }

// Marshal encodes o as a TypeOffer payload.
func (o Offer) Marshal() []byte { return o.fields(o.fields(&codec{}).encoder()).buf }

// UnmarshalOffer decodes a TypeOffer payload.
func UnmarshalOffer(p []byte) (Offer, error) {
	var o Offer
	err := o.fields(decoder(p)).done()
	return o, err
}

// Need answers an Offer: the offer-batch indices whose bytes the server
// wants, in ascending order. An empty list means the whole batch was
// already known — pure bandwidth elimination.
type Need struct {
	Seq     uint64
	Indices []uint32
}

func (n *Need) fields(c *codec) *codec { return c.u64(&n.Seq).u32s(&n.Indices) }

// Marshal encodes n as a TypeNeed payload.
func (n Need) Marshal() []byte { return n.fields(n.fields(&codec{}).encoder()).buf }

// UnmarshalNeed decodes a TypeNeed payload.
func UnmarshalNeed(p []byte) (Need, error) {
	var n Need
	err := n.fields(decoder(p)).done()
	return n, err
}

// ChunkData carries a run of needed chunk bytes for offer batch Seq:
// Chunks[i] is the payload of need-list position Start+i. A batch's data
// may be split across several ChunkData frames to respect the payload cap.
type ChunkData struct {
	Seq    uint64
	Start  uint32 // index into the Need list (not the offer batch)
	Chunks [][]byte
}

func (d *ChunkData) fields(c *codec) *codec { return c.u64(&d.Seq).u32(&d.Start).blobs(&d.Chunks) }

// Marshal encodes d as a TypeChunkData payload.
func (d ChunkData) Marshal() []byte { return d.fields(d.fields(&codec{}).encoder()).buf }

// UnmarshalChunkData decodes a TypeChunkData payload. The chunk slices
// alias the payload buffer.
func UnmarshalChunkData(p []byte) (ChunkData, error) {
	var d ChunkData
	err := d.fields(decoder(p)).done()
	return d, err
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

func (f *FileEnd) fields(c *codec) *codec { return c.u64(&f.Seq).u64(&f.TotalBytes).hash(&f.Sum) }

// Marshal encodes f as a TypeFileEnd payload.
func (f FileEnd) Marshal() []byte { return f.fields(f.fields(&codec{}).encoder()).buf }

// UnmarshalFileEnd decodes a TypeFileEnd payload.
func UnmarshalFileEnd(p []byte) (FileEnd, error) {
	var f FileEnd
	err := f.fields(decoder(p)).done()
	return f, err
}

// Ack acknowledges that command Seq (FileBegin, Offer or FileEnd) was
// fully applied. Acks are cumulative in effect — the server applies
// commands in seq order — but are sent individually.
type Ack struct {
	Seq uint64
}

func (a *Ack) fields(c *codec) *codec { return c.u64(&a.Seq) }

// Marshal encodes a as a TypeAck payload.
func (a Ack) Marshal() []byte { return a.fields(a.fields(&codec{}).encoder()).buf }

// UnmarshalAck decodes a TypeAck payload.
func UnmarshalAck(p []byte) (Ack, error) {
	var a Ack
	err := a.fields(decoder(p)).done()
	return a, err
}

// ---------------------------------------------------------------------------
// Restore.

// RestoreReq asks for one file; Verify selects the verified (re-hashing)
// restore path on the server.
type RestoreReq struct {
	Name   string
	Verify bool
}

func (q *RestoreReq) fields(c *codec) *codec { return c.str(&q.Name).bool(&q.Verify) }

// Marshal encodes q as a TypeRestoreReq payload.
func (q RestoreReq) Marshal() []byte { return q.fields(q.fields(&codec{}).encoder()).buf }

// UnmarshalRestoreReq decodes a TypeRestoreReq payload.
func UnmarshalRestoreReq(p []byte) (RestoreReq, error) {
	var q RestoreReq
	err := q.fields(decoder(p)).done()
	return q, err
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

func (q *RestoreRange) fields(c *codec) *codec {
	c = c.version(restoreRangeVersion, "RestoreRange").str(&q.Name).bool(&q.Verify).u64(&q.Offset).u64(&q.Length)
	return c.refuse(q.Offset > maxRestoreExtent, "RestoreRange offset beyond 2^62").
		refuse(q.Length > maxRestoreExtent && q.Length != RestoreToEOF, "RestoreRange length beyond 2^62")
}

// Marshal encodes q as a TypeRestoreRange payload.
func (q RestoreRange) Marshal() []byte { return q.fields(q.fields(&codec{}).encoder()).buf }

// UnmarshalRestoreRange decodes a TypeRestoreRange payload, rejecting
// extents no real file can have before any arithmetic happens on them.
func UnmarshalRestoreRange(p []byte) (RestoreRange, error) {
	var q RestoreRange
	err := q.fields(decoder(p)).done()
	return q, err
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

func (d *RestoreData) fields(c *codec) *codec { return c.blob(&d.Data) }

// Marshal encodes d as a TypeRestoreData payload.
func (d RestoreData) Marshal() []byte { return d.fields(d.fields(&codec{}).encoder()).buf }

// Parts is Marshal without the copy: the payload as its length prefix,
// written into prefix, and d.Data itself — two parts for WriteFrame.
func (d RestoreData) Parts(prefix *[4]byte) (head, data []byte) {
	binary.BigEndian.PutUint32(prefix[:], uint32(len(d.Data)))
	return prefix[:], d.Data
}

// UnmarshalRestoreData decodes a TypeRestoreData payload. Data aliases p.
func UnmarshalRestoreData(p []byte) (RestoreData, error) {
	var d RestoreData
	err := d.fields(decoder(p)).done()
	return d, err
}

// RestoreEnd closes a restore stream with the file's total size and
// SHA-1, letting the client verify end-to-end what it wrote.
type RestoreEnd struct {
	TotalBytes uint64
	Sum        hashutil.Sum
}

func (e *RestoreEnd) fields(c *codec) *codec { return c.u64(&e.TotalBytes).hash(&e.Sum) }

// Marshal encodes e as a TypeRestoreEnd payload.
func (e RestoreEnd) Marshal() []byte { return e.fields(e.fields(&codec{}).encoder()).buf }

// UnmarshalRestoreEnd decodes a TypeRestoreEnd payload.
func UnmarshalRestoreEnd(p []byte) (RestoreEnd, error) {
	var e RestoreEnd
	err := e.fields(decoder(p)).done()
	return e, err
}

// ListResp carries the store's restorable file names.
type ListResp struct {
	Names []string
}

func (l *ListResp) fields(c *codec) *codec { return c.strs(&l.Names, MaxListNames) }

// Marshal encodes l as a TypeListResp payload.
func (l ListResp) Marshal() []byte { return l.fields(l.fields(&codec{}).encoder()).buf }

// UnmarshalListResp decodes a TypeListResp payload.
func UnmarshalListResp(p []byte) (ListResp, error) {
	var l ListResp
	err := l.fields(decoder(p)).done()
	return l, err
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

func (f *PeerFetch) fields(c *codec) *codec { return c.entries(&f.Entries) }

// Marshal encodes f as a TypePeerFetch payload.
func (f PeerFetch) Marshal() []byte { return f.fields(f.fields(&codec{}).encoder()).buf }

// UnmarshalPeerFetch decodes a TypePeerFetch payload.
func UnmarshalPeerFetch(p []byte) (PeerFetch, error) {
	var f PeerFetch
	err := f.fields(decoder(p)).done()
	return f, err
}

// PeerChunks answers a PeerFetch: Chunks[i] is the bytes of fetch-list
// position Indices[i]. Positions absent from Indices were cache misses.
type PeerChunks struct {
	Indices []uint32
	Chunks  [][]byte
}

// A well-formed reply has matching Indices and Chunks lengths; the decoder
// enforces it so consumers can index freely.
func (pc *PeerChunks) fields(c *codec) *codec {
	c = c.u32s(&pc.Indices).blobs(&pc.Chunks)
	return c.refuse(len(pc.Indices) != len(pc.Chunks), "PeerChunks with more indices than chunks or fewer")
}

// Marshal encodes pc as a TypePeerChunks payload.
func (pc PeerChunks) Marshal() []byte { return pc.fields(pc.fields(&codec{}).encoder()).buf }

// UnmarshalPeerChunks decodes a TypePeerChunks payload. The chunk slices
// alias the payload buffer.
func UnmarshalPeerChunks(p []byte) (PeerChunks, error) {
	var pc PeerChunks
	err := pc.fields(decoder(p)).done()
	return pc, err
}

// PeerPut seeds chunk bytes into the receiving shard's wire cache. The
// shard re-hashes each chunk itself (the hash is not carried — a trusted
// link is still not a trusted computation), so a corrupt put can never
// poison negotiation. Acknowledged with a bare PeerPutOK for flow
// control.
type PeerPut struct {
	Chunks [][]byte
}

func (pp *PeerPut) fields(c *codec) *codec { return c.blobs(&pp.Chunks) }

// Marshal encodes pp as a TypePeerPut payload.
func (pp PeerPut) Marshal() []byte { return pp.fields(pp.fields(&codec{}).encoder()).buf }

// UnmarshalPeerPut decodes a TypePeerPut payload. The chunk slices alias
// the payload buffer.
func UnmarshalPeerPut(p []byte) (PeerPut, error) {
	var pp PeerPut
	err := pp.fields(decoder(p)).done()
	return pp, err
}
