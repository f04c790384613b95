package client

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/session"
	"mhdedup/internal/wire"
)

// The ways a hostile server bends one answer. A script byte picks one (its
// value mod 32); values past the list, and a spent script, answer honestly.
const (
	honest = iota
	// Bendings of any answer (send).
	hangUp      // close the connection instead of answering
	truncated   // half a frame, then hang up
	garbled     // a frame whose CRC fails
	unknownType // a well-formed frame of a type nobody sends
	strayAck    // an Ack for a seq nobody sent
	closeOK     // CloseOK in place of the answer
	retryable   // a retryable Error
	final       // a final Error
	badPayload  // the answer's frame type around a payload that does not decode
	// Bendings of one kind of answer; any other answer goes out honestly.
	earlyAck   // Need: the offer's Ack in its place
	needOOR    // Need: an index past the offer's end
	needRepeat // Need: one index twice
	needDesc   // Need: indices descending
	needTwice  // Need: the honest one, twice
	endLong    // RestoreEnd: a byte more declared than sent
	endSum     // RestoreEnd: a wrong sum
	mutations
)

// ok is a script byte that lets an answer through honestly.
const ok = 0xFF

// hostileServer is a dialer whose connections are served by an honest model
// of dedupd's side of the protocol, bent by a script: every answer the model
// is about to give spends one script byte. Once the script is spent, or once
// the test sets straight, every answer is honest, so every run ends.
type hostileServer struct {
	t      testing.TB
	script []byte
	file   []byte   // what a restore of any name streams
	names  []string // what a List answers
	lazy   bool     // hold each Need until the client's next frame arrives

	mu       sync.Mutex
	pos      int
	dials    int
	straight bool
	window   uint32          // the session's window
	applied  uint64          // the session's last applied seq
	endAcked map[uint64]bool // FileEnd seqs honestly acked
	closeOK  bool            // an orderly CloseOK went out
	offered  []wire.OfferEntry
	ends     []wire.FileEnd // every Offer's entries and every FileEnd, as received
}

func newHostile(t testing.TB, script []byte) *hostileServer {
	rng := rand.New(rand.NewSource(3))
	file := make([]byte, 5000)
	rng.Read(file)
	return &hostileServer{t: t, script: script, file: file, names: []string{"a", "b"},
		endAcked: make(map[uint64]bool)}
}

// next spends a script byte: the mutation for the next answer and the byte.
func (s *hostileServer) next() (int, byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.straight || s.pos >= len(s.script) {
		return honest, ok
	}
	b := s.script[s.pos]
	s.pos++
	if m := int(b % 32); m < mutations {
		return m, b
	}
	return honest, b
}

func (s *hostileServer) dial(string) (net.Conn, error) {
	s.mu.Lock()
	s.dials++
	n := s.dials
	s.mu.Unlock()
	if n > 8 {
		return nil, errors.New("connection refused")
	}
	near, far := net.Pipe()
	go s.serve(far)
	return near, nil
}

// bent reports whether m keeps any answer from going out honestly.
func bent(m int) bool { return m != honest && m <= badPayload }

// send writes the answer (typ, payload) bent by m. It reports whether the
// honest answer went out, and whether the connection stays open: after an
// honest answer or an Error frame the peer knows where it is; after
// anything else the server hangs up.
func send(nc net.Conn, m int, typ uint8, payload []byte) (sent, open bool) {
	raw := wire.AppendFrame(nil, typ, payload)
	switch m {
	case hangUp:
	case truncated:
		nc.Write(raw[:len(raw)/2])
	case garbled:
		raw[len(raw)-1] ^= 0xFF
		nc.Write(raw)
	case unknownType:
		wire.WriteFrame(nc, 0xEE, payload)
	case strayAck:
		wire.WriteFrame(nc, wire.TypeAck, wire.Ack{Seq: 1 << 40}.Marshal())
	case closeOK:
		wire.WriteFrame(nc, wire.TypeCloseOK, nil)
	case badPayload:
		wire.WriteFrame(nc, typ, []byte{0xFF})
	case retryable, final:
		em := wire.ErrorMsg{Code: wire.CodeInternal, Retryable: m == retryable, Msg: "scripted"}
		wire.WriteFrame(nc, wire.TypeError, em.Marshal())
		return false, true
	default:
		_, err := nc.Write(raw)
		return err == nil, err == nil
	}
	return false, false
}

func (s *hostileServer) serve(nc net.Conn) {
	defer nc.Close()
	f, err := wire.ReadFrame(nc, 0)
	if err != nil || f.Type != wire.TypeHello {
		return
	}
	hello, err := wire.UnmarshalHello(f.Payload)
	if err != nil {
		s.t.Errorf("client sent a bad Hello: %v", err)
		return
	}
	m, b := s.next()
	s.mu.Lock()
	if hello.ResumeToken == 0 { // a new session; a resumed one keeps its window
		s.applied, s.window = 0, 1+uint32(b%8)
	}
	helloOK := wire.HelloOK{SessionToken: 7, Window: s.window, MaxPayload: 1 << 14, LastApplied: s.applied,
		Options: wire.EngineOptions{Algorithm: "mhd", ECS: 1024}}
	s.mu.Unlock()
	if sent, _ := send(nc, m, wire.TypeHelloOK, helloOK.Marshal()); !sent {
		return
	}
	if hello.Mode == wire.ModeIngest {
		s.ingest(nc, int(helloOK.Window))
	} else {
		s.requests(nc)
	}
}

// pending is one command received on this connection and not yet applied.
type pending struct {
	typ     uint8
	entries []wire.OfferEntry
	need    []uint32 // the honest need list
	got     int      // need positions received
}

// ingest is the honest ordered-apply loop of dedupd's ingest session, with
// every Need and Ack bent by the script.
func (s *hostileServer) ingest(nc net.Conn, window int) {
	cmds := make(map[uint64]*pending)
	var held []wire.Need // lazy: Needs waiting for the client's next frame
	for {
		f, err := wire.ReadFrame(nc, 0)
		if err != nil {
			return
		}
		for _, n := range held {
			if !s.answerNeed(nc, cmds[n.Seq], n) {
				return
			}
		}
		held = held[:0]
		switch f.Type {
		case wire.TypeFileBegin:
			fb, err := wire.UnmarshalFileBegin(f.Payload)
			if err != nil {
				s.t.Errorf("bad FileBegin: %v", err)
				return
			}
			cmds[fb.Seq] = &pending{typ: f.Type}
		case wire.TypeFileEnd:
			fe, err := wire.UnmarshalFileEnd(f.Payload)
			if err != nil {
				s.t.Errorf("bad FileEnd: %v", err)
				return
			}
			cmds[fe.Seq] = &pending{typ: f.Type}
			s.mu.Lock()
			s.ends = append(s.ends, fe)
			s.mu.Unlock()
		case wire.TypeOffer:
			of, err := wire.UnmarshalOffer(f.Payload)
			if err != nil {
				s.t.Errorf("bad Offer: %v", err)
				return
			}
			p := &pending{typ: f.Type, entries: of.Entries}
			s.mu.Lock()
			s.offered = append(s.offered, of.Entries...)
			s.mu.Unlock()
			for i, e := range of.Entries {
				if e.Hash[0]%2 == 0 {
					p.need = append(p.need, uint32(i))
				}
			}
			cmds[of.Seq] = p
			if s.lazy {
				held = append(held, wire.Need{Seq: of.Seq, Indices: p.need})
			} else if !s.answerNeed(nc, p, wire.Need{Seq: of.Seq, Indices: p.need}) {
				return
			}
		case wire.TypeChunkData:
			cd, err := wire.UnmarshalChunkData(f.Payload)
			if err != nil {
				s.t.Errorf("bad ChunkData: %v", err)
				return
			}
			p := cmds[cd.Seq]
			if p == nil || p.typ != wire.TypeOffer || int(cd.Start) != p.got || p.got+len(cd.Chunks) > len(p.need) {
				s.t.Errorf("ChunkData for seq %d at %d (%d chunks) was never asked for", cd.Seq, cd.Start, len(cd.Chunks))
				return
			}
			for _, chunk := range cd.Chunks {
				if e := p.entries[p.need[p.got]]; hashutil.SumBytes(chunk) != e.Hash {
					s.t.Errorf("offer %d: the client sent the wrong bytes for index %d", cd.Seq, p.need[p.got])
					return
				}
				p.got++
			}
		case wire.TypeClose:
			if len(cmds) > 0 {
				s.t.Errorf("Close with %d commands unapplied", len(cmds))
				return
			}
			if m, _ := s.next(); bent(m) && m != closeOK {
				send(nc, m, wire.TypeCloseOK, nil)
				return
			}
			s.mu.Lock()
			s.closeOK = true
			s.mu.Unlock()
			wire.WriteFrame(nc, wire.TypeCloseOK, nil)
			return
		default:
			s.t.Errorf("client sent %s on an ingest session", wire.TypeName(f.Type))
			return
		}
		if len(cmds) > window {
			s.t.Errorf("client has %d commands in flight, above the window of %d", len(cmds), window)
			return
		}
		if len(cmds) == window { // a client at the window waits: nothing is held from it
			for _, n := range held {
				if !s.answerNeed(nc, cmds[n.Seq], n) {
					return
				}
			}
			held = held[:0]
		}
		if !s.applyReady(nc, cmds) {
			return
		}
	}
}

// answerNeed sends one offer's Need, bent by the script. After a bad Need
// the connection stays open, so that whatever the client sends for it is
// checked against the honest list.
func (s *hostileServer) answerNeed(nc net.Conn, p *pending, n wire.Need) bool {
	m, _ := s.next()
	switch m {
	case earlyAck:
		wire.WriteFrame(nc, wire.TypeAck, wire.Ack{Seq: n.Seq}.Marshal())
		return true
	case needOOR:
		n.Indices = append(append([]uint32(nil), n.Indices...), uint32(len(p.entries)))
	case needRepeat:
		n.Indices = append([]uint32{0, 0}, n.Indices...)
	case needDesc:
		n.Indices = []uint32{1, 0}
	case needTwice:
		wire.WriteFrame(nc, wire.TypeNeed, n.Marshal())
	default:
		sent, _ := send(nc, m, wire.TypeNeed, n.Marshal())
		return sent
	}
	wire.WriteFrame(nc, wire.TypeNeed, n.Marshal())
	return true
}

// applyReady applies commands in seq order while the next one is complete,
// acking each (bent by the script).
func (s *hostileServer) applyReady(nc net.Conn, cmds map[uint64]*pending) bool {
	for {
		s.mu.Lock()
		seq := s.applied + 1
		s.mu.Unlock()
		p := cmds[seq]
		if p == nil || p.typ == wire.TypeOffer && p.got < len(p.need) {
			return true
		}
		m, _ := s.next()
		if bent(m) {
			send(nc, m, wire.TypeAck, nil)
			return false
		}
		// Recorded first: the client may act on the Ack before Write returns.
		delete(cmds, seq)
		s.mu.Lock()
		s.applied = seq
		if p.typ == wire.TypeFileEnd {
			s.endAcked[seq] = true
		}
		s.mu.Unlock()
		if sent, _ := send(nc, m, wire.TypeAck, wire.Ack{Seq: seq}.Marshal()); !sent {
			return false
		}
	}
}

// requests is the honest sessionless request loop: each reply bent by the
// script as a whole.
func (s *hostileServer) requests(nc net.Conn) {
	for {
		f, err := wire.ReadFrame(nc, 0)
		if err != nil {
			return
		}
		m, _ := s.next()
		switch f.Type {
		case wire.TypeListReq:
			if _, open := send(nc, m, wire.TypeListResp, wire.ListResp{Names: s.names}.Marshal()); !open {
				return
			}
		case wire.TypeRestoreReq, wire.TypeRestoreRange:
			req, err := wire.UnmarshalRestoreRequest(f)
			if err != nil {
				s.t.Errorf("bad restore request: %v", err)
				return
			}
			if !s.stream(nc, m, s.want(req)) {
				return
			}
		default:
			s.t.Errorf("client sent %s on a restore link", wire.TypeName(f.Type))
			return
		}
	}
}

// want is the slice of the file a restore request asks for.
func (s *hostileServer) want(req wire.RestoreRange) []byte {
	lo := min(req.Offset, uint64(len(s.file)))
	hi := uint64(len(s.file))
	if req.Length != wire.RestoreToEOF && lo+req.Length < hi {
		hi = lo + req.Length
	}
	return s.file[lo:hi]
}

// stream sends data as RestoreData frames of up to 1000 bytes and a
// RestoreEnd, bent by m: a generic bending breaks off after half the data.
func (s *hostileServer) stream(nc net.Conn, m int, data []byte) bool {
	sent := data
	if bent(m) {
		sent = data[:len(data)/2]
	}
	var prefix [4]byte
	for off := 0; off < len(sent); off += 1000 {
		head, body := wire.RestoreData{Data: sent[off:min(off+1000, len(sent))]}.Parts(&prefix)
		if _, err := wire.WriteFrame(nc, wire.TypeRestoreData, head, body); err != nil {
			return false
		}
	}
	end := wire.RestoreEnd{TotalBytes: uint64(len(data)), Sum: hashutil.SumBytes(data)}
	switch m {
	case endLong:
		end.TotalBytes++
	case endSum:
		end.Sum[0] ^= 1
	default:
		_, open := send(nc, m, wire.TypeRestoreEnd, end.Marshal())
		return open
	}
	wire.WriteFrame(nc, wire.TypeRestoreEnd, end.Marshal())
	return false
}

var hostileAddrs atomic.Int64

// hostileConfig is a client configuration whose every dial reaches s, under
// an address of its own so that no other test's kept links are in play.
func hostileConfig(s *hostileServer) Config {
	return Config{Addr: fmt.Sprintf("hostile-%d", hostileAddrs.Add(1)), Dial: s.dial,
		BatchChunks:   4,
		RetryAttempts: 3, RetryDelay: time.Millisecond}
}

// ingestData is what the hostile tests back up: about 40 chunks, 10 Offers.
func ingestData() []byte {
	data := make([]byte, 48<<10)
	rand.New(rand.NewSource(5)).Read(data)
	return data
}

// runHostile runs one client operation against s and checks what the
// client may claim: op 0 is PutFile then Close, 1 Restore, 2 RestoreRange,
// 3 List. It fails the test if the operation outlives its deadline.
func runHostile(t *testing.T, s *hostileServer, op uint8) {
	cfg := hostileConfig(s)
	within(t, fmt.Sprintf("op %d against script %x", op%4, s.script), func() {
		var out bytes.Buffer
		var res RestoreResult
		var err error
		switch op % 4 {
		case 0:
			ing, cerr := Connect(cfg)
			if cerr != nil {
				return
			}
			perr := ing.PutFile("f", bytes.NewReader(ingestData()))
			err = ing.Close()
			s.mu.Lock()
			acked, closed := len(s.endAcked) > 0, s.closeOK
			s.mu.Unlock()
			if perr == nil && !acked {
				t.Error("PutFile returned nil, but the server never acked the file's FileEnd")
			}
			if perr == nil && err == nil && !closed {
				t.Error("Close returned nil, but the server never sent CloseOK")
			}
			return
		case 1, 2:
			want := s.file
			if op%4 == 1 {
				res, err = Restore(cfg, "f", false, &out)
			} else {
				res, err = RestoreRange(cfg, "f", false, 1234, 2000, &out)
				want = want[1234:3234]
			}
			if err == nil && (!bytes.Equal(out.Bytes(), want) || res.Bytes != uint64(len(want)) || res.Sum != hashutil.SumBytes(want)) {
				t.Errorf("restore returned nil over %d bytes, result %+v: not the %d the server declared", out.Len(), res, len(want))
			}
		case 3:
			names, err := List(cfg)
			if err == nil && strings.Join(names, ",") != strings.Join(s.names, ",") {
				t.Errorf("List returned %v, the server listed %v", names, s.names)
			}
		}
		probeParked(t, s, cfg)
	})
}

// within runs f, failing the test if it is still running after 20 s.
func within(t *testing.T, what string, f func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("%s: still running after 20s", what)
	}
}

// probeParked takes the link the operation left parked, if any, and asks
// the server on it for a straight List. A link is parked only at a request
// boundary the server reached honestly, so the probe must be answered; a
// link that saw garbage was hung up on and fails the probe.
func probeParked(t *testing.T, s *hostileServer, cfg Config) {
	s.mu.Lock()
	s.straight = true
	s.mu.Unlock()
	noLink := errors.New("nothing parked")
	err := links.Do(session.LinkKey{Peer: cfg.Addr}, func(session.Meter) (*session.Conn, error) { return nil, noLink },
		func(cn *session.Conn) (bool, error) {
			if _, err := cn.Call(wire.TypeListReq, nil, wire.TypeListResp); err != nil {
				t.Errorf("a link was parked that cannot take a request: %v", err)
			}
			return false, nil
		})
	if err != nil && err != noLink {
		t.Errorf("probe: %v", err)
	}
}

// TestHostileNeedsAreRefused: a Need whose indices run past the offer,
// repeat or descend, a second Need for one offer, and an Ack for an offer
// before its Need are each a permanent protocol error — no panic, no chunk
// sent twice or invented, no reconnect into the same lie.
func TestHostileNeedsAreRefused(t *testing.T) {
	for _, m := range []byte{needOOR, needRepeat, needDesc, needTwice, earlyAck} {
		// HelloOK, the FileBegin's Ack, then the first Offer's Need.
		s := newHostile(t, []byte{ok, ok, m})
		ing, err := Connect(hostileConfig(s))
		if err != nil {
			t.Fatal(err)
		}
		within(t, fmt.Sprintf("mutation %d", m), func() {
			err = ing.PutFile("f", bytes.NewReader(ingestData()))
			ing.Close()
		})
		if err == nil || session.IsTransport(err) {
			t.Errorf("mutation %d: PutFile = %v, want a permanent protocol error", m, err)
		}
		if s.dials != 1 {
			t.Errorf("mutation %d: %d dials, want the error final on the first", m, s.dials)
		}
	}
}

// TestOffersStayInFlight: a server that answers each Offer only once the
// client's next frame has arrived. A client that waits for every Need before
// it cuts its next batch deadlocks against it; this one keeps offering, and
// the last offer's ChunkData follows the file's FileEnd.
func TestOffersStayInFlight(t *testing.T) {
	s := newHostile(t, nil)
	s.lazy = true
	runHostile(t, s, 0)
	if len(s.endAcked) != 1 || !s.closeOK {
		t.Fatalf("FileEnd acked %v, CloseOK %v: the lazy server's file did not complete", s.endAcked, s.closeOK)
	}
}

// TestHonestModel runs every operation against the model with no script:
// each must succeed, or the fuzz target below proves nothing.
func TestHonestModel(t *testing.T) {
	for op := uint8(0); op < 4; op++ {
		s := newHostile(t, nil)
		runHostile(t, s, op)
		if op == 0 && (len(s.endAcked) != 1 || !s.closeOK) {
			t.Fatalf("ingest against the honest model: FileEnd acked %v, CloseOK %v", s.endAcked, s.closeOK)
		}
	}
}

// FuzzClientHostileServer answers PutFile, Restore, RestoreRange and List
// with fuzzed bendings of the honest protocol. Whatever the server does, the
// client must not panic or hang; PutFile returns nil only after the server
// acked the file's FileEnd; a restore returns nil only for the bytes the
// server declared, size and SHA-1; and a link that saw garbage is never
// parked.
func FuzzClientHostileServer(f *testing.F) {
	for m := byte(0); m < mutations; m++ {
		for op := uint8(0); op < 4; op++ {
			f.Add(op, []byte{ok, m})
			f.Add(op, []byte{ok, ok, ok, m, ok, m})
		}
	}
	f.Fuzz(func(t *testing.T, op uint8, script []byte) {
		runHostile(t, newHostile(t, script), op)
	})
}
