// Package session is the one place that knows the connection lifecycle
// of the wire protocol: a framed Conn with deadlines and byte accounting,
// the client half of the handshake (Dial), the server half (Endpoint:
// accept loop, Hello validation, mode dispatch, Drain/Close) and the
// resumable-session Table whose attach/detach/expire epoch machine keeps
// an ingest session alive across connection loss. dedupd
// (internal/server) and the cluster gateway (internal/cluster) are both
// an Endpoint plus their own per-mode serve callbacks; internal/client
// and the gateway's shard links both go through Dial, and both keep their
// restore links between requests in a Links pool.
package session

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/wire"
)

// Limits are the per-connection bounds both ends of a link apply.
type Limits struct {
	// IdleTimeout bounds the wait for each inbound frame; 0 waits forever.
	IdleTimeout time.Duration
	// WriteTimeout bounds each frame write; 0 waits forever.
	WriteTimeout time.Duration
	// MaxPayload caps inbound frame payloads (0 means
	// wire.DefaultMaxPayload). On a dialed connection it becomes the
	// server's advertised cap, which also bounds what the dialer may send.
	MaxPayload uint32
}

// The limits every dedupd and dedup-gw serves under: constants, because a
// shard and its gateway must agree on them. The gateway relays a client's
// window and frames to its shards unchanged, and its parked sessions must
// expire before the backend sessions they hold; one value on both sides
// makes both orderings hold. A shard of another build that announces less
// is refused at dial time.
const (
	// Window is the in-flight command budget an ingest session announces
	// in HelloOK.
	Window = 8
	// IdleTimeout bounds the wait for each inbound frame on a served
	// connection.
	IdleTimeout = 2 * time.Minute
	// WriteTimeout bounds each frame write.
	WriteTimeout = time.Minute
	// ResumeTimeout is how long a shard keeps a detached session resumable.
	ResumeTimeout = 2 * time.Minute
	// GatewayResumeTimeout is how long a gateway keeps one: shorter than
	// the shards', so the backend sessions outlive the client's.
	GatewayResumeTimeout = ResumeTimeout * 3 / 4
	// DrainTimeout bounds a daemon's graceful drain before what is left is
	// severed.
	DrainTimeout = time.Minute
)

// Meter is where a Conn accounts its traffic; nil counters are skipped.
type Meter struct {
	In, Out *atomic.Int64 // frame bytes read / written
	Errors  *atomic.Int64 // Error frames sent
}

// TransportError marks a connection-level failure (dial, read, write,
// deadline, broken framing) as opposed to a protocol-level refusal; a
// resuming client heals the former by reconnecting.
type TransportError struct{ Err error }

func (e *TransportError) Error() string { return "transport: " + e.Err.Error() }
func (e *TransportError) Unwrap() error { return e.Err }

// IsTransport reports whether err is (or wraps) a TransportError.
func IsTransport(err error) bool {
	var t *TransportError
	return errors.As(err, &t)
}

// IsTimeout reports whether err is a deadline expiry.
func IsTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Conn is one framed connection. Reads and writes may be used from two
// goroutines (one each); neither is safe for concurrent use with itself.
type Conn struct {
	nc     net.Conn
	lim    Limits
	m      Meter
	stream []byte // ReadStream's buffer
	// parked, set by an Endpoint on its sessionless connections, brackets
	// ReadRequest's wait; see Endpoint.parked.
	parked func(waiting bool) error
}

// NewConn frames nc under lim, accounting into m.
func NewConn(nc net.Conn, lim Limits, m Meter) *Conn {
	return &Conn{nc: nc, lim: lim, m: m}
}

// MaxPayload is the payload cap in force on this connection.
func (c *Conn) MaxPayload() uint32 {
	if c.lim.MaxPayload == 0 {
		return wire.DefaultMaxPayload
	}
	return c.lim.MaxPayload
}

// Read returns the next frame, waiting at most the idle timeout. The
// payload is the caller's to keep.
func (c *Conn) Read() (wire.Frame, error) {
	var buf []byte
	f, _, err := c.read(&buf)
	return f, err
}

// ReadStream is Read into a buffer the connection owns, for a consumer
// that is done with one frame before it asks for the next: the payload,
// and raw — the frame's bytes as they arrived, which WriteRaw forwards —
// are overwritten by the next ReadStream. Same deadline, cap and CRC
// checks as Read; they are one function.
func (c *Conn) ReadStream() (f wire.Frame, raw []byte, err error) {
	return c.read(&c.stream)
}

func (c *Conn) read(buf *[]byte) (wire.Frame, []byte, error) {
	if c.lim.IdleTimeout > 0 {
		c.nc.SetReadDeadline(time.Now().Add(c.lim.IdleTimeout))
	}
	f, raw, err := wire.ReadFrameInto(c.nc, c.lim.MaxPayload, buf)
	if err != nil {
		return f, nil, &TransportError{err}
	}
	if c.m.In != nil {
		c.m.In.Add(int64(len(raw)))
	}
	return f, raw, nil
}

// ReadRequest is Read for a sessionless connection's next request. While
// it waits the connection holds nothing a shutdown must wait for, so the
// Endpoint that accepted it may close it (Drain does); on a dialed
// connection it is Read.
func (c *Conn) ReadRequest() (wire.Frame, error) {
	if c.parked == nil {
		return c.Read()
	}
	if err := c.parked(true); err != nil {
		return wire.Frame{}, &TransportError{err}
	}
	f, err := c.Read()
	if perr := c.parked(false); perr != nil && err == nil {
		err = &TransportError{perr}
	}
	return f, err
}

// Write sends one frame, whose payload is the concatenation of parts,
// within the write timeout. It is the one place a frame is encoded for a
// connection (wire.WriteFrame: no assembled copy).
func (c *Conn) Write(t uint8, parts ...[]byte) error {
	c.armWrite()
	return c.wrote(wire.WriteFrame(c.nc, t, parts...))
}

// WriteRaw forwards raw, one whole frame exactly as ReadStream verified
// and returned it, without re-encoding it.
func (c *Conn) WriteRaw(raw []byte) error {
	c.armWrite()
	return c.wrote(c.nc.Write(raw))
}

func (c *Conn) armWrite() {
	if c.lim.WriteTimeout > 0 {
		c.nc.SetWriteDeadline(time.Now().Add(c.lim.WriteTimeout))
	}
}

func (c *Conn) wrote(n int, err error) error {
	if c.m.Out != nil {
		c.m.Out.Add(int64(n))
	}
	if err != nil {
		return &TransportError{err}
	}
	return nil
}

// SendError reports a failure to the peer, best effort (the caller is
// about to drop or park the connection either way).
func (c *Conn) SendError(em wire.ErrorMsg) {
	if c.m.Errors != nil {
		c.m.Errors.Add(1)
	}
	c.Write(wire.TypeError, em.Marshal())
}

// Errorf is SendError with a formatted message.
func (c *Conn) Errorf(code uint16, retryable bool, format string, args ...any) {
	c.SendError(wire.ErrorMsg{Code: code, Retryable: retryable, Msg: fmt.Sprintf(format, args...)})
}

// Fatal is a handler error that ends a session for good: the peer is told
// why in an Error frame and nothing stays resumable.
type Fatal struct{ Msg wire.ErrorMsg }

func (e *Fatal) Error() string { return e.Msg.Error() }

// Fatalf builds a Fatal.
func Fatalf(code uint16, format string, args ...any) error {
	return &Fatal{Msg: wire.ErrorMsg{Code: code, Msg: fmt.Sprintf(format, args...)}}
}

// Shed is a deliberate refusal (overload, quota): the peer gets Msg — a
// retryable Error frame — and the session is parked resumable, so the
// client backs off, reconnects and replays.
type Shed struct{ Msg wire.ErrorMsg }

func (e *Shed) Error() string { return e.Msg.Error() }

// Ingester is an ingest session's handlers for the four client commands.
// dedupd and the gateway each implement it once; IngestCommand decodes for
// both.
type Ingester interface {
	HandleFileBegin(wire.FileBegin, *Conn) error
	HandleOffer(wire.Offer, *Conn) error
	HandleChunkData(wire.ChunkData, *Conn) error
	HandleFileEnd(wire.FileEnd, *Conn) error
}

// IngestCommand decodes f as one of the four ingest commands and hands it
// to in. Any other frame, and a payload that does not decode, is Fatal: a
// session parked over a malformed command would be replayed the same bytes
// on resume and fail the same way until the client gave up.
func IngestCommand(f wire.Frame, in Ingester, c *Conn) error {
	var err error
	switch f.Type {
	case wire.TypeFileBegin:
		var fb wire.FileBegin
		if fb, err = wire.UnmarshalFileBegin(f.Payload); err == nil {
			return in.HandleFileBegin(fb, c)
		}
	case wire.TypeOffer:
		var of wire.Offer
		if of, err = wire.UnmarshalOffer(f.Payload); err == nil {
			return in.HandleOffer(of, c)
		}
	case wire.TypeChunkData:
		var cd wire.ChunkData
		if cd, err = wire.UnmarshalChunkData(f.Payload); err == nil {
			return in.HandleChunkData(cd, c)
		}
	case wire.TypeFileEnd:
		var fe wire.FileEnd
		if fe, err = wire.UnmarshalFileEnd(f.Payload); err == nil {
			return in.HandleFileEnd(fe, c)
		}
	default:
		return Fatalf(wire.CodeProtocol, "unexpected %s frame on ingest session", wire.TypeName(f.Type))
	}
	return Fatalf(wire.CodeProtocol, "bad %s: %v", wire.TypeName(f.Type), err)
}

// Report tells the peer what a handler error entitles it to know and
// classifies the error: a non-nil result means the session must end;
// nil (a Shed, or a transport failure nobody can be told about) means it
// should be parked resumable.
func (c *Conn) Report(err error) *Fatal {
	var fatal *Fatal
	var shed *Shed
	switch {
	case errors.As(err, &fatal):
		c.SendError(fatal.Msg)
	case errors.As(err, &shed):
		c.SendError(shed.Msg)
	}
	return fatal
}

// Expect reads one frame and demands type want. The peer's Error frame
// comes back as a wire.ErrorMsg (match with errors.As).
func (c *Conn) Expect(want uint8) (wire.Frame, error) {
	f, err := c.Read()
	if err != nil {
		return f, err
	}
	if f.Type == wire.TypeError {
		em, uerr := wire.UnmarshalError(f.Payload)
		if uerr != nil {
			return f, fmt.Errorf("bad Error frame: %w", uerr)
		}
		return f, em
	}
	if f.Type != want {
		return f, fmt.Errorf("expected %s, got %s", wire.TypeName(want), wire.TypeName(f.Type))
	}
	return f, nil
}

// Call is one request/response exchange: write a frame, Expect the answer.
func (c *Conn) Call(t uint8, payload []byte, want uint8) (wire.Frame, error) {
	if err := c.Write(t, payload); err != nil {
		return wire.Frame{}, err
	}
	return c.Expect(want)
}

// ReceiveRestore drains one RestoreData*/RestoreEnd reply stream, handing
// each run of bytes to sink, and holds the stream to the size and SHA-1
// its RestoreEnd declares — so every consumer of a restore (a client
// writing a file, the gateway splicing one into a migration) gets
// verified bytes or an error. The frames are read with ReadStream, so sink
// must be done with data when it returns. The sender's Error frame comes
// back as a wire.ErrorMsg.
func (c *Conn) ReceiveRestore(sink func(data []byte) error) (wire.RestoreEnd, error) {
	hash := hashutil.NewHasher()
	var total uint64
	for {
		f, _, err := c.ReadStream()
		if err != nil {
			return wire.RestoreEnd{}, err
		}
		switch f.Type {
		case wire.TypeRestoreData:
			rd, err := wire.UnmarshalRestoreData(f.Payload)
			if err != nil {
				return wire.RestoreEnd{}, fmt.Errorf("bad RestoreData: %w", err)
			}
			if err := sink(rd.Data); err != nil {
				return wire.RestoreEnd{}, err
			}
			hash.Write(rd.Data)
			total += uint64(len(rd.Data))
		case wire.TypeRestoreEnd:
			end, err := wire.UnmarshalRestoreEnd(f.Payload)
			if err != nil {
				return wire.RestoreEnd{}, fmt.Errorf("bad RestoreEnd: %w", err)
			}
			if total != end.TotalBytes {
				return end, fmt.Errorf("received %d bytes, sender declared %d", total, end.TotalBytes)
			}
			if hash.Sum() != end.Sum {
				return end, errors.New("received stream does not hash to the sender's sum")
			}
			return end, nil
		case wire.TypeError:
			em, err := wire.UnmarshalError(f.Payload)
			if err != nil {
				return wire.RestoreEnd{}, fmt.Errorf("bad Error frame: %w", err)
			}
			return wire.RestoreEnd{}, em
		default:
			return wire.RestoreEnd{}, fmt.Errorf("unexpected %s frame in restore stream", wire.TypeName(f.Type))
		}
	}
}

// Close closes the transport.
func (c *Conn) Close() error { return c.nc.Close() }

// Dial makes one handshake attempt: open the transport, send hello, read
// the answer. On HelloOK the connection adopts the server's payload cap.
// A dial or I/O failure is a *TransportError, a refusal the server's
// wire.ErrorMsg; anything else is a protocol violation. Retry policy is
// the caller's.
func Dial(dial func(addr string) (net.Conn, error), addr string, hello wire.Hello,
	lim Limits, m Meter) (*Conn, wire.HelloOK, error) {
	nc, err := dial(addr)
	if err != nil {
		return nil, wire.HelloOK{}, &TransportError{err}
	}
	c := NewConn(nc, lim, m)
	ok, err := c.hello(hello)
	if err != nil {
		c.Close()
		return nil, wire.HelloOK{}, err
	}
	return c, ok, nil
}

func (c *Conn) hello(hello wire.Hello) (wire.HelloOK, error) {
	f, err := c.Call(wire.TypeHello, hello.Marshal(), wire.TypeHelloOK)
	if err != nil {
		return wire.HelloOK{}, err
	}
	ok, err := wire.UnmarshalHelloOK(f.Payload)
	if err != nil {
		return wire.HelloOK{}, fmt.Errorf("bad HelloOK: %w", err)
	}
	if ok.MaxPayload > 0 {
		c.lim.MaxPayload = ok.MaxPayload
	}
	return ok, nil
}
