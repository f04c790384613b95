package session

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"mhdedup/internal/events"
	"mhdedup/internal/metrics"
	"mhdedup/internal/wire"
)

// Config describes one endpoint: its limits, where it reports, and the
// hooks through which its owner decides what the generic machinery
// cannot. NewTable reads Name, EventPrefix, MaxSessions, ResumeTimeout,
// Registry, Events, Admit, New and OnExpire; NewEndpoint reads the rest
// too.
type Config[S any] struct {
	// Name prefixes the endpoint's metrics (Name.sessions.*, Name.errors,
	// Name.wire.bytes_*) and its own events (Name.drain, Name.close).
	Name string
	// EventPrefix prefixes session lifecycle events: attach, resume,
	// detach, expire, expire_stale.
	EventPrefix string

	Limits
	// Window is the in-flight command budget advertised in HelloOK.
	Window int
	// MaxSessions caps live (attached or parked) sessions.
	MaxSessions int
	// ResumeTimeout is how long a parked session waits for its client.
	ResumeTimeout time.Duration

	Registry *metrics.Registry // required
	Events   *events.Log       // required

	// Authenticate vets every Hello's tenant and secret; nil admits all.
	Authenticate func(tenant, secret string) error
	// Admit may refuse a NEW session (never a resume) before the table's
	// own draining and MaxSessions checks; nil admits all.
	Admit func(hello wire.Hello) *wire.ErrorMsg
	// New builds the owner's state for an admitted session. It runs under
	// the table lock and must not call back into the Table.
	New func(token uint64, hello wire.Hello) S
	// OnExpire runs once, without the table lock, when a session leaves
	// the table by Expire, resume timeout, Drain or Close. aborting is
	// false only for an orderly Expire; when the teardown came from
	// outside, the session's handler may still be running.
	OnExpire func(s S, aborting bool)

	// Ingest serves an attached session on c. It sends HelloOK itself
	// (it knows the resume point) and must hand the session back with
	// Sessions.Detach or Sessions.Expire before returning.
	Ingest func(c *Conn, hello wire.Hello, s S)
	// Restore and Peer serve the sessionless modes after the endpoint has
	// answered HelloOK; a nil callback means the mode is not served. They
	// wait for each next request with c.ReadRequest, so that Drain can tell
	// a connection parked between requests from one in the middle of one.
	Restore func(c *Conn, tenant string)
	Peer    func(c *Conn)
}

// Endpoint is the server half of the wire protocol: it accepts
// connections, validates each Hello and dispatches by session mode.
type Endpoint[S any] struct {
	cfg      Config[S]
	meter    Meter
	Sessions *Table[S]

	mu sync.Mutex
	ln net.Listener
	// conns is every open connection; true marks a sessionless one waiting
	// for its next request (Conn.ReadRequest), which Drain closes.
	conns    map[net.Conn]bool
	draining bool
	closed   bool // Close ran: late-accepted conns are shut immediately
	connWG   sync.WaitGroup
}

// NewEndpoint builds an unstarted endpoint and its session table.
func NewEndpoint[S any](cfg Config[S]) *Endpoint[S] {
	e := &Endpoint[S]{cfg: cfg, conns: make(map[net.Conn]bool)}
	e.Sessions = NewTable(&e.cfg)
	r := e.cfg.Registry
	e.meter = Meter{
		In:     r.Counter(cfg.Name + ".wire.bytes_in"),
		Out:    r.Counter(cfg.Name + ".wire.bytes_out"),
		Errors: r.Counter(cfg.Name + ".errors"),
	}
	return e
}

// Serve accepts connections on ln until Drain or Close. It returns nil
// after an orderly shutdown.
func (e *Endpoint[S]) Serve(ln net.Listener) error {
	e.mu.Lock()
	if e.draining {
		e.mu.Unlock()
		return fmt.Errorf("%s: already shut down", e.cfg.Name)
	}
	e.ln = ln
	e.mu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			e.mu.Lock()
			draining := e.draining
			e.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		e.mu.Lock()
		if e.closed {
			// Close already snapshotted e.conns: a connection accepted
			// between that snapshot and ln.Close taking effect would never
			// be closed and would pin connWG (hence Close) for up to
			// IdleTimeout. Shut it here instead.
			e.mu.Unlock()
			nc.Close()
			continue
		}
		e.conns[nc] = false
		e.connWG.Add(1)
		e.mu.Unlock()
		go func() {
			defer e.connWG.Done()
			e.handle(nc)
		}()
	}
}

// Drain shuts down gracefully: stop accepting, refuse new sessions with a
// retryable error, expire parked sessions (see Table.Drain), close
// sessionless connections that are waiting for their next request (their
// peer would hold them open for IdleTimeout), let attached sessions and
// connections in the middle of a request or stream run to their end, and
// return once idle. If ctx expires first everything left is severed as by
// Close.
func (e *Endpoint[S]) Drain(ctx context.Context) error {
	e.mu.Lock()
	e.draining = true
	ln := e.ln
	for nc, waiting := range e.conns {
		if waiting {
			nc.Close()
		}
	}
	e.mu.Unlock()
	e.cfg.Events.Info(e.cfg.Name + ".drain")
	if ln != nil {
		ln.Close()
	}
	e.Sessions.Drain()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		e.mu.Lock()
		conns := len(e.conns)
		e.mu.Unlock()
		if conns == 0 && e.Sessions.Len() == 0 {
			e.connWG.Wait()
			return nil
		}
		select {
		case <-ctx.Done():
			e.Close()
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close hard-stops the endpoint: the listener, every connection and every
// session. It returns once every connection handler has exited.
func (e *Endpoint[S]) Close() error {
	e.mu.Lock()
	e.draining = true
	e.closed = true
	ln := e.ln
	conns := make([]net.Conn, 0, len(e.conns))
	for nc := range e.conns {
		conns = append(conns, nc)
	}
	e.mu.Unlock()
	e.cfg.Events.Info(e.cfg.Name+".close",
		events.F("conns", len(conns)), events.F("sessions", e.Sessions.Len()))
	if ln != nil {
		ln.Close()
	}
	for _, nc := range conns {
		nc.Close()
	}
	e.Sessions.Close()
	e.connWG.Wait()
	return nil
}

// handle runs the handshake on one accepted connection and hands it to
// the mode's serve callback.
func (e *Endpoint[S]) handle(nc net.Conn) {
	defer func() {
		nc.Close()
		e.mu.Lock()
		delete(e.conns, nc)
		e.mu.Unlock()
	}()
	c := NewConn(nc, e.cfg.Limits, e.meter)
	f, err := c.Read()
	if err != nil {
		return
	}
	if f.Type != wire.TypeHello {
		c.Errorf(wire.CodeProtocol, false, "expected Hello, got %s", wire.TypeName(f.Type))
		return
	}
	hello, err := wire.UnmarshalHello(f.Payload)
	if err != nil {
		c.Errorf(wire.CodeProtocol, false, "bad Hello: %v", err)
		return
	}
	if !wire.ValidTenant(hello.Tenant) {
		c.Errorf(wire.CodeHandshake, false, "invalid tenant identifier %q", hello.Tenant)
		return
	}
	if e.cfg.Authenticate != nil {
		if err := e.cfg.Authenticate(hello.Tenant, hello.Secret); err != nil {
			c.Errorf(wire.CodeHandshake, false, "authentication failed: %v", err)
			return
		}
	}
	switch {
	case hello.Mode == wire.ModeIngest && e.cfg.Ingest != nil:
		s, em := e.Sessions.Attach(hello)
		if em != nil {
			c.SendError(*em)
			return
		}
		e.cfg.Ingest(c, hello, s)
	case hello.Mode == wire.ModeRestore && e.cfg.Restore != nil:
		if e.sessionless(c) {
			e.cfg.Restore(c, hello.Tenant)
		}
	case hello.Mode == wire.ModePeer && e.cfg.Peer != nil:
		if e.sessionless(c) {
			e.cfg.Peer(c)
		}
	default:
		c.Errorf(wire.CodeProtocol, false, "session mode %d not served by this %s", hello.Mode, e.cfg.Name)
	}
}

// sessionless answers the HelloOK of a mode that carries no session and
// makes the connection's waits between requests visible to Drain.
func (e *Endpoint[S]) sessionless(c *Conn) bool {
	c.parked = func(waiting bool) error { return e.parked(c.nc, waiting) }
	ok := wire.HelloOK{Window: uint32(e.cfg.Window), MaxPayload: e.cfg.MaxPayload}
	return c.Write(wire.TypeHelloOK, ok.Marshal()) == nil
}

// parked records that a sessionless connection starts or stops waiting for
// its next request. The mark and the draining flag share e.mu, so a
// connection either is seen waiting by Drain and closed, or finds the flag
// set — before its wait: nothing to wait for; after it: Drain closed the
// connection under it — and gives up.
func (e *Endpoint[S]) parked(nc net.Conn, waiting bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.draining {
		return errors.New("endpoint is draining")
	}
	e.conns[nc] = waiting
	return nil
}
