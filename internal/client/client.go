// Package client is the dedup-aware network client for dedupd. It chunks
// and hashes files locally, once for every replica — the server's engine
// stores these cuts and digests as offered, under the chunker configuration
// the Hello handshake pins to its own — offers the chunk hashes in batches,
// and ships only the chunk bytes the server asks for, so a backup that is
// mostly duplicate of what the server has already seen moves almost no data.
//
// The ingest conversation is windowed and resumable: every command
// (FileBegin, Offer, FileEnd) carries a session-scoped sequence number,
// the client keeps each command until its Ack arrives, and on connection
// loss it reconnects with its resume token and replays everything the
// server has not yet applied. The server acks replayed, already-applied
// commands idempotently, so a retransmission is never double-ingested.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"mhdedup/internal/events"
	"mhdedup/internal/metrics"
	"mhdedup/internal/session"
	"mhdedup/internal/wire"
)

// Wire-negotiation latency histograms and reconnect counter on the
// process-wide registry (values in nanoseconds).
var (
	// hOfferRTT is one offer→need round-trip: from the Offer frame write
	// to the server's Need answer being in hand — the negotiation cost
	// the hash-based protocol pays per batch.
	hOfferRTT = metrics.GetHistogram("client.offer_rtt_ns")
	// cReconnects counts successful resume reconnects.
	cReconnects = metrics.Counter("client.reconnects")
)

// Config parameterizes a Client. Addr is required; zero fields take the
// documented defaults.
type Config struct {
	// Addr is the dedupd address (host:port).
	Addr string

	// Options is the engine contract the client expects the server to
	// run. The server refuses mismatches at handshake (CodeHandshake), so
	// a client never silently backs up against a differently-configured
	// engine. Required for ingest; ignored for restore/list.
	Options wire.EngineOptions

	// Tenant scopes the session to one tenant namespace when talking to a
	// dedup-gw gateway (or a multi-tenant dedupd). Empty is the root
	// namespace.
	Tenant string
	// Secret authenticates Tenant against a gateway. Plain dedupd ignores
	// it.
	Secret string

	// SurfaceShed changes how quota/overload rejections (CodeOverloaded,
	// CodeQuota) surface: instead of being healed by the internal
	// reconnect loop — which is right for transient blips but turns a hard
	// quota stop into slow retry-until-budget-exhausted — they return a
	// typed *ShedError carrying the server's backoff hint, so the caller
	// can distinguish "shed, come back later" from "broken".
	SurfaceShed bool

	// BatchChunks is how many chunk hashes go into one Offer; default 64.
	BatchChunks int

	// Dial opens the transport. Default: net.Dial("tcp", addr) with a
	// 10s timeout. Tests substitute fault-injecting dialers.
	Dial func(addr string) (net.Conn, error)

	// RetryAttempts bounds reconnection attempts after a connection
	// failure (and retryable server errors such as Busy); default 5.
	RetryAttempts int

	// RetryDelay is the base backoff between attempts (doubling, with
	// jitter); default 50ms.
	RetryDelay time.Duration

	// Events receives structured progress and retry events; default
	// events.Nop() (discard).
	Events *events.Log
}

func (c *Config) fillDefaults() error {
	if c.Addr == "" {
		return errors.New("client: Addr required")
	}
	if c.BatchChunks <= 0 {
		c.BatchChunks = 64
	}
	if c.Dial == nil {
		c.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, 10*time.Second)
		}
	}
	if c.RetryAttempts <= 0 {
		c.RetryAttempts = 5
	}
	if c.RetryDelay <= 0 {
		c.RetryDelay = 50 * time.Millisecond
	}
	if c.Events == nil {
		c.Events = events.Nop()
	}
	return nil
}

// Stats counts what a client moved over the wire — the numbers the
// bandwidth-elimination claim is checked against.
type Stats struct {
	FilesSent      int   `json:"files_sent"`
	InputBytes     int64 `json:"input_bytes"`      // raw bytes chunked locally
	ChunksOffered  int64 `json:"chunks_offered"`   // hashes sent in Offer batches
	ChunksSent     int64 `json:"chunks_sent"`      // chunks the server needed
	ChunkBytesSent int64 `json:"chunk_bytes_sent"` // payload bytes of those chunks
	WireBytesOut   int64 `json:"wire_bytes_out"`   // every frame byte written
	WireBytesIn    int64 `json:"wire_bytes_in"`    // every frame byte read
	Reconnects     int   `json:"reconnects"`       // successful session resumes
}

// ShedError is a quota or overload rejection surfaced to the caller
// (Config.SurfaceShed): the server deliberately refused the work and
// suggested when to come back. It is retryable by contract — nothing the
// session acknowledged is at risk, and the refused file was never
// partially applied — but the session itself is done; open a fresh one
// after backing off.
type ShedError struct {
	Code       uint16        // wire.CodeOverloaded or wire.CodeQuota
	Msg        string        // the server's human-readable reason
	RetryAfter time.Duration // server's backoff hint; 0 when it gave none
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("client: shed (code %d, retry after %v): %s", e.Code, e.RetryAfter, e.Msg)
}

// shedError converts a retryable Error frame into a *ShedError when it is
// a deliberate load/quota refusal and the config asks for it surfaced.
func shedError(cfg *Config, em wire.ErrorMsg) *ShedError {
	if !cfg.SurfaceShed {
		return nil
	}
	if em.Code != wire.CodeOverloaded && em.Code != wire.CodeQuota {
		return nil
	}
	return &ShedError{Code: em.Code, Msg: em.Msg,
		RetryAfter: time.Duration(em.RetryAfterMs) * time.Millisecond}
}

// dialAndHello opens a connection and performs the handshake, retrying
// with exponential backoff on transport failures and retryable server
// errors (Busy, idle-timeout notices). Frame bytes are accounted into m.
// Returns the connection and the server's HelloOK.
func dialAndHello(cfg *Config, hello wire.Hello, m session.Meter) (*session.Conn, wire.HelloOK, error) {
	var lastErr error
	delay := cfg.RetryDelay
	for attempt := 0; attempt < cfg.RetryAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(delay + time.Duration(rand.Int63n(int64(delay))))
			if delay < 2*time.Second {
				delay *= 2
			}
		}
		cn, ok, err := session.Dial(cfg.Dial, cfg.Addr, hello, session.Limits{}, m)
		if err == nil {
			return cn, ok, nil
		}
		var em wire.ErrorMsg
		switch {
		case session.IsTransport(err):
			cfg.Events.Warn("client.dial_retry",
				events.F("addr", cfg.Addr), events.F("attempt", attempt+1), events.F("err", err))
		case errors.As(err, &em) && em.Retryable:
			if sh := shedError(cfg, em); sh != nil {
				return nil, wire.HelloOK{}, sh
			}
			cfg.Events.Warn("client.refused_retry",
				events.F("attempt", attempt+1), events.F("err", em))
		case errors.As(err, &em):
			return nil, wire.HelloOK{}, fmt.Errorf("client: server refused session: %w", em)
		default:
			return nil, wire.HelloOK{}, fmt.Errorf("client: handshake: %w", err)
		}
		lastErr = err
	}
	return nil, wire.HelloOK{}, fmt.Errorf("client: connect to %s failed after %d attempts: %w",
		cfg.Addr, cfg.RetryAttempts, lastErr)
}
