package client

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mhdedup/internal/session"
	"mhdedup/internal/wire"
)

// scriptedServer is a dialer whose nth connection is answered by the nth
// script entry: nil fails the dial itself, anything else is the frame sent
// back after the client's Hello. Dials past the script fail the test.
type scriptedServer struct {
	t      *testing.T
	script []*wire.Frame
	dials  atomic.Int32
}

func (s *scriptedServer) dial(string) (net.Conn, error) {
	n := int(s.dials.Add(1)) - 1
	if n >= len(s.script) {
		s.t.Errorf("dial %d: the script has only %d entries", n+1, len(s.script))
		return nil, errors.New("off script")
	}
	answer := s.script[n]
	if answer == nil {
		return nil, errors.New("connection refused")
	}
	near, far := net.Pipe()
	go func() {
		defer far.Close()
		if f, err := wire.ReadFrame(far, 0); err == nil && f.Type == wire.TypeHello {
			wire.WriteFrame(far, answer.Type, answer.Payload)
		}
	}()
	return near, nil
}

func refusal(em wire.ErrorMsg) *wire.Frame {
	return &wire.Frame{Type: wire.TypeError, Payload: em.Marshal()}
}

var helloOK = &wire.Frame{Type: wire.TypeHelloOK,
	Payload: wire.HelloOK{SessionToken: 42, Window: 8, MaxPayload: 1 << 16}.Marshal()}

func testConfig(t *testing.T, script ...*wire.Frame) (*Config, *scriptedServer) {
	srv := &scriptedServer{t: t, script: script}
	cfg := &Config{Addr: "scripted", Dial: srv.dial, RetryAttempts: 4, RetryDelay: 2 * time.Millisecond}
	if err := cfg.fillDefaults(); err != nil {
		t.Fatal(err)
	}
	return cfg, srv
}

func TestDialAndHelloRetriesDialFailure(t *testing.T) {
	cfg, srv := testConfig(t, nil, nil, helloOK)
	var in, out atomic.Int64
	start := time.Now()
	cn, ok, err := dialAndHello(cfg, wire.Hello{Mode: wire.ModeIngest}, session.Meter{In: &in, Out: &out})
	if err != nil {
		t.Fatalf("dialAndHello: %v", err)
	}
	defer cn.Close()
	if ok.SessionToken != 42 || cn.MaxPayload() != 1<<16 {
		t.Fatalf("HelloOK = %+v, conn cap %d", ok, cn.MaxPayload())
	}
	if n := srv.dials.Load(); n != 3 {
		t.Fatalf("%d dials, want 3", n)
	}
	// Two backoffs, the second doubled: at least RetryDelay + 2·RetryDelay.
	if d := time.Since(start); d < 3*cfg.RetryDelay {
		t.Fatalf("3 attempts took %v, want at least %v of backoff", d, 3*cfg.RetryDelay)
	}
	if in.Load() == 0 || out.Load() == 0 {
		t.Fatalf("wire accounting in=%d out=%d, want both counted", in.Load(), out.Load())
	}
}

func TestDialAndHelloGivesUpAfterRetryAttempts(t *testing.T) {
	cfg, srv := testConfig(t, nil, nil, nil, nil)
	_, _, err := dialAndHello(cfg, wire.Hello{Mode: wire.ModeIngest}, session.Meter{})
	if err == nil {
		t.Fatal("dialAndHello succeeded against a dead address")
	}
	if n := srv.dials.Load(); int(n) != cfg.RetryAttempts {
		t.Fatalf("%d dials, want RetryAttempts = %d", n, cfg.RetryAttempts)
	}
}

func TestDialAndHelloRetriesRetryableRefusal(t *testing.T) {
	busy := wire.ErrorMsg{Code: wire.CodeBusy, Retryable: true, Msg: "session limit reached"}
	cfg, srv := testConfig(t, refusal(busy), refusal(busy), helloOK)
	cn, _, err := dialAndHello(cfg, wire.Hello{Mode: wire.ModeIngest}, session.Meter{})
	if err != nil {
		t.Fatalf("dialAndHello: %v", err)
	}
	cn.Close()
	if n := srv.dials.Load(); n != 3 {
		t.Fatalf("%d dials, want 3", n)
	}

	// When every attempt is refused, the last refusal is what surfaces.
	cfg, _ = testConfig(t, refusal(busy), refusal(busy), refusal(busy), refusal(busy))
	_, _, err = dialAndHello(cfg, wire.Hello{Mode: wire.ModeIngest}, session.Meter{})
	var em wire.ErrorMsg
	if !errors.As(err, &em) || em != busy {
		t.Fatalf("exhausted retries: %v, want it to wrap the Busy refusal", err)
	}
}

func TestDialAndHelloSurfacesShed(t *testing.T) {
	quota := wire.ErrorMsg{Code: wire.CodeQuota, Retryable: true, Msg: "over quota", RetryAfterMs: 1500}
	cfg, srv := testConfig(t, refusal(quota))
	cfg.SurfaceShed = true
	_, _, err := dialAndHello(cfg, wire.Hello{Mode: wire.ModeIngest}, session.Meter{})
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("err = %v (%T), want *ShedError", err, err)
	}
	if shed.Code != wire.CodeQuota || shed.RetryAfter != 1500*time.Millisecond || shed.Msg != "over quota" {
		t.Fatalf("ShedError = %+v", shed)
	}
	if n := srv.dials.Load(); n != 1 {
		t.Fatalf("%d dials, want the shed surfaced at once", n)
	}

	// Only deliberate load refusals surface: a retryable Busy is still
	// healed by the retry loop under SurfaceShed.
	busy := wire.ErrorMsg{Code: wire.CodeBusy, Retryable: true, Msg: "full"}
	cfg, srv = testConfig(t, refusal(busy), helloOK)
	cfg.SurfaceShed = true
	cn, _, err := dialAndHello(cfg, wire.Hello{Mode: wire.ModeIngest}, session.Meter{})
	if err != nil {
		t.Fatalf("Busy under SurfaceShed: %v", err)
	}
	cn.Close()
	if n := srv.dials.Load(); n != 2 {
		t.Fatalf("%d dials, want 2", n)
	}
}

func TestDialAndHelloFinalRefusalReturnsImmediately(t *testing.T) {
	refused := wire.ErrorMsg{Code: wire.CodeHandshake, Msg: "authentication failed"}
	cfg, srv := testConfig(t, refusal(refused))
	_, _, err := dialAndHello(cfg, wire.Hello{Mode: wire.ModeIngest}, session.Meter{})
	var em wire.ErrorMsg
	if !errors.As(err, &em) || em != refused {
		t.Fatalf("err = %v, want it to wrap the handshake refusal", err)
	}
	if n := srv.dials.Load(); n != 1 {
		t.Fatalf("%d dials, want 1: a final refusal must not be retried", n)
	}

	// Neither is a server that answers with nonsense.
	cfg, srv = testConfig(t, &wire.Frame{Type: wire.TypeAck, Payload: wire.Ack{Seq: 1}.Marshal()})
	if _, _, err := dialAndHello(cfg, wire.Hello{Mode: wire.ModeIngest}, session.Meter{}); err == nil {
		t.Fatal("an Ack answered the Hello and dialAndHello succeeded")
	}
	if n := srv.dials.Load(); n != 1 {
		t.Fatalf("%d dials after a protocol violation, want 1", n)
	}
}

// TestIngestGiveUpNamesTheCause: a server that answers every command of
// every session with the same retryable Error spends the client's
// reconnect budget, and the put's error says both that the client gave up
// and why it kept reconnecting.
func TestIngestGiveUpNamesTheCause(t *testing.T) {
	const why = "shard s7 is rebuilding its index"
	var dials atomic.Int32
	dial := func(string) (net.Conn, error) {
		dials.Add(1)
		near, far := net.Pipe()
		go func() {
			defer far.Close()
			if f, err := wire.ReadFrame(far, 0); err != nil || f.Type != wire.TypeHello {
				return
			}
			ok := wire.HelloOK{SessionToken: 42, Window: 8, MaxPayload: 1 << 16,
				Options: wire.EngineOptions{Algorithm: "mhd", ECS: 4096}}
			wire.WriteFrame(far, wire.TypeHelloOK, ok.Marshal())
			if _, err := wire.ReadFrame(far, 1<<16); err != nil {
				return
			}
			em := wire.ErrorMsg{Code: wire.CodeInternal, Retryable: true, Msg: why}
			wire.WriteFrame(far, wire.TypeError, em.Marshal())
			io.Copy(io.Discard, far)
		}()
		return near, nil
	}
	ing, err := Connect(Config{Addr: "scripted", Dial: dial, RetryAttempts: 3, RetryDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer ing.Close()
	err = ing.PutFile("f", bytes.NewReader(make([]byte, 10000)))
	if err == nil || !strings.Contains(err.Error(), "giving up") || !strings.Contains(err.Error(), why) {
		t.Fatalf("put error %v, want it to give up and name %q", err, why)
	}
	var em wire.ErrorMsg
	if !errors.As(err, &em) || em.Msg != why {
		t.Fatalf("put error %v does not wrap the server's Error", err)
	}
	if n := dials.Load(); n != 4 {
		t.Fatalf("%d dials, want the first and RetryAttempts = 3 reconnects", n)
	}
}
