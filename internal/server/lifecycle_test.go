package server

import (
	"testing"
	"time"

	"mhdedup/internal/events"
	"mhdedup/internal/wire"
)

// waitForEvent polls the log until an event of the given type appears.
func waitForEvent(t *testing.T, log *events.Log, typ string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, got := range log.Recent() {
			if got.Type == typ {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("event %q never appeared; log holds %v", typ, log.Recent())
}

// containsSubsequence reports whether want appears in got, in order (not
// necessarily adjacent — other events may interleave).
func containsSubsequence(got []events.Event, want []string) bool {
	i := 0
	for _, g := range got {
		if i < len(want) && g.Type == want[i] {
			i++
		}
	}
	return i == len(want)
}

// TestSessionLifecycleEvents drives a session through every lifecycle
// transition — attach, detach, resume, close, and (for a second session)
// expire — and asserts each is observable through the structured event
// log, in order. This is the contract the debug endpoint and operators
// rely on: no session state change without an event.
func TestSessionLifecycleEvents(t *testing.T) {
	evlog := events.New(events.Options{Level: events.LevelDebug})
	srv, _, addr := startServer(t, func(c *Config) {
		c.Events = evlog
		c.ResumeTimeout = 60 * time.Millisecond
	})

	// Session A: attach → detach (dropped conn) → resume → orderly close.
	c1, write1, read1 := rawConn(t, addr)
	write1(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, Options: srv.Options()}.Marshal())
	ok, err := wire.UnmarshalHelloOK(read1().Payload)
	if err != nil {
		t.Fatal(err)
	}
	waitForEvent(t, evlog, "session.attach")
	c1.Close()
	waitForEvent(t, evlog, "session.detach")
	_, write2, read2 := rawConn(t, addr)
	write2(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, ResumeToken: ok.SessionToken}.Marshal())
	if f := read2(); f.Type != wire.TypeHelloOK {
		t.Fatalf("resume: expected HelloOK, got %s", wire.TypeName(f.Type))
	}
	waitForEvent(t, evlog, "session.resume")
	write2(wire.TypeClose, nil)
	if f := read2(); f.Type != wire.TypeCloseOK {
		t.Fatalf("expected CloseOK, got %s", wire.TypeName(f.Type))
	}
	waitForEvent(t, evlog, "session.close")

	// Session B: attach → detach → resume window runs out → expire.
	c3, write3, read3 := rawConn(t, addr)
	write3(wire.TypeHello, wire.Hello{Mode: wire.ModeIngest, Options: srv.Options()}.Marshal())
	if f := read3(); f.Type != wire.TypeHelloOK {
		t.Fatalf("expected HelloOK, got %s", wire.TypeName(f.Type))
	}
	c3.Close()
	waitForEvent(t, evlog, "session.expire")

	want := []string{
		"session.attach", "session.detach", "session.resume", "session.close",
		"session.attach", "session.detach", "session.expire",
	}
	if got := evlog.Recent(); !containsSubsequence(got, want) {
		t.Fatalf("lifecycle events out of order:\n got %v\nwant subsequence %v", got, want)
	}
}
