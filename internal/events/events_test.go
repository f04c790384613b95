package events

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Level
		err  bool
	}{
		{"debug", LevelDebug, false},
		{"Info", LevelInfo, false},
		{"", LevelInfo, false},
		{" WARN ", LevelWarn, false},
		{"warning", LevelWarn, false},
		{"error", LevelError, false},
		{"verbose", LevelInfo, true},
	} {
		got, err := ParseLevel(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
}

func TestLevelFiltering(t *testing.T) {
	l := New(Options{Level: LevelWarn})
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	if got := l.Recent(); len(got) != 2 || got[0].Type != "w" || got[1].Type != "e" {
		t.Fatalf("warn-level log retained %v, want [w e]", got)
	}
	if l.Enabled(LevelInfo) || !l.Enabled(LevelWarn) {
		t.Fatal("Enabled disagrees with the warn level")
	}
}

func TestRingWraparound(t *testing.T) {
	l := New(Options{Level: LevelDebug, RingSize: 4})
	for i := 0; i < 6; i++ {
		l.Info(fmt.Sprintf("e%d", i))
	}
	got := l.Recent()
	if len(got) != 4 {
		t.Fatalf("ring = %v, want last 4 oldest-first", got)
	}
	for i, e := range got {
		if e.Type != fmt.Sprintf("e%d", i+2) {
			t.Fatalf("ring = %v, want last 4 oldest-first", got)
		}
	}
}

func TestEventRenderingAndFields(t *testing.T) {
	e := Event{Level: LevelWarn, Type: "slow_op", Fields: []Field{F("op", "apply"), F("ms", 12.5)}}
	if got, want := e.String(), "WARN slow_op op=apply ms=12.5"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestWriterAndLogfSinks(t *testing.T) {
	var buf bytes.Buffer
	var bridged []string
	l := New(Options{
		Level: LevelInfo,
		Out:   &buf,
		Logf:  func(format string, args ...any) { bridged = append(bridged, fmt.Sprintf(format, args...)) },
	})
	l.Info("session.attach", F("session", 7))
	line := buf.String()
	if !strings.Contains(line, "INFO session.attach session=7") {
		t.Fatalf("writer sink line = %q", line)
	}
	if !strings.HasSuffix(strings.TrimSpace(line), "session=7") || !strings.Contains(line, "T") {
		t.Fatalf("writer sink must prepend a timestamp: %q", line)
	}
	if len(bridged) != 1 || bridged[0] != "INFO session.attach session=7" {
		t.Fatalf("logf bridge got %v", bridged)
	}
}

func TestSlowOp(t *testing.T) {
	l := New(Options{Level: LevelInfo, SlowOpThreshold: 10 * time.Millisecond})
	if l.SlowOp("apply", 5*time.Millisecond) {
		t.Fatal("SlowOp fired below threshold")
	}
	if !l.SlowOp("apply", 20*time.Millisecond, F("seq", 3)) {
		t.Fatal("SlowOp did not fire at 2× threshold")
	}
	evs := l.Recent()
	if len(evs) != 1 || evs[0].Type != "slow_op" || evs[0].Level != LevelWarn {
		t.Fatalf("ring after SlowOp = %+v", evs)
	}
	if f := evs[0].Fields; len(f) < 2 || f[0] != F("op", "apply") || f[1] != F("ms", 20.0) {
		t.Fatalf("slow_op fields = %v, want op=apply ms=20 first", f)
	}
	// Disabled threshold never fires.
	off := New(Options{SlowOpThreshold: -1})
	if off.SlowOp("apply", time.Hour) {
		t.Fatal("SlowOp fired with negative threshold")
	}
}

// TestNilAndNopSafety: libraries emit unconditionally, so every method
// must be a no-op on a nil *Log, and Nop() must retain nothing.
func TestNilAndNopSafety(t *testing.T) {
	var l *Log
	l.Debug("d")
	l.Info("i")
	l.Warn("w")
	l.Error("e")
	if l.Enabled(LevelError) {
		t.Fatal("nil log reports enabled")
	}
	if l.SlowOp("x", time.Hour) {
		t.Fatal("nil log fired slow_op")
	}
	if l.Recent() != nil {
		t.Fatal("nil log returned events")
	}
	n := Nop()
	n.Error("dropped")
	n.SlowOp("x", time.Hour)
	if evs := n.Recent(); len(evs) != 0 {
		t.Fatalf("Nop retained %v", evs)
	}
}

// TestConcurrentEmit exercises parallel emitters against a reader under
// -race.
func TestConcurrentEmit(t *testing.T) {
	l := New(Options{Level: LevelDebug, RingSize: 64})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Info("tick", F("w", w), F("i", i))
				l.SlowOp("op", 200*time.Millisecond)
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < 200; i++ {
			_ = l.Recent()
		}
	}()
	wg.Wait()
	<-readerDone
	if evs := l.Recent(); len(evs) != 64 {
		t.Fatalf("full ring holds %d events, want 64", len(evs))
	}
}
