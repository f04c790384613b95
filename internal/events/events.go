// Package events is the structured, leveled event log shared by the
// dedup service and CLIs. It replaces the bare `Logf func(format, args)`
// plumbing with typed events — a level, a dotted event type
// ("session.attach", "slow_op"), and ordered key=value fields — rendered
// as one line per event to a writer sink and retained in a bounded ring
// so tests (and debug endpoints) can observe transitions instead of
// grepping formatted text.
//
// The log is deliberately tiny: no dependencies, no reflection-heavy
// encoding on the hot path, and every method is safe on a nil *Log (a
// no-op), so libraries can emit unconditionally and let callers opt in.
package events

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Level orders event severities.
type Level int32

// The four levels. Debug is chatty per-operation detail, Info is
// lifecycle (session attach/detach/resume/expire, drain), Warn is
// anomalies the system absorbed (slow ops, retries), Error is failures
// surfaced to a peer or caller.
const (
	LevelDebug Level = iota
	LevelInfo
	LevelWarn
	LevelError
)

// String renders a level for the line format.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "DEBUG"
	case LevelInfo:
		return "INFO"
	case LevelWarn:
		return "WARN"
	case LevelError:
		return "ERROR"
	default:
		return fmt.Sprintf("LEVEL(%d)", int32(l))
	}
}

// ParseLevel maps a flag string to a Level (case-insensitive).
func ParseLevel(s string) (Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return LevelDebug, nil
	case "info", "":
		return LevelInfo, nil
	case "warn", "warning":
		return LevelWarn, nil
	case "error":
		return LevelError, nil
	default:
		return LevelInfo, fmt.Errorf("events: unknown level %q (want debug, info, warn or error)", s)
	}
}

// Field is one ordered key=value pair of an event.
type Field struct {
	Key   string
	Value any
}

// F builds a Field; the one-letter name keeps emit sites readable.
func F(key string, value any) Field { return Field{Key: key, Value: value} }

// Event is one structured log entry.
type Event struct {
	Time   time.Time
	Level  Level
	Type   string // dotted event type, e.g. "session.attach"
	Fields []Field
}

// String renders the event in the line format the writer sink emits
// (without the timestamp, which the sink prepends).
func (e Event) String() string {
	var b strings.Builder
	b.WriteString(e.Level.String())
	b.WriteByte(' ')
	b.WriteString(e.Type)
	for _, f := range e.Fields {
		fmt.Fprintf(&b, " %s=%v", f.Key, f.Value)
	}
	return b.String()
}

// Options configures a Log. The zero value is usable: Info level,
// 100 ms slow-op threshold, a 256-event ring, and no output sink (events
// are still retained in the ring).
type Options struct {
	// Level is the minimum level emitted; events below it are dropped
	// entirely (not even ringed).
	Level Level
	// Out, when set, receives one formatted line per event.
	Out io.Writer
	// Logf, when set, receives each event through a printf-style sink —
	// the bridge for tests (t.Logf) and legacy log.Printf plumbing.
	Logf func(format string, args ...any)
	// RingSize bounds the in-memory event ring; default 256, negative
	// disables the ring.
	RingSize int
	// SlowOpThreshold is the duration at or above which SlowOp emits a
	// warn event; default 100 ms. Negative disables slow-op events.
	SlowOpThreshold time.Duration
}

// Log is a leveled, structured event log. Safe for concurrent use; all
// methods are no-ops on a nil receiver.
type Log struct {
	level atomic.Int32
	slow  atomic.Int64 // slow-op threshold, ns; <0 disabled
	logf  func(format string, args ...any)

	mu   sync.Mutex
	out  io.Writer
	ring []Event
	next int
	full bool
}

// New builds a Log from opts.
func New(opts Options) *Log {
	ringSize := opts.RingSize
	if ringSize == 0 {
		ringSize = 256
	}
	if ringSize < 0 {
		ringSize = 0
	}
	slow := opts.SlowOpThreshold
	if slow == 0 {
		slow = 100 * time.Millisecond
	}
	l := &Log{out: opts.Out, logf: opts.Logf}
	if ringSize > 0 {
		l.ring = make([]Event, ringSize)
	}
	l.level.Store(int32(opts.Level))
	l.slow.Store(int64(slow))
	return l
}

// Nop returns a log that retains nothing and writes nowhere — the
// default for library configs whose caller did not ask for events.
func Nop() *Log {
	return New(Options{Level: LevelError + 1, RingSize: -1, SlowOpThreshold: -1})
}

// Enabled reports whether events at lv would be emitted — the guard hot
// paths use before assembling fields.
func (l *Log) Enabled(lv Level) bool {
	return l != nil && int32(lv) >= l.level.Load()
}

// Emit records one event at lv.
func (l *Log) Emit(lv Level, typ string, fields ...Field) {
	if !l.Enabled(lv) {
		return
	}
	e := Event{Time: time.Now(), Level: lv, Type: typ, Fields: fields}
	line := ""
	if l.out != nil || l.logf != nil {
		line = e.String()
	}
	logf := l.logf
	l.mu.Lock()
	if len(l.ring) > 0 {
		l.ring[l.next] = e
		l.next++
		if l.next == len(l.ring) {
			l.next = 0
			l.full = true
		}
	}
	if l.out != nil {
		fmt.Fprintf(l.out, "%s %s\n", e.Time.Format(time.RFC3339Nano), line)
	}
	l.mu.Unlock()
	// The printf sink runs outside the mutex: t.Logf and log.Printf do
	// their own locking, and a slow sink must not serialize emitters.
	if logf != nil {
		logf("%s", line)
	}
}

// Debug emits a LevelDebug event.
func (l *Log) Debug(typ string, fields ...Field) { l.Emit(LevelDebug, typ, fields...) }

// Info emits a LevelInfo event.
func (l *Log) Info(typ string, fields ...Field) { l.Emit(LevelInfo, typ, fields...) }

// Warn emits a LevelWarn event.
func (l *Log) Warn(typ string, fields ...Field) { l.Emit(LevelWarn, typ, fields...) }

// Error emits a LevelError event.
func (l *Log) Error(typ string, fields ...Field) { l.Emit(LevelError, typ, fields...) }

// SlowOp emits a warn-level "slow_op" event when d is at or above the
// configured threshold: the observability primitive that makes "this
// frame took 3 s to apply" visible without tracing every frame. It
// returns whether the event fired.
func (l *Log) SlowOp(op string, d time.Duration, fields ...Field) bool {
	if l == nil {
		return false
	}
	thr := time.Duration(l.slow.Load())
	if thr < 0 || d < thr {
		return false
	}
	fs := make([]Field, 0, len(fields)+2)
	fs = append(fs, F("op", op), F("ms", float64(d)/float64(time.Millisecond)))
	fs = append(fs, fields...)
	l.Emit(LevelWarn, "slow_op", fs...)
	return true
}

// Recent returns the ring contents, oldest first — how tests assert on
// lifecycle transitions and how a debug endpoint can expose the last N
// events.
func (l *Log) Recent() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ring) == 0 {
		return nil
	}
	var out []Event
	if l.full {
		out = make([]Event, 0, len(l.ring))
		out = append(out, l.ring[l.next:]...)
		out = append(out, l.ring[:l.next]...)
	} else {
		out = append(out, l.ring[:l.next]...)
	}
	return out
}
