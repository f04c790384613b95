package session

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mhdedup/internal/events"
	"mhdedup/internal/wire"
)

// Table is the set of resumable ingest sessions of one endpoint, keyed by
// resume token. S is the owner's per-session state (a pointer type).
//
// Ownership rule: exactly one connection handler owns a session's S while
// the session is attached. Attach hands S to the handler; Detach (the
// connection died — park it for ResumeTimeout) and Expire (the session is
// over) hand it back, and a handler must not touch S after either. That
// is what lets S go without locks of its own for handler-only state.
//
// Epoch invariant: every attach and detach bumps the entry's epoch, and
// the resume-expiry timer carries the epoch it was armed in. A timer body
// acts only if the session is still parked in that exact epoch, checked
// and removed under one lock hold — so a timer that fired and then lost
// the lock to a resume finds a newer epoch and does nothing, instead of
// tearing down a session that has a live connection again. Stop()'s
// return value is never trusted for that.
type Table[S any] struct {
	cfg      *Config[S]
	tokenSrc atomic.Uint64

	cTotal, cActive, cResumed *atomic.Int64

	mu       sync.Mutex
	sessions map[uint64]*entry[S]
	draining bool
}

type entry[S any] struct {
	state    S
	tenant   string
	attached bool
	epoch    uint64
	timer    *time.Timer // armed while parked
}

// NewTable builds the table cfg describes (see Config for which fields
// it reads).
func NewTable[S any](cfg *Config[S]) *Table[S] {
	t := &Table[S]{cfg: cfg, sessions: make(map[uint64]*entry[S])}
	r := cfg.Registry
	t.cTotal = r.Counter(cfg.Name + ".sessions.total")
	t.cActive = r.Counter(cfg.Name + ".sessions.active")
	t.cResumed = r.Counter(cfg.Name + ".sessions.resumed")
	r.SetGauge(cfg.Name+".sessions.live", func() int64 { return int64(t.Len()) })
	// Seeded from the clock so resume tokens from a previous process
	// incarnation are never accidentally honored.
	t.tokenSrc.Store(uint64(time.Now().UnixNano()))
	return t
}

// Len is the number of live (attached or parked) sessions.
func (t *Table[S]) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.sessions)
}

// Attach resolves a Hello to a session the caller now owns: the parked
// session hello.ResumeToken names, or a new one subject to the Admit
// hook, draining and MaxSessions. Resumes are always honored — they hold
// their resources already, and bouncing them only adds retries.
func (t *Table[S]) Attach(hello wire.Hello) (S, *wire.ErrorMsg) {
	var none S
	if tok := hello.ResumeToken; tok != 0 {
		t.mu.Lock()
		e, ok := t.sessions[tok]
		if !ok || e.tenant != hello.Tenant {
			// A token must not let one tenant continue another's session;
			// answer as if it did not exist.
			t.mu.Unlock()
			return none, &wire.ErrorMsg{Code: wire.CodeNotFound,
				Msg: fmt.Sprintf("no resumable session %d (expired?)", tok)}
		}
		if e.attached {
			t.mu.Unlock()
			return none, &wire.ErrorMsg{Code: wire.CodeBusy, Retryable: true,
				Msg: fmt.Sprintf("session %d already has a live connection", tok)}
		}
		e.timer.Stop()
		e.timer = nil
		e.epoch++
		e.attached = true
		t.mu.Unlock()
		t.cResumed.Add(1)
		t.cActive.Add(1)
		t.cfg.Events.Info(t.cfg.EventPrefix+"resume", events.F("session", tok))
		return e.state, nil
	}
	if t.cfg.Admit != nil {
		if em := t.cfg.Admit(hello); em != nil {
			return none, em
		}
	}
	t.mu.Lock()
	if t.draining {
		t.mu.Unlock()
		return none, &wire.ErrorMsg{Code: wire.CodeDraining, Retryable: true,
			Msg: t.cfg.Name + " is draining"}
	}
	if len(t.sessions) >= t.cfg.MaxSessions {
		t.mu.Unlock()
		return none, &wire.ErrorMsg{Code: wire.CodeBusy, Retryable: true,
			Msg: fmt.Sprintf("session limit reached (%d)", t.cfg.MaxSessions)}
	}
	tok := t.tokenSrc.Add(1)
	e := &entry[S]{state: t.cfg.New(tok, hello), tenant: hello.Tenant, attached: true}
	t.sessions[tok] = e
	t.mu.Unlock()
	t.cTotal.Add(1)
	t.cActive.Add(1)
	t.cfg.Events.Info(t.cfg.EventPrefix+"attach",
		events.F("session", tok), events.F("tenant", hello.Tenant))
	return e.state, nil
}

// Detach parks an attached session for resumption after its connection
// died, arming the expiry timer with the detach epoch. While draining
// nothing can reconnect, so the session expires at once instead.
func (t *Table[S]) Detach(token uint64) {
	t.mu.Lock()
	e, ok := t.sessions[token]
	if !ok || !e.attached {
		t.mu.Unlock()
		return
	}
	if t.draining {
		t.removeLocked(token, e)
		t.mu.Unlock()
		t.expired(token, e, "drain")
		return
	}
	e.attached = false
	t.cActive.Add(-1)
	e.epoch++
	epoch := e.epoch
	e.timer = time.AfterFunc(t.cfg.ResumeTimeout, func() { t.expireArmed(token, epoch) })
	t.mu.Unlock()
	t.cfg.Events.Info(t.cfg.EventPrefix+"detach",
		events.F("session", token), events.F("resumable", t.cfg.ResumeTimeout))
}

// expireArmed is the resume-window timer body; see the epoch invariant.
func (t *Table[S]) expireArmed(token, epoch uint64) {
	t.mu.Lock()
	e, ok := t.sessions[token]
	if !ok || e.attached || e.epoch != epoch {
		t.mu.Unlock()
		t.cfg.Events.Debug(t.cfg.EventPrefix+"expire_stale",
			events.F("session", token), events.F("armed_epoch", epoch))
		return
	}
	t.removeLocked(token, e)
	t.mu.Unlock()
	t.expired(token, e, "resume_timeout")
}

// Expire removes a session for good, attached or parked: an orderly end
// (aborting false) or a teardown that must abort whatever is in flight.
// Expiring an unknown token is a no-op.
func (t *Table[S]) Expire(token uint64, aborting bool) {
	t.mu.Lock()
	e, ok := t.sessions[token]
	if ok {
		t.removeLocked(token, e)
	}
	t.mu.Unlock()
	if ok && t.cfg.OnExpire != nil {
		t.cfg.OnExpire(e.state, aborting)
	}
}

// Drain refuses new sessions from now on and expires every parked one:
// the listener is closing, so a parked session can never reattach and
// would only hold the drain open for ResumeTimeout. Attached sessions
// run on to their own Close.
func (t *Table[S]) Drain() { t.sweep(false) }

// Close expires every session, attached ones included.
func (t *Table[S]) Close() { t.sweep(true) }

func (t *Table[S]) sweep(attachedToo bool) {
	t.mu.Lock()
	t.draining = true
	gone := make(map[uint64]*entry[S])
	for token, e := range t.sessions {
		if attachedToo || !e.attached {
			t.removeLocked(token, e)
			gone[token] = e
		}
	}
	t.mu.Unlock()
	for token, e := range gone {
		t.expired(token, e, "shutdown")
	}
}

// removeLocked unlinks e; the caller holds t.mu. A timer already fired
// and waiting on the lock finds the token gone and no-ops.
func (t *Table[S]) removeLocked(token uint64, e *entry[S]) {
	if e.timer != nil {
		e.timer.Stop()
		e.timer = nil
	}
	if e.attached {
		e.attached = false
		t.cActive.Add(-1)
	}
	delete(t.sessions, token)
}

// expired reports and finishes a session torn down from outside its
// handler (timer, drain, close); runs without the lock.
func (t *Table[S]) expired(token uint64, e *entry[S], reason string) {
	t.cfg.Events.Info(t.cfg.EventPrefix+"expire",
		events.F("session", token), events.F("reason", reason))
	if t.cfg.OnExpire != nil {
		t.cfg.OnExpire(e.state, true)
	}
}
