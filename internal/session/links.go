package session

import (
	"errors"
	"sync"
	"sync/atomic"

	"mhdedup/internal/wire"
)

// LinkKey is what a kept link may be reused for: the peer it was dialed to
// and the tenant (which scopes its answers) and secret its Hello presented.
type LinkKey struct{ Peer, Tenant, Secret string }

// Links keeps sessionless connections between the requests they serve one
// after another, so a request costs no dial and no Hello. A link is either
// parked here, newest last, or owned by the one request using it; at most
// perKey idle under one key and total in all, past which the oldest close.
type Links struct {
	perKey, total int
	dials, reuses *atomic.Int64

	mu     sync.Mutex
	idle   []*link
	closed bool
}

type link struct {
	key   LinkKey
	c     *Conn
	heard atomic.Int64 // frame bytes the peer has sent on the link
}

// NewLinks builds a pool, counting into dials the links it dials and into
// reuses the requests it serves on kept ones.
func NewLinks(perKey, total int, dials, reuses *atomic.Int64) *Links {
	return &Links{perKey: perKey, total: total, dials: dials, reuses: reuses}
}

// Do runs one request on a link under key: the newest parked one, else one
// dial opens, metering what it reads into m. use sends the request, consumes
// the answer and reports whether the peer is provably back at its request
// loop (Answered); only then is the link parked — transport error, malformed
// frame, a sink that gave up mid-stream: it is closed. A parked link the peer
// dropped meanwhile fails before the peer said a word on it; that request,
// nothing of which was acted on, runs once more on a fresh dial — a retry,
// never a failover.
func (p *Links) Do(key LinkKey, dial func(m Meter) (*Conn, error), use func(c *Conn) (atLoop bool, err error)) error {
	l := p.take(key)
	for {
		reused := l != nil
		if reused {
			p.reuses.Add(1)
		} else {
			l = &link{key: key}
			c, err := dial(Meter{In: &l.heard})
			if err != nil {
				return err
			}
			l.c = c
			p.dials.Add(1)
		}
		before := l.heard.Load()
		atLoop, err := use(l.c)
		if atLoop {
			p.park(l)
			return err
		}
		l.c.Close()
		if !reused || l.heard.Load() != before || !IsTransport(err) {
			return err
		}
		l = nil
	}
}

// Answered reports whether err, the outcome of one request, leaves the peer
// at its request loop: it answered in full, or with an Error frame.
func Answered(err error) bool { return err == nil || errors.As(err, new(wire.ErrorMsg)) }

// take unparks the newest idle link under key.
func (p *Links) take(key LinkKey) *link {
	p.mu.Lock()
	defer p.mu.Unlock()
	for i := len(p.idle) - 1; i >= 0; i-- {
		if l := p.idle[i]; l.key == key {
			p.idle = append(p.idle[:i], p.idle[i+1:]...)
			return l
		}
	}
	return nil
}

// park keeps l for the next request under its key (or closes it once Close
// has run) and closes, newest to oldest, links past either bound.
func (p *Links) park(l *link) {
	p.mu.Lock()
	drop := []*link{l}
	if !p.closed {
		p.idle, drop = append(p.idle, l), nil
		for i, same := len(p.idle)-1, 0; i >= 0; i-- {
			if p.idle[i].key == l.key {
				same++
			}
			if p.idle[i].key == l.key && same > p.perKey || len(p.idle)-i-1 >= p.total {
				drop = append(drop, p.idle[i])
				p.idle = append(p.idle[:i], p.idle[i+1:]...)
			}
		}
	}
	p.mu.Unlock()
	for _, d := range drop {
		d.c.Close()
	}
}

// Close closes every parked link, and every link parked from now on.
func (p *Links) Close() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, l := range idle {
		l.c.Close()
	}
}

// Idle counts the parked links per key.
func (p *Links) Idle() map[LinkKey]int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[LinkKey]int)
	for _, l := range p.idle {
		out[l.key]++
	}
	return out
}
