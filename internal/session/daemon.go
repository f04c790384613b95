package session

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"mhdedup/internal/events"
)

// Daemon is the process dedupd and dedup-gw both are around their
// different servers: an event log at the -log-level flag's level, the data and
// debug listeners bound before anything serves, the debug endpoint set
// (/metrics.json, /events.json, a drain-aware /healthz, pprof) and
// serve-until-signal-then-drain.
type Daemon struct {
	Logger *log.Logger
	Events *events.Log

	ln, mln  net.Listener
	draining atomic.Bool
}

// Service is the server a Daemon runs.
type Service interface {
	Serve(net.Listener) error
	Drain(context.Context) error
}

// NewDaemon builds the loggers; name prefixes the process log. Operations
// at or above the event log's default threshold (100 ms) emit slow_op.
func NewDaemon(name, logLevel string) (*Daemon, error) {
	level, err := events.ParseLevel(logLevel)
	if err != nil {
		return nil, err
	}
	return &Daemon{
		Logger: log.New(os.Stderr, name+": ", log.LstdFlags),
		Events: events.New(events.Options{Level: level, Out: os.Stderr}),
	}, nil
}

// Listen binds the data address and, when one is given, the debug address
// — both before anything serves: a daemon that came up without its health
// endpoint would look dead to whatever watches it.
func (d *Daemon) Listen(addr, metricsAddr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if metricsAddr != "" {
		if d.mln, err = net.Listen("tcp", metricsAddr); err != nil {
			ln.Close()
			return nil, fmt.Errorf("-metrics-addr: %w", err)
		}
	}
	d.ln = ln
	return ln.Addr(), nil
}

// WriteJSON writes doc as an indented JSON response.
func WriteJSON(w http.ResponseWriter, doc any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}

// Run serves svc on the listeners Listen bound until it fails or the first
// SIGINT/SIGTERM, then drains it within DrainTimeout (a second signal kills
// the process). metrics is the /metrics.json document; admin, when not nil,
// adds the daemon's own verbs to the debug mux.
func (d *Daemon) Run(svc Service, metrics func() any, admin func(*http.ServeMux)) error {
	var msrv *http.Server
	if d.mln != nil {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) { WriteJSON(w, metrics()) })
		mux.HandleFunc("/events.json", d.serveEvents)
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			if d.draining.Load() {
				http.Error(w, "draining", http.StatusServiceUnavailable)
				return
			}
			fmt.Fprintln(w, "ok")
		})
		// The standard pprof profile set; an explicit wire-up because the
		// daemon runs its own mux, not http.DefaultServeMux.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		if admin != nil {
			admin(mux)
		}
		msrv = &http.Server{Handler: mux}
		go func() {
			if err := msrv.Serve(d.mln); err != nil && err != http.ErrServerClosed {
				d.Logger.Printf("metrics server: %v", err)
			}
		}()
		defer msrv.Close()
		d.Logger.Printf("debug endpoints on http://%s: /metrics.json /healthz /events.json /debug/pprof/", d.mln.Addr())
	}

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- svc.Serve(d.ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-sigCtx.Done():
	}
	stop() // restore default signal behavior: a second signal kills the process
	d.draining.Store(true)
	d.Logger.Printf("draining (timeout %v)...", DrainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
	defer cancel()
	if err := svc.Drain(drainCtx); err != nil {
		d.Logger.Printf("drain incomplete: %v (sessions aborted)", err)
	}
	<-serveErr
	return nil
}

// serveEvents is /events.json: the structured event ring.
func (d *Daemon) serveEvents(w http.ResponseWriter, r *http.Request) {
	type line struct {
		Time  string `json:"time"`
		Level string `json:"level"`
		Type  string `json:"type"`
		Line  string `json:"line"`
	}
	evs := d.Events.Recent()
	out := make([]line, len(evs))
	for i, e := range evs {
		out[i] = line{e.Time.Format(time.RFC3339Nano), e.Level.String(), e.Type, e.String()}
	}
	WriteJSON(w, struct {
		Events []line `json:"events"`
	}{out})
}
