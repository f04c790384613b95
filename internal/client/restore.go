package client

import (
	"errors"
	"fmt"
	"io"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/metrics"
	"mhdedup/internal/session"
	"mhdedup/internal/wire"
)

// RestoreResult summarizes one completed restore.
type RestoreResult struct {
	Bytes uint64       // bytes written to the destination
	Sum   hashutil.Sum // whole-file SHA-1, matched against the server's claim
}

// links keeps the ModeRestore connections of List, Restore and RestoreRange
// for the whole process, as net/http's default transport does: a link is
// reused only under the Addr, Tenant and Secret of its Hello, once the server
// finished answering on it (session.Links); a dial goes through Config.Dial.
var links = session.NewLinks(4, 16,
	metrics.Counter("client.restore.dials"), metrics.Counter("client.restore.link_reuses"))

// List returns the names of files restorable from the server, sorted.
func List(cfg Config) (names []string, err error) {
	err = onLink(&cfg, func(cn *session.Conn) (bool, error) {
		f, err := cn.Call(wire.TypeListReq, nil, wire.TypeListResp)
		if err == nil {
			var resp wire.ListResp
			resp, err = wire.UnmarshalListResp(f.Payload)
			names = resp.Names
		}
		return session.Answered(err), err
	})
	if err != nil {
		return nil, fmt.Errorf("client: list: %w", err)
	}
	return names, nil
}

// Restore streams one file from the server into w. With verify the
// server rebuilds it through the verifying store path (every chunk range
// re-hashed against its content address). The client independently
// checks the received stream against the server's declared size and
// SHA-1 regardless.
func Restore(cfg Config, name string, verify bool, w io.Writer) (RestoreResult, error) {
	return restore(&cfg, name, wire.TypeRestoreReq, wire.RestoreReq{Name: name, Verify: verify}.Marshal(), w)
}

// RestoreRange streams length bytes of one file starting at offset into
// w; length < 0 means through EOF, and a range reaching past EOF is
// clamped by the server (the result reports what actually arrived). The
// received stream is checked against the server's declared size and SHA-1
// of the range exactly as in a whole-file restore.
func RestoreRange(cfg Config, name string, verify bool, offset, length int64, w io.Writer) (RestoreResult, error) {
	if offset < 0 {
		return RestoreResult{}, fmt.Errorf("client: restore of %q: negative offset %d", name, offset)
	}
	req := wire.RestoreRange{Name: name, Verify: verify, Offset: uint64(offset), Length: wire.RestoreToEOF}
	if length >= 0 {
		req.Length = uint64(length)
	}
	return restore(&cfg, name, wire.TypeRestoreRange, req.Marshal(), w)
}

// restore sends one restore request and drains its reply stream into w; the
// connection holds the stream to the server's declared size and sum.
func restore(cfg *Config, name string, typ uint8, req []byte, w io.Writer) (RestoreResult, error) {
	var end wire.RestoreEnd
	err := onLink(cfg, func(cn *session.Conn) (bool, error) {
		if err := cn.Write(typ, req); err != nil {
			return false, err
		}
		var err error
		end, err = cn.ReceiveRestore(func(data []byte) error {
			_, err := w.Write(data)
			return err
		})
		return session.Answered(err), err
	})
	var em wire.ErrorMsg
	switch {
	case errors.As(err, &em):
		return RestoreResult{}, fmt.Errorf("client: server error: %w", err)
	case err != nil:
		return RestoreResult{}, fmt.Errorf("client: restore of %q: %w", name, err)
	}
	return RestoreResult{Bytes: end.TotalBytes, Sum: end.Sum}, nil
}

// onLink runs one request on a kept link for cfg, else dialAndHello's.
func onLink(cfg *Config, use func(cn *session.Conn) (atLoop bool, err error)) error {
	if err := cfg.fillDefaults(); err != nil {
		return err
	}
	hello := wire.Hello{Mode: wire.ModeRestore, Tenant: cfg.Tenant, Secret: cfg.Secret}
	return links.Do(session.LinkKey{Peer: cfg.Addr, Tenant: cfg.Tenant, Secret: cfg.Secret},
		func(m session.Meter) (*session.Conn, error) {
			cn, _, err := dialAndHello(cfg, hello, m)
			return cn, err
		}, use)
}
