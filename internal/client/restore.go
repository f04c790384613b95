package client

import (
	"errors"
	"fmt"
	"io"

	"mhdedup/internal/hashutil"
	"mhdedup/internal/session"
	"mhdedup/internal/wire"
)

// RestoreResult summarizes one completed restore.
type RestoreResult struct {
	Bytes uint64       // bytes written to the destination
	Sum   hashutil.Sum // whole-file SHA-1, matched against the server's claim
}

// List returns the names of files restorable from the server, sorted.
func List(cfg Config) ([]string, error) {
	cn, err := restoreSession(&cfg)
	if err != nil {
		return nil, err
	}
	defer cn.Close()
	f, err := cn.Call(wire.TypeListReq, nil, wire.TypeListResp)
	if err != nil {
		return nil, fmt.Errorf("client: list: %w", err)
	}
	resp, err := wire.UnmarshalListResp(f.Payload)
	if err != nil {
		return nil, fmt.Errorf("client: bad ListResp: %w", err)
	}
	cn.Goodbye()
	return resp.Names, nil
}

// Restore streams one file from the server into w. With verify the
// server rebuilds it through the verifying store path (every chunk range
// re-hashed against its content address). The client independently
// checks the received stream against the server's declared size and
// SHA-1 regardless.
func Restore(cfg Config, name string, verify bool, w io.Writer) (RestoreResult, error) {
	cn, err := restoreSession(&cfg)
	if err != nil {
		return RestoreResult{}, err
	}
	defer cn.Close()
	req := wire.RestoreReq{Name: name, Verify: verify}
	if err := cn.Write(wire.TypeRestoreReq, req.Marshal()); err != nil {
		return RestoreResult{}, err
	}
	return receiveRestore(cn, name, w)
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
	cn, err := restoreSession(&cfg)
	if err != nil {
		return RestoreResult{}, err
	}
	defer cn.Close()
	req := wire.RestoreRange{Name: name, Verify: verify, Offset: uint64(offset), Length: wire.RestoreToEOF}
	if length >= 0 {
		req.Length = uint64(length)
	}
	if err := cn.Write(wire.TypeRestoreRange, req.Marshal()); err != nil {
		return RestoreResult{}, err
	}
	return receiveRestore(cn, name, w)
}

// receiveRestore drains one reply stream into w; the connection verifies
// it against the server's declared size and sum.
func receiveRestore(cn *session.Conn, name string, w io.Writer) (RestoreResult, error) {
	end, err := cn.ReceiveRestore(func(data []byte) error {
		_, err := w.Write(data)
		return err
	})
	var em wire.ErrorMsg
	switch {
	case errors.As(err, &em):
		return RestoreResult{}, fmt.Errorf("client: server error: %w", em)
	case err != nil:
		return RestoreResult{}, fmt.Errorf("client: restore of %q: %w", name, err)
	}
	cn.Goodbye()
	return RestoreResult{Bytes: end.TotalBytes, Sum: end.Sum}, nil
}

// restoreSession dials and completes a ModeRestore handshake.
func restoreSession(cfg *Config) (*session.Conn, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	hello := wire.Hello{Mode: wire.ModeRestore, Tenant: cfg.Tenant, Secret: cfg.Secret}
	cn, _, err := dialAndHello(cfg, hello, session.Meter{})
	return cn, err
}
