package core

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"mhdedup/internal/simdisk"
)

// cancelAfterReader cancels the context after n reads, then keeps
// serving data — so the only way PutFileContext returns early is the
// per-chunk cancellation check.
type cancelAfterReader struct {
	r      io.Reader
	n      int32
	reads  atomic.Int32
	cancel context.CancelFunc
}

func (c *cancelAfterReader) Read(p []byte) (int, error) {
	if c.reads.Add(1) == c.n {
		c.cancel()
	}
	return c.r.Read(p)
}

func testCfg() Config {
	cfg := DefaultConfig()
	cfg.ECS = 512
	cfg.SD = 4
	return cfg
}

func TestPutFileContextCancelAbortsMidFile(t *testing.T) {
	d, err := New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	src := &cancelAfterReader{r: io.LimitReader(neverEnding{data}, 1<<30), n: 3, cancel: cancel}
	err = d.NewSession().PutFileContext(ctx, "f", src)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The aborted file must not be restorable: no FileManifest was
	// written.
	if names := d.Disk().Names(simdisk.FileManifest); len(names) != 0 {
		t.Fatalf("aborted file left FileManifests: %v", names)
	}
	// The engine stays usable for the next file.
	if err := d.PutFile("ok", io.LimitReader(neverEnding{data}, 64<<10)); err != nil {
		t.Fatalf("engine unusable after aborted file: %v", err)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// neverEnding repeats data forever.
type neverEnding struct{ data []byte }

func (n neverEnding) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = n.data[i%len(n.data)]
	}
	return len(p), nil
}

func TestPutFileContextCancelWithPipeline(t *testing.T) {
	d, err := New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	data := make([]byte, 4096)
	rand.New(rand.NewSource(2)).Read(data)
	src := &cancelAfterReader{r: io.LimitReader(neverEnding{data}, 1<<30), n: 5, cancel: cancel}
	errCh := make(chan error, 1)
	go func() { errCh <- d.NewSession().PutFileContext(ctx, "f", src) }()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled ingest did not return (pipeline leak?)")
	}
}

func TestIngestStreamsContextCancelStopsWorkers(t *testing.T) {
	d, err := New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	data := make([]byte, 256<<10)
	rand.New(rand.NewSource(3)).Read(data)
	var opened atomic.Int32
	mk := func(name string) Stream {
		return Stream{Name: name, Items: []Item{{
			Name: name,
			Open: func() (io.ReadCloser, error) {
				if opened.Add(1) == 2 {
					cancel()
				}
				return io.NopCloser(neverEndingLimited(data, 1<<20)), nil
			},
		}}}
	}
	streams := make([]Stream, 16)
	for i := range streams {
		streams[i] = mk(string(rune('a' + i)))
	}
	err = d.IngestStreamsContext(ctx, 4, streams)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Cancellation must stop the stream hand-out: nowhere near all 16
	// streams should have been opened.
	if n := opened.Load(); int(n) >= len(streams) {
		t.Fatalf("all %d streams opened despite cancellation", n)
	}
}

func neverEndingLimited(data []byte, limit int64) io.Reader {
	return io.LimitReader(neverEnding{data}, limit)
}

func TestIngestStreamsContextPreCancelled(t *testing.T) {
	d, err := New(testCfg())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	streams := []Stream{{Name: "s", Items: []Item{{
		Name: "f",
		Open: func() (io.ReadCloser, error) {
			t.Error("Open called despite pre-cancelled context")
			return nil, io.EOF
		},
	}}}}
	if err := d.IngestStreamsContext(ctx, 1, streams); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
