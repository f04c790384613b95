package server

import (
	"bytes"
	"fmt"
	"testing"

	"mhdedup/internal/client"
)

// TestRestoreStreamParallelPipelineBitIdentical drives the server's
// restore streaming through the executor at the shard's width
// (restoreWorkers reads in flight) and demands the framed stream deliver
// bit-identical bytes, plain and verified. The RestoreData frames must
// arrive in order no matter how the reads complete; the client's
// size/whole-file-hash check would catch any reordering or corruption.
func TestRestoreStreamParallelPipelineBitIdentical(t *testing.T) {
	if restoreWorkers < 2 {
		t.Fatalf("restoreWorkers = %d: a restore stream has no reads in flight", restoreWorkers)
	}
	srv, _, addr := startServer(t, nil)

	files := map[string][]byte{}
	ing, err := client.Connect(clientConfig(srv, addr))
	if err != nil {
		t.Fatal(err)
	}
	base := genData(21, 1<<20)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("img-%d", i)
		data := mutate(base, int64(22+i), 8, 4096)
		files[name] = data
		if err := ing.PutFile(name, bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ing.Close(); err != nil {
		t.Fatal(err)
	}

	for _, verify := range []bool{false, true} {
		for name, want := range files {
			var got bytes.Buffer
			res, err := client.Restore(clientConfig(srv, addr), name, verify, &got)
			if err != nil {
				t.Fatalf("verify=%v %s: %v", verify, name, err)
			}
			if res.Bytes != uint64(len(want)) || !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("verify=%v %s: restored %d bytes, differ=%v",
					verify, name, res.Bytes, !bytes.Equal(got.Bytes(), want))
			}
		}
	}
}
