package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"time"

	"mhdedup/internal/bloom"
	"mhdedup/internal/chunker"
	"mhdedup/internal/hashutil"
	"mhdedup/internal/simdisk"
	"mhdedup/internal/wire"
)

// bloomBytes is the filter size every engine of the benchmark runs with:
// 12 bits per expected chunk, as exp.Params sizes it from
// ExpectedInputBytes. Passed explicitly so the durable engine (which
// would default to 1 MiB) gets the filter fresh-local has.
func bloomBytes(inputBytes int64) int {
	return max(int(inputBytes/4096*12/8)+1024, 64<<10)
}

// replayLeaves re-drives each leaf layer's public API alone over the
// input of the traced repetition and times it: what chunking, hashing,
// filter probes, simdisk copies, WAL appends and wire framing cost on
// these very bytes with nothing else in the way. It fills the replay
// metrics and the estimates derived from them into r.
func (h *harness) replayLeaves(r *rep, tr *tracer, in *input) error {
	k := r.keep
	root := tr.open("replay", 0, "")
	defer tr.close(root)

	// chunker: the engine's default chunker over every file. Chunk data
	// aliases the chunker's buffer, so only the cut lengths are kept.
	var cuts [][]int
	var nchunks int
	t0 := time.Now()
	for _, f := range in.files {
		c, err := chunker.NewCDC(bytes.NewReader(f.data), chunker.Params{ECS: 4096})
		if err != nil {
			return err
		}
		var lens []int
		for {
			ch, err := c.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return fmt.Errorf("replay chunker over %s: %w", f.name, err)
			}
			lens = append(lens, len(ch.Data))
		}
		cuts = append(cuts, lens)
		nchunks += len(lens)
	}
	scan := time.Since(t0)
	tr.add("chunker.Next", root, "", t0, scan)
	r.v["chunker.scan_s"] = scan.Seconds()
	r.v["chunker.mb_s"] = mbPerS(in.bytes, scan.Seconds())
	r.v["chunker.chunks"] = float64(nchunks)
	r.v["chunker.mean_chunk_bytes"] = ratio(float64(in.bytes), float64(nchunks))

	// hashutil: SHA-1 of each of those chunks.
	sums := make([]hashutil.Sum, 0, nchunks)
	t0 = time.Now()
	for i, f := range in.files {
		off := 0
		for _, n := range cuts[i] {
			sums = append(sums, hashutil.SumBytes(f.data[off:off+n]))
			off += n
		}
	}
	d := time.Since(t0)
	tr.add("hashutil.SumBytes", root, "", t0, d)
	sha1Rate := mbPerS(in.bytes, d.Seconds())
	r.v["hashutil.sha1_mb_s"] = sha1Rate
	hashedBytes := r.v["hashutil.hashed_per_input_byte"] * float64(in.bytes)
	r.v["hashutil.est_s"] = ratio(hashedBytes/mib, sha1Rate)

	// bloom: one Add per hook the store holds, then a Test per chunk, on a
	// filter of the engine's size.
	filter, err := bloom.New(bloomBytes(in.bytes), 5)
	if err != nil {
		return err
	}
	adds := int(min(k.hooks, int64(len(sums))))
	t0 = time.Now()
	for _, s := range sums[:adds] {
		filter.Add(s)
	}
	d = time.Since(t0)
	tr.add("bloom.Add", root, "", t0, d)
	addNS := ratio(float64(d.Nanoseconds()), float64(adds))
	hits := 0
	t0 = time.Now()
	for _, s := range sums {
		if filter.Test(s) {
			hits++
		}
	}
	d = time.Since(t0)
	tr.add("bloom.Test", root, fmt.Sprint(hits, " hits"), t0, d)
	testNS := ratio(float64(d.Nanoseconds()), float64(len(sums)))
	r.v["bloom.add_ns_per_op"] = addNS
	r.v["bloom.test_ns_per_op"] = testNS
	r.v["bloom.est_s"] = (r.v["core.chunks_in"]*testNS + float64(k.hooks)*addNS) / 1e9

	// simdisk: Create then Read objects of the store's Data-object sizes,
	// the copy-in and copy-out every container pays.
	payload := in.files[0].data
	for _, f := range in.files {
		if len(f.data) > len(payload) {
			payload = f.data
		}
	}
	disk := simdisk.New()
	var dataBytes int64
	t0 = time.Now()
	for i, size := range k.dataSizes {
		size = min(size, int64(len(payload)))
		if err := disk.Create(simdisk.Data, fmt.Sprint(i), payload[:size]); err != nil {
			return err
		}
		dataBytes += size
	}
	d = time.Since(t0)
	tr.add("simdisk.Create", root, "", t0, d)
	r.v["simdisk.create_s"] = d.Seconds()
	r.v["simdisk.create_mb_s"] = mbPerS(dataBytes, d.Seconds())
	t0 = time.Now()
	for i := range k.dataSizes {
		if _, err := disk.Read(simdisk.Data, fmt.Sprint(i)); err != nil {
			return err
		}
	}
	d = time.Since(t0)
	tr.add("simdisk.Read", root, "", t0, d)
	r.v["simdisk.read_mb_s"] = mbPerS(dataBytes, d.Seconds())

	// wire: frame and decode ChunkData batches of 64 chunks, the client's
	// default offer batch.
	var frameSecs, decodeSecs float64
	var frame []byte
	for i, f := range in.files {
		off := 0
		lens := cuts[i]
		for len(lens) > 0 {
			n := min(64, len(lens))
			chunks := make([][]byte, n)
			for j, l := range lens[:n] {
				chunks[j] = f.data[off : off+l]
				off += l
			}
			lens = lens[n:]
			t0 = time.Now()
			frame = wire.AppendFrame(frame[:0], wire.TypeChunkData, wire.ChunkData{Chunks: chunks}.Marshal())
			t1 := time.Now()
			fr, err := wire.Decode(frame, 0)
			if err == nil {
				_, err = wire.UnmarshalChunkData(fr.Payload)
			}
			t2 := time.Now()
			if err != nil {
				return fmt.Errorf("replay wire: %w", err)
			}
			frameSecs += t1.Sub(t0).Seconds()
			decodeSecs += t2.Sub(t1).Seconds()
		}
	}
	r.v["wire.frame_mb_s"] = mbPerS(in.bytes, frameSecs)
	r.v["wire.decode_mb_s"] = mbPerS(in.bytes, decodeSecs)
	sent := r.v["wire.bytes_out_per_user_byte"] * float64(in.bytes)
	recv := r.v["wire.bytes_in_per_user_byte"] * float64(in.bytes)
	r.v["wire.est_s"] = ratio(sent/mib, r.v["wire.frame_mb_s"]) + ratio(recv/mib, r.v["wire.decode_mb_s"])

	// What the leaves do not explain of the engine's own time. The
	// cluster's engines sit behind the wire; its unattributed share is
	// taken against the servers' apply time instead (see runCluster).
	if put := r.v["core.put_s"]; put > 0 {
		r.v["core.self_s"] = put - r.v["chunker.scan_s"] - r.v["hashutil.est_s"] -
			r.v["bloom.est_s"] - r.v["simdisk.create_s"]
		r.v["bench.unattributed_frac"] = ratio(r.v["core.self_s"], put)
	}

	if k.walSyncs > 0 {
		return h.replayWAL(r, tr, root, k, payload)
	}
	return nil
}

// replayWAL appends records of the sizes the run logged to a WAL in a
// scratch directory, with as many group commits as the run made.
func (h *harness) replayWAL(r *rep, tr *tracer, root int, k *kept, payload []byte) error {
	dir, err := os.MkdirTemp(h.tmp, "wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, err := simdisk.OpenWAL(dir)
	if err != nil {
		return err
	}
	defer w.Close()
	every := max(len(k.walSizes)/k.walSyncs, 1)
	var logged int64
	var syncs []float64
	t0 := time.Now()
	for i, size := range k.walSizes {
		size = min(size, int64(len(payload)))
		w.Append(simdisk.WALRecord{Op: simdisk.WALSet, Cat: simdisk.Data, Name: fmt.Sprint(i), Data: payload[:size]})
		logged += size
		if (i+1)%every == 0 || i == len(k.walSizes)-1 {
			t1 := time.Now()
			if err := w.Sync(); err != nil {
				return fmt.Errorf("replay wal: %w", err)
			}
			syncs = append(syncs, ms(time.Since(t1)))
		}
	}
	d := time.Since(t0)
	tr.add("simdisk.WAL", root, "", t0, d)
	r.v["simdisk.wal_append_mb_s"] = mbPerS(logged, d.Seconds())
	r.v["simdisk.wal_sync_p50_ms"] = median(syncs)
	return nil
}
