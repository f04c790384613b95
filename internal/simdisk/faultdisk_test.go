package simdisk

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func TestFaultDiskZeroPlanIsTransparent(t *testing.T) {
	d := New()
	f := NewFaultDisk(d, FaultPlan{Seed: 1})
	if err := f.Create(Data, "a", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := f.Read(Data, "a")
	if err != nil || !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("Read = %q, %v", got, err)
	}
	if !f.Exists(Data, "a") {
		t.Error("Exists = false")
	}
	if n, ok := f.Size(Data, "a"); !ok || n != 5 {
		t.Errorf("Size = %d, %v", n, ok)
	}
	if err := f.Write(Data, "a", []byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Delete(Data, "a"); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.ReadErrors+st.WriteErrors+st.TornWrites+st.ReadFlips+st.Kills != 0 {
		t.Errorf("zero plan injected faults: %+v", st)
	}
}

func TestFaultDiskDeterministic(t *testing.T) {
	run := func() (FaultStats, []error) {
		d := New()
		f := NewFaultDisk(d, FaultPlan{Seed: 42, ReadErrorRate: 0.3, WriteErrorRate: 0.3})
		var errs []error
		for i := 0; i < 50; i++ {
			name := string(rune('a' + i%26))
			errs = append(errs, f.Create(Data, name+"x", []byte("data")))
			_, err := f.Read(Data, name+"x")
			errs = append(errs, err)
		}
		return f.Stats(), errs
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across identical runs: %+v vs %+v", s1, s2)
	}
	for i := range e1 {
		if (e1[i] == nil) != (e2[i] == nil) {
			t.Fatalf("op %d fault decision differs across identical runs", i)
		}
	}
	if s1.ReadErrors == 0 || s1.WriteErrors == 0 {
		t.Errorf("expected injected faults at 30%% rates, got %+v", s1)
	}
}

func TestFaultDiskTornWrite(t *testing.T) {
	d := New()
	f := NewFaultDisk(d, FaultPlan{Seed: 7, TornWriteRate: 1})
	payload := bytes.Repeat([]byte("x"), 100)
	err := f.Create(Data, "torn", payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("torn create error = %v, want ErrInjected", err)
	}
	// The prefix was persisted: exactly what a torn write leaves.
	n, ok := d.Size(Data, "torn")
	if !ok {
		t.Fatal("torn object missing entirely")
	}
	if n >= 100 {
		t.Errorf("torn object has %d bytes, want a strict prefix", n)
	}
	if f.Stats().TornWrites != 1 {
		t.Errorf("TornWrites = %d, want 1", f.Stats().TornWrites)
	}
}

func TestFaultDiskReadFlipIsTransient(t *testing.T) {
	d := New()
	payload := bytes.Repeat([]byte{0xAA}, 64)
	if err := d.Create(Data, "a", payload); err != nil {
		t.Fatal(err)
	}
	f := NewFaultDisk(d, FaultPlan{Seed: 3, ReadFlipRate: 1})
	got, err := f.Read(Data, "a")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, payload) {
		t.Fatal("read at flip rate 1 returned clean bytes")
	}
	// Exactly one bit differs.
	diff := 0
	for i := range got {
		for b := got[i] ^ payload[i]; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("flipped %d bits, want 1", diff)
	}
	// The stored object is untouched: a direct read is clean.
	clean, err := d.Read(Data, "a")
	if err != nil || !bytes.Equal(clean, payload) {
		t.Errorf("stored object was mutated by a transient read flip")
	}
}

func TestFaultDiskKillAfterOps(t *testing.T) {
	d := New()
	f := NewFaultDisk(d, FaultPlan{Seed: 1, KillAfterOps: 3})
	if err := f.Create(Data, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := f.Create(Data, "b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := f.Create(Data, "c", []byte("3")); !errors.Is(err, ErrKilled) {
		t.Fatalf("op 3 error = %v, want ErrKilled", err)
	}
	if _, err := f.Read(Data, "a"); !errors.Is(err, ErrKilled) {
		t.Fatalf("post-kill read error = %v, want ErrKilled", err)
	}
}

func TestFaultDiskLatency(t *testing.T) {
	d := New()
	f := NewFaultDisk(d, FaultPlan{
		Seed:      1,
		OpLatency: map[Op]time.Duration{OpCreate: 2 * time.Millisecond, OpRead: time.Millisecond},
	})
	f.Create(Data, "a", []byte("x"))
	f.Read(Data, "a")
	f.Read(Data, "a")
	if got, want := f.TotalLatency(), 4*time.Millisecond; got != want {
		t.Errorf("TotalLatency = %v, want %v", got, want)
	}
}

func TestFaultDiskCategoryFilter(t *testing.T) {
	d := New()
	f := NewFaultDisk(d, FaultPlan{
		Seed:           1,
		WriteErrorRate: 1,
		Categories:     map[Category]bool{Hook: true},
	})
	if err := f.Create(Data, "a", []byte("x")); err != nil {
		t.Fatalf("Data create should be exempt, got %v", err)
	}
	if err := f.Create(Hook, "h", []byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatalf("Hook create = %v, want ErrInjected", err)
	}
}

func TestFlipStoredBitAndTruncate(t *testing.T) {
	d := New()
	payload := []byte{0x00, 0x00, 0x00, 0x00}
	if err := d.Create(Data, "a", payload); err != nil {
		t.Fatal(err)
	}
	f := NewFaultDisk(d, FaultPlan{Seed: 1})
	if err := f.FlipStoredBit(Data, "a", 9); err != nil {
		t.Fatal(err)
	}
	got, _ := d.Read(Data, "a")
	if got[1] != 0x02 {
		t.Errorf("bit 9 flip: got %v", got)
	}
	// Flip back: involution.
	if err := f.FlipStoredBit(Data, "a", 9); err != nil {
		t.Fatal(err)
	}
	got, _ = d.Read(Data, "a")
	if !bytes.Equal(got, payload) {
		t.Errorf("double flip did not restore: %v", got)
	}
	if err := f.TruncateStored(Data, "a", 2); err != nil {
		t.Fatal(err)
	}
	if n, _ := d.Size(Data, "a"); n != 2 {
		t.Errorf("truncated size = %d, want 2", n)
	}
	if err := f.TruncateStored(Data, "a", 5); err == nil {
		t.Error("truncating beyond the object size should fail")
	}
	if err := f.FlipStoredBit(Data, "missing", 0); err == nil {
		t.Error("flipping a missing object should fail")
	}
}

func TestCorruptStoredDeterministicAndExact(t *testing.T) {
	build := func() *Disk {
		d := New()
		for i := 0; i < 200; i++ {
			name := string(rune('a'+i/26)) + string(rune('a'+i%26))
			d.Create(Data, name, bytes.Repeat([]byte{byte(i)}, 32))
		}
		return d
	}
	d1, d2 := build(), build()
	c1 := NewFaultDisk(d1, FaultPlan{Seed: 99}).CorruptStored(Data, 0.1)
	c2 := NewFaultDisk(d2, FaultPlan{Seed: 99}).CorruptStored(Data, 0.1)
	if len(c1) == 0 {
		t.Fatal("10% corruption of 200 objects corrupted nothing")
	}
	if len(c1) != len(c2) {
		t.Fatalf("corruption set size differs: %d vs %d", len(c1), len(c2))
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("corruption sets differ at %d: %q vs %q", i, c1[i], c2[i])
		}
	}
	// Exactly the named objects differ from the clean build.
	clean := build()
	corruptSet := make(map[string]bool, len(c1))
	for _, n := range c1 {
		corruptSet[n] = true
	}
	for _, name := range clean.Names(Data) {
		want, _ := clean.Read(Data, name)
		got, _ := d1.Read(Data, name)
		if corruptSet[name] == bytes.Equal(want, got) {
			t.Errorf("object %q: corrupted=%v but equal=%v", name, corruptSet[name], bytes.Equal(want, got))
		}
	}
}

// TotalLatency returns the simulated latency accumulated so far under the
// plan's OpLatency table.
func (f *FaultDisk) TotalLatency() time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.latency
}
