package simdisk

import (
	"bytes"
	"testing"
)

func TestFlipStoredBitAndTruncate(t *testing.T) {
	d := New()
	payload := []byte{0x00, 0x00, 0x00, 0x00}
	if err := d.Create(Data, "a", payload); err != nil {
		t.Fatal(err)
	}
	if err := d.FlipStoredBit(Data, "a", 9); err != nil {
		t.Fatal(err)
	}
	got, _ := d.Read(Data, "a")
	if got[1] != 0x02 {
		t.Errorf("bit 9 flip: got %v", got)
	}
	// Flip back: involution.
	if err := d.FlipStoredBit(Data, "a", 9); err != nil {
		t.Fatal(err)
	}
	got, _ = d.Read(Data, "a")
	if !bytes.Equal(got, payload) {
		t.Errorf("double flip did not restore: %v", got)
	}
	if err := d.TruncateStored(Data, "a", 2); err != nil {
		t.Fatal(err)
	}
	if n, _ := d.Size(Data, "a"); n != 2 {
		t.Errorf("truncated size = %d, want 2", n)
	}
	if err := d.TruncateStored(Data, "a", 5); err == nil {
		t.Error("truncating beyond the object size should fail")
	}
	if err := d.FlipStoredBit(Data, "missing", 0); err == nil {
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
	c1 := d1.CorruptStored(Data, 0.1, 99)
	c2 := d2.CorruptStored(Data, 0.1, 99)
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
