package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestFileDropRejectsBadInput(t *testing.T) {
	good := FileDrop{Name: "t/x"}.Marshal()
	if _, err := UnmarshalFileDrop(good); err != nil {
		t.Fatalf("good payload rejected: %v", err)
	}
	for name, p := range map[string][]byte{
		"empty":       {},
		"bad version": append([]byte{77}, good[1:]...),
		"empty name":  FileDrop{Name: ""}.Marshal(),
		"truncated":   good[:2],
	} {
		if _, err := UnmarshalFileDrop(p); err == nil {
			t.Errorf("%s: accepted %x", name, p)
		}
	}
}

func TestFileStatHostileCount(t *testing.T) {
	s := FileStat{Names: []string{"a", strings.Repeat("n", 64), ""}}
	got, err := UnmarshalFileStat(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Names) != 3 || got.Names[1] != s.Names[1] {
		t.Fatalf("round trip: %+v", got)
	}
	// Hostile count: 2^31 declared names in a 16-byte payload must be
	// rejected by the count guard (each name needs >= 2 bytes).
	hostile := []byte{fileStatVersion}
	hostile = putU32(hostile, 1<<31)
	hostile = append(hostile, make([]byte, 11)...)
	if _, err := UnmarshalFileStat(hostile); !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrFieldRange) {
		t.Errorf("hostile count: got %v", err)
	}
	// Count over the hard cap with enough bytes behind it.
	over := []byte{fileStatVersion}
	over = putU32(over, MaxStatNames+1)
	over = append(over, make([]byte, 2*(MaxStatNames+1))...)
	if _, err := UnmarshalFileStat(over); !errors.Is(err, ErrFieldRange) {
		t.Errorf("over-cap count: got %v", err)
	}
}

func TestFileStatOKHostileCount(t *testing.T) {
	s := FileStatOK{Present: []bool{true, false, true}}
	got, err := UnmarshalFileStatOK(s.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Present) != 3 || !got.Present[0] || got.Present[1] {
		t.Fatalf("round trip: %+v", got)
	}
	hostile := putU32(nil, 1<<31)
	if _, err := UnmarshalFileStatOK(hostile); err == nil {
		t.Error("hostile count accepted")
	}
}

// TestReplicaFramesDispatch pins that UnmarshalAny routes every replica
// plane frame type, that the bare ack frame demands an empty payload, and
// that the retired numbers 22–25 decode as no frame at all.
func TestReplicaFramesDispatch(t *testing.T) {
	for _, tc := range []struct {
		t   uint8
		msg interface{ Marshal() []byte }
	}{
		{TypeFileDrop, FileDrop{Name: "x"}},
		{TypeFileStat, FileStat{Names: []string{"x"}}},
		{TypeFileStatOK, FileStatOK{Present: []bool{true}}},
	} {
		if _, err := UnmarshalAny(Frame{Type: tc.t, Payload: tc.msg.Marshal()}); err != nil {
			t.Errorf("%s: dispatch failed: %v", TypeName(tc.t), err)
		}
	}
	if _, err := UnmarshalAny(Frame{Type: TypeFileDropOK, Payload: nil}); err != nil {
		t.Errorf("FileDropOK: empty payload rejected: %v", err)
	}
	if _, err := UnmarshalAny(Frame{Type: TypeFileDropOK, Payload: []byte{1}}); err == nil {
		t.Error("FileDropOK: non-empty payload accepted")
	}
	for retired := uint8(22); retired <= 25; retired++ {
		if _, err := UnmarshalAny(Frame{Type: retired}); err == nil {
			t.Errorf("retired frame type %d decoded", retired)
		}
		if name := TypeName(retired); name != fmt.Sprintf("type%d", retired) {
			t.Errorf("retired frame type %d is named %s", retired, name)
		}
	}
}

// FuzzWireReplicaDecode hammers the replica-plane decoders with
// hostile counts, truncation and oversize fields, and checks the
// canonical-encode invariant: any payload a decoder accepts must
// re-encode byte-identically.
func FuzzWireReplicaDecode(f *testing.F) {
	f.Add(uint8(TypeFileDrop), FileDrop{Name: "t/file"}.Marshal())
	f.Add(uint8(TypeFileStat), FileStat{Names: []string{"a", "b", "c"}}.Marshal())
	f.Add(uint8(TypeFileStatOK), FileStatOK{Present: []bool{true, false}}.Marshal())
	f.Add(uint8(TypeFileDropOK), []byte{})
	// Structured garbage: hostile counts, truncated strings, a bad version.
	hostile := []byte{fileStatVersion}
	hostile = binary.BigEndian.AppendUint32(hostile, 0xffffffff)
	f.Add(uint8(TypeFileStat), hostile)
	f.Add(uint8(TypeFileDrop), []byte{fileDropVersion, 0xff, 0xff})
	f.Add(uint8(TypeFileStatOK), binary.BigEndian.AppendUint32(nil, 1<<31))
	f.Add(uint8(TypeFileStat), []byte{fileStatVersion, 0, 0, 0, 1, 0, 9, 'x'})
	f.Add(uint8(TypeFileDrop), []byte{fileDropVersion + 1, 0, 1, 'x'})
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		ft := typ
		if ft < TypeFileDrop || ft > TypeFileStatOK {
			ft = TypeFileDrop + typ%(TypeFileStatOK-TypeFileDrop+1)
		}
		msg, err := UnmarshalAny(Frame{Type: ft, Payload: payload})
		if err != nil || msg == nil {
			return
		}
		m, ok := msg.(interface{ Marshal() []byte })
		if !ok {
			t.Fatalf("decoded %T has no Marshal", msg)
		}
		if got := m.Marshal(); !bytes.Equal(got, payload) {
			t.Fatalf("%s: decode/encode not canonical:\npayload %x\nreenc   %x",
				TypeName(ft), payload, got)
		}
	})
}
