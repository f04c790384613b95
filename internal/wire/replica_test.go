package wire

import (
	"bytes"
	"fmt"
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

// retiredTypes are frame numbers no grammar may take again: 22–25 carried
// the byte-stream migration, 28–29 the presence query shard listings
// replaced.
var retiredTypes = []uint8{22, 23, 24, 25, 28, 29}

// TestReplicaFramesDispatch pins that UnmarshalAny routes every replica
// plane frame type, that the bare ack frame demands an empty payload, and
// that the retired numbers decode as no frame at all.
func TestReplicaFramesDispatch(t *testing.T) {
	if _, err := UnmarshalAny(Frame{Type: TypeFileDrop, Payload: FileDrop{Name: "x"}.Marshal()}); err != nil {
		t.Errorf("FileDrop: dispatch failed: %v", err)
	}
	if _, err := UnmarshalAny(Frame{Type: TypeFileDropOK, Payload: nil}); err != nil {
		t.Errorf("FileDropOK: empty payload rejected: %v", err)
	}
	if _, err := UnmarshalAny(Frame{Type: TypeFileDropOK, Payload: []byte{1}}); err == nil {
		t.Error("FileDropOK: non-empty payload accepted")
	}
	for _, retired := range retiredTypes {
		if _, err := UnmarshalAny(Frame{Type: retired}); err == nil {
			t.Errorf("retired frame type %d decoded", retired)
		}
		if name := TypeName(retired); name != fmt.Sprintf("type%d", retired) {
			t.Errorf("retired frame type %d is named %s", retired, name)
		}
	}
}

// FuzzWireReplicaDecode hammers the replica-plane decoders with
// truncation, oversize fields and bad versions, and checks the
// canonical-encode invariant: any payload a decoder accepts must re-encode
// byte-identically. The retired presence-query numbers 28–29 are in its
// range and must decode as nothing, whatever their payload.
func FuzzWireReplicaDecode(f *testing.F) {
	f.Add(uint8(TypeFileDrop), FileDrop{Name: "t/file"}.Marshal())
	f.Add(uint8(TypeFileDropOK), []byte{})
	// Structured garbage: truncated strings, a bad version, an empty name,
	// a payload on the bare ack.
	f.Add(uint8(TypeFileDrop), []byte{fileDropVersion, 0xff, 0xff})
	f.Add(uint8(TypeFileDrop), []byte{fileDropVersion + 1, 0, 1, 'x'})
	f.Add(uint8(TypeFileDrop), []byte{fileDropVersion, 0, 0})
	f.Add(uint8(TypeFileDropOK), []byte{0})
	// The retired frames with the payloads they used to carry.
	f.Add(uint8(28), []byte{1, 0, 0, 0, 1, 0, 1, 'x'})
	f.Add(uint8(29), []byte{0, 0, 0, 1, 1})
	f.Add(uint8(28), []byte{})
	const last = 29
	f.Fuzz(func(t *testing.T, typ uint8, payload []byte) {
		ft := typ
		if ft < TypeFileDrop || ft > last {
			ft = TypeFileDrop + typ%(last-TypeFileDrop+1)
		}
		msg, err := UnmarshalAny(Frame{Type: ft, Payload: payload})
		if ft > TypeFileDropOK && err == nil {
			t.Fatalf("frame type %d decoded; it is not a replica-plane frame", ft)
		}
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
