package wire

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzWireDecode throws arbitrary bytes at the complete decode path —
// frame parsing, then the typed message decoder — and checks the codec's
// total-function invariants: no panic, no accepted-then-ambiguous input.
// Whenever the input does decode, re-encoding the typed message must
// reproduce the payload byte-for-byte (the codec has one canonical form),
// and re-framing must reproduce the raw frame. The two stream decoders —
// ReadFrame and ReadFrameInto — must agree with Decode on every input: all
// three run the same validators, and the fuzzer holds them to it.
func FuzzWireDecode(f *testing.F) {
	// Seed with every valid message framed, plus structured garbage.
	for _, tc := range sampleMessages() {
		f.Add(AppendFrame(nil, tc.t, tc.msg.Marshal()))
	}
	f.Add(AppendFrame(nil, TypeListReq, nil))
	f.Add(AppendFrame(nil, TypeClose, nil))
	for retired := uint8(22); retired <= 25; retired++ { // no payload grammar any more
		f.Add(AppendFrame(nil, retired, []byte("x")))
	}
	f.Add([]byte("MHDW garbage"))
	f.Add(make([]byte, HeaderSize+TrailerSize))
	f.Fuzz(func(t *testing.T, raw []byte) {
		fr, err := Decode(raw, 0)
		rf, rerr := ReadFrame(bytes.NewReader(raw), 0)
		sf, sraw, serr := streamRead(raw, 0)
		if (rerr == nil) != (serr == nil) || (rerr == nil && (rf.Type != sf.Type || !bytes.Equal(rf.Payload, sf.Payload))) {
			t.Fatalf("ReadFrame (%v) and the stream read (%v) disagree", rerr, serr)
		}
		if err == nil && (serr != nil || sf.Type != fr.Type || !bytes.Equal(sf.Payload, fr.Payload) || !bytes.Equal(sraw, raw)) {
			t.Fatalf("Decode accepted a frame the stream read did not return (%v)", serr)
		}
		if err != nil && serr == nil {
			// The one input Decode refuses and a stream reader accepts is a
			// good frame with bytes after it: the next frame's, on a stream.
			if again, aerr := Decode(sraw, 0); aerr != nil || len(sraw) >= len(raw) || again.Type != sf.Type {
				t.Fatalf("the stream read accepted what Decode refuses: %v", err)
			}
		}
		if err != nil {
			return
		}
		msg, err := UnmarshalAny(fr)
		if err != nil || msg == nil {
			return
		}
		m, ok := msg.(interface{ Marshal() []byte })
		if !ok {
			t.Fatalf("decoded message %T has no Marshal", msg)
		}
		if got := m.Marshal(); !bytes.Equal(got, fr.Payload) {
			t.Fatalf("type %s: decode/encode not canonical:\npayload %x\nreenc   %x",
				TypeName(fr.Type), fr.Payload, got)
		}
		if refr := AppendFrame(nil, fr.Type, fr.Payload); !bytes.Equal(refr, raw) {
			t.Fatalf("re-framing differs from accepted input")
		}
	})
}

// UnmarshalAny dispatches a frame to its payload decoder and returns the
// typed message: the tests' one entry into every decoder (the product
// decodes only the type it expects). Frame types without a payload grammar
// (TypeListReq, TypeClose, TypeCloseOK) require an empty payload and
// return nil.
func UnmarshalAny(f Frame) (any, error) {
	switch f.Type {
	case TypeHello:
		return UnmarshalHello(f.Payload)
	case TypeHelloOK:
		return UnmarshalHelloOK(f.Payload)
	case TypeError:
		return UnmarshalError(f.Payload)
	case TypeFileBegin:
		return UnmarshalFileBegin(f.Payload)
	case TypeOffer:
		return UnmarshalOffer(f.Payload)
	case TypeNeed:
		return UnmarshalNeed(f.Payload)
	case TypeChunkData:
		return UnmarshalChunkData(f.Payload)
	case TypeFileEnd:
		return UnmarshalFileEnd(f.Payload)
	case TypeAck:
		return UnmarshalAck(f.Payload)
	case TypeRestoreReq:
		return UnmarshalRestoreReq(f.Payload)
	case TypeRestoreRange:
		return UnmarshalRestoreRange(f.Payload)
	case TypeRestoreData:
		return UnmarshalRestoreData(f.Payload)
	case TypeRestoreEnd:
		return UnmarshalRestoreEnd(f.Payload)
	case TypeListResp:
		return UnmarshalListResp(f.Payload)
	case TypePeerFetch:
		return UnmarshalPeerFetch(f.Payload)
	case TypePeerChunks:
		return UnmarshalPeerChunks(f.Payload)
	case TypePeerPut:
		return UnmarshalPeerPut(f.Payload)
	case TypeFileDrop:
		return UnmarshalFileDrop(f.Payload)
	case TypeFileStat:
		return UnmarshalFileStat(f.Payload)
	case TypeFileStatOK:
		return UnmarshalFileStatOK(f.Payload)
	case TypeListReq, TypeClose, TypeCloseOK, TypePeerPutOK, TypeFileDropOK:
		if len(f.Payload) != 0 {
			return nil, ErrTrailing
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("wire: unknown frame type %d", f.Type)
	}
}
