package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/quick"
)

// codecBounds are the payload bounds the two planes read under: the
// measurement plane's, and the control plane's (internal/rpc's plane,
// which this package cannot import). Every codec test runs at both.
var codecBounds = []struct {
	name string
	max  int
}{
	{"msmt", msmtPlane.MaxPayload},
	{"control", 64 << 20},
}

// readMode is one of the codec's two read paths: into a caller's scratch
// buffer (the handshake), or into a fresh allocation the caller owns (the
// control plane's request and response loop).
type readMode struct {
	name    string
	scratch func() []byte
}

var readModes = []readMode{
	{"scratch", func() []byte { return make([]byte, handshakeScratchLen) }},
	{"alloc", func() []byte { return nil }},
}

// forEachCodec runs f as a subtest at every bound in every read mode.
func forEachCodec(t *testing.T, f func(t *testing.T, max int, m readMode)) {
	for _, b := range codecBounds {
		for _, m := range readModes {
			t.Run(b.name+"/"+m.name, func(t *testing.T) { f(t, b.max, m) })
		}
	}
}

// TestFrameRoundTrip covers the codec's edge payloads up to each bound. A
// payload that fits the scratch buffer is decoded into it; any other is
// a fresh allocation.
func TestFrameRoundTrip(t *testing.T) {
	forEachCodec(t, func(t *testing.T, max int, m readMode) {
		cases := [][]byte{nil, {}, {0}, []byte("payload"), bytes.Repeat([]byte{7}, handshakeScratchLen+1), bytes.Repeat([]byte{9}, min(max, 65536))}
		for _, payload := range cases {
			scratch := m.scratch()
			var buf bytes.Buffer
			if err := WriteFrame(&buf, max, FrameAuth, payload); err != nil {
				t.Fatal(err)
			}
			ft, got, err := ReadFrame(&buf, max, scratch)
			if err != nil {
				t.Fatal(err)
			}
			if ft != FrameAuth || !bytes.Equal(got, payload) || buf.Len() != 0 {
				t.Fatalf("round trip: type=%d len(got)=%d len(want)=%d, %d bytes unread", ft, len(got), len(payload), buf.Len())
			}
			inScratch := len(got) > 0 && len(scratch) > 0 && &got[0] == &scratch[0]
			if want := len(got) > 0 && len(got) <= len(scratch); inScratch != want {
				t.Fatalf("%d-byte payload, %d-byte scratch: decoded into scratch = %v, want %v", len(got), len(scratch), inScratch, want)
			}
		}
	})
}

// TestFrameEmptyPayload: a frame with no payload (the handshake's auth-ok)
// reads back as its type and an empty payload.
func TestFrameEmptyPayload(t *testing.T) {
	forEachCodec(t, func(t *testing.T, max int, m readMode) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, max, FrameAuthOK, nil); err != nil {
			t.Fatal(err)
		}
		ft, payload, err := ReadFrame(&buf, max, m.scratch())
		if err != nil {
			t.Fatal(err)
		}
		if ft != FrameAuthOK || len(payload) != 0 || buf.Len() != 0 {
			t.Fatalf("empty frame: type=%v payload=%v, %d bytes left unread", ft, payload, buf.Len())
		}
	})
}

// Property: arbitrary bytes either fail to parse or parse to a frame
// whose payload is within the bound and consumed exactly its header and
// payload from the input.
func TestReadFrameFuzzQuick(t *testing.T) {
	forEachCodec(t, func(t *testing.T, max int, m readMode) {
		f := func(data []byte) bool {
			r := bytes.NewReader(data)
			_, payload, err := ReadFrame(r, max, m.scratch())
			if err != nil {
				return true // malformed input must error, not panic
			}
			return len(payload) <= max && len(data)-r.Len() == frameHeaderLen+len(payload)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
			t.Fatal(err)
		}
	})
}

// Property: WriteFrame → ReadFrame round-trips arbitrary types and
// payloads.
func TestFrameRoundTripQuick(t *testing.T) {
	forEachCodec(t, func(t *testing.T, max int, m readMode) {
		f := func(ft uint8, payload []byte) bool {
			if len(payload) > max {
				payload = payload[:max]
			}
			var buf bytes.Buffer
			if err := WriteFrame(&buf, max, FrameType(ft), payload); err != nil {
				return false
			}
			gotType, gotPayload, err := ReadFrame(&buf, max, m.scratch())
			if err != nil {
				return false
			}
			return gotType == FrameType(ft) && bytes.Equal(gotPayload, payload)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFrameTooLarge: the writer refuses a payload over the bound, and the
// reader refuses a length prefix over it before allocating for it, in
// either read mode.
func TestFrameTooLarge(t *testing.T) {
	forEachCodec(t, func(t *testing.T, max int, m readMode) {
		if err := WriteFrame(io.Discard, max, FrameAuth, make([]byte, max+1)); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("write oversized = %v, want ErrFrameTooLarge", err)
		}
		for _, n := range []uint32{uint32(max) + 1, 0xFFFFFFFF} {
			hdr := binary.BigEndian.AppendUint32(nil, n)
			hdr = append(hdr, byte(FrameAuth))
			scratch := m.scratch()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _, err := ReadFrame(bytes.NewReader(hdr), max, scratch)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrFrameTooLarge) {
				t.Fatalf("declared length %d: read = %v, want ErrFrameTooLarge", n, err)
			}
			if allocated := after.TotalAlloc - before.TotalAlloc; allocated >= uint64(max) {
				t.Fatalf("declared length %d: allocated %d bytes before refusing", n, allocated)
			}
		}
	})
}

// TestFrameTruncated applies the durable store's torn-tail discipline to
// the codec: a valid two-frame stream cut at every byte offset yields
// each complete frame, then io.EOF when the cut is on a frame boundary or
// io.ErrUnexpectedEOF when it is not — never a garbage frame and never a
// hang. The second frame does not fit the scratch buffer, so the scratch
// mode cuts both of its decode paths.
func TestFrameTruncated(t *testing.T) {
	forEachCodec(t, func(t *testing.T, max int, m readMode) {
		var full bytes.Buffer
		if err := WriteFrame(&full, max, FrameHello, []byte("first-payload")); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrame(&full, max, FrameWelcome, bytes.Repeat([]byte{0xEE}, 300)); err != nil {
			t.Fatal(err)
		}
		stream := full.Bytes()
		boundary1 := frameHeaderLen + len("first-payload")
		scratch := m.scratch()

		for cut := 0; cut <= len(stream); cut++ {
			r := bytes.NewReader(stream[:cut])
			var framesRead int
			var finalErr error
			for {
				ft, payload, err := ReadFrame(r, max, scratch)
				if err != nil {
					finalErr = err
					break
				}
				switch framesRead {
				case 0:
					if ft != FrameHello || string(payload) != "first-payload" {
						t.Fatalf("cut=%d: frame 0 corrupted: type=%d payload=%q", cut, ft, payload)
					}
				case 1:
					if ft != FrameWelcome || len(payload) != 300 {
						t.Fatalf("cut=%d: frame 1 corrupted: type=%d len=%d", cut, ft, len(payload))
					}
				default:
					t.Fatalf("cut=%d: phantom frame %d", cut, framesRead)
				}
				framesRead++
			}
			wantFrames := 0
			if cut >= boundary1 {
				wantFrames = 1
			}
			if cut == len(stream) {
				wantFrames = 2
			}
			if framesRead != wantFrames {
				t.Fatalf("cut=%d: read %d frames, want %d", cut, framesRead, wantFrames)
			}
			if atBoundary := cut == 0 || cut == boundary1 || cut == len(stream); atBoundary {
				if finalErr != io.EOF {
					t.Fatalf("cut=%d (boundary): err = %v, want io.EOF", cut, finalErr)
				}
			} else if !errors.Is(finalErr, io.ErrUnexpectedEOF) {
				t.Fatalf("cut=%d (torn): err = %v, want io.ErrUnexpectedEOF", cut, finalErr)
			}
		}
	})
}
