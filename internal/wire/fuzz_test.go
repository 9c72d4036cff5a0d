package wire

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"flashflow/internal/cell"
)

// fuzzConn is the in-memory connection FuzzServeMux and
// FuzzServerHandshake serve: reads drain a fixed byte string and then
// report io.EOF, writes are discarded. Neither uses another net.Conn
// method.
type fuzzConn struct {
	net.Conn
	r *bytes.Reader
}

func (c fuzzConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c fuzzConn) Write(p []byte) (int, error) { return len(p), nil }

// FuzzServeMux feeds arbitrary post-authentication bytes to the target's
// serve loop. Whatever arrives, serveMux must not panic, must return once
// the stream ends, and must hand back its super arena and drop any UDP
// binding the stream made. The seed corpus lives in
// testdata/fuzz/FuzzServeMux.
func FuzzServeMux(f *testing.F) {
	id, err := NewIdentity()
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		tgt := NewTarget(TargetConfig{})
		tgt.Authorize(id.Pub)
		before := cell.ReadPoolStats()
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = tgt.serveMux(fuzzConn{r: bytes.NewReader(in)}, id.Pub)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("serveMux did not return at end of stream")
		}
		if n := cell.ReadPoolStats().Outstanding(before); n != 0 {
			t.Fatalf("%d super arenas outstanding", n)
		}
		if len(tgt.udpTokens) != 0 || len(tgt.udpAddrs) != 0 {
			t.Fatal("UDP binding left registered after the connection ended")
		}
	})
}

// FuzzUDPDatagram feeds arbitrary datagrams to serveUDPDatagram against
// fuzzUDPCircuits live circuits. Every MsmtData cell for a live circuit
// must come back served: header and send sequence intact, stamped with
// its circuit's decrypt index, and the rest of the payload decrypted at
// that index. Every other cell must come back as Padding with no other
// byte changed, and bytes past the last whole cell are left alone. The
// seed corpus lives in testdata/fuzz/FuzzUDPDatagram.
func FuzzUDPDatagram(f *testing.F) {
	f.Fuzz(func(t *testing.T, dg []byte) {
		ms := allocTestMux(t, fuzzUDPCircuits)
		ks := make([]*cell.Keystream, fuzzUDPCircuits+1)
		for id := uint32(1); id <= fuzzUDPCircuits; id++ {
			km := testCircuitKeys(id)
			k, err := cell.NewKeystream(km.ForwardKey, km.ForwardIV)
			if err != nil {
				t.Fatal(err)
			}
			ks[id] = k
		}
		orig := bytes.Clone(dg)
		served := ms.t.serveUDPDatagram(ms, dg)
		k := len(dg) / cell.Size
		if served < 0 || served > k {
			t.Fatalf("served %d data cells from a %d-cell datagram", served, k)
		}
		if !bytes.Equal(dg[k*cell.Size:], orig[k*cell.Size:]) {
			t.Fatal("bytes past the last whole cell changed")
		}
		var next [fuzzUDPCircuits + 1]uint64
		got := 0
		for i := 0; i < k; i++ {
			cb, ob := dg[i*cell.Size:(i+1)*cell.Size], orig[i*cell.Size:(i+1)*cell.Size]
			id := cell.CircIDOf(ob)
			if cell.CommandOf(ob) != cell.MsmtData || id < 1 || id > fuzzUDPCircuits {
				if cell.CommandOf(cb) != cell.Padding || !bytes.Equal(cb[:4], ob[:4]) || !bytes.Equal(cb[5:], ob[5:]) {
					t.Fatalf("cell %d: unserved cell not returned as untouched Padding", i)
				}
				continue
			}
			got++
			p, op := cell.PayloadOf(cb), cell.PayloadOf(ob)
			if !bytes.Equal(cb[:5], ob[:5]) || !bytes.Equal(p[:8], op[:8]) {
				t.Fatalf("cell %d: header or send sequence changed", i)
			}
			if idx := binary.BigEndian.Uint64(p[8:16]); idx != next[id] {
				t.Fatalf("cell %d: decrypt index %d, want %d", i, idx, next[id])
			}
			want := bytes.Clone(op[16:])
			ks[id].XORAt(want, next[id]*cell.PayloadSize+16)
			if !bytes.Equal(p[16:], want) {
				t.Fatalf("cell %d: payload is not the decrypt at index %d", i, next[id])
			}
			next[id]++
		}
		if got != served {
			t.Fatalf("served %d data cells, counted %d", served, got)
		}
	})
}

// fuzzUDPCircuits is the number of live circuits FuzzUDPDatagram serves.
const fuzzUDPCircuits = 3

// FuzzReadFrame feeds arbitrary bytes to the frame reader at both
// planes' bounds and in both read modes: it must never panic, and
// whatever it parses must re-encode to the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	var seed bytes.Buffer
	_ = WriteFrame(&seed, msmtPlane.MaxPayload, FrameHello, []byte("seed"))
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{0, 0, 0, 2, 6, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, b := range codecBounds {
			for _, m := range readModes {
				r := bytes.NewReader(data)
				scratch := m.scratch()
				consumed := 0
				for {
					ft, payload, err := ReadFrame(r, b.max, scratch)
					if err != nil {
						break
					}
					var re bytes.Buffer
					if werr := WriteFrame(&re, b.max, ft, payload); werr != nil {
						t.Fatalf("%s/%s: re-encode of parsed frame failed: %v", b.name, m.name, werr)
					}
					end := consumed + re.Len()
					if end > len(data) || !bytes.Equal(re.Bytes(), data[consumed:end]) {
						t.Fatalf("%s/%s: parsed frame does not re-encode to its source bytes at offset %d", b.name, m.name, consumed)
					}
					consumed = end
				}
			}
		}
	})
}

// fuzzHandshakeKey is the allowed key of FuzzServerHandshake; the auth
// frames in its seed corpus present its public key.
var fuzzHandshakeKey = ed25519.NewKeyFromSeed(bytes.Repeat([]byte{7}, ed25519.SeedSize))

// FuzzServerHandshake feeds arbitrary client bytes to the server side of
// the measurement-plane handshake. Whatever arrives, ServerHandshake must
// not panic and must return once the stream ends, and it must never
// authenticate: no fixed input can hold a signature over the nonce the
// server draws afresh for each connection. The seed corpus lives in
// testdata/fuzz/FuzzServerHandshake.
func FuzzServerHandshake(f *testing.F) {
	allowed := map[string]bool{string(fuzzHandshakeKey.Public().(ed25519.PublicKey)): true}
	f.Fuzz(func(t *testing.T, in []byte) {
		type result struct {
			pub ed25519.PublicKey
			err error
		}
		done := make(chan result, 1)
		go func() {
			pub, err := ServerHandshake(fuzzConn{r: bytes.NewReader(in)}, &msmtPlane, allowed)
			done <- result{pub, err}
		}()
		select {
		case r := <-done:
			if r.err == nil {
				t.Fatalf("authenticated key %x without a signature over the nonce", r.pub)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("ServerHandshake did not return at end of stream")
		}
	})
}
