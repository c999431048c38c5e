package transport

import (
	"bufio"
	"bytes"
	"maps"
	"path/filepath"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"

	"repro/internal/core"
)

// decodeBothWays decodes wire the way tests do (readFrameFrom: no
// connection state, every string a plain copy) and the way a connection
// does (header scratch and intern table), the latter twice on one state
// so both the table's miss and hit paths run. All three must agree on
// the error and, field for field, on the frame.
func decodeBothWays(t *testing.T, wire []byte) (frame, error) {
	t.Helper()
	plain, err := readFrameFrom(bytes.NewReader(wire), nil)
	var st readState
	for _, pass := range []string{"miss", "hit"} {
		var f frame
		r := bytes.NewReader(wire)
		serr := readFrame(bufio.NewReaderSize(r, largePayload), r, nil, &st, &f)
		if (err == nil) != (serr == nil) {
			t.Fatalf("decode without a table: %v; with one (%s pass): %v", err, pass, serr)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(f.header, plain.header) || !bytes.Equal(f.payload, plain.payload) {
			t.Fatalf("decode with a table (%s pass) differs:\n with    %+v\n without %+v", pass, f.header, plain.header)
		}
		f.release()
	}
	if n := len(st.names.m); n > internMaxEntries || st.names.bytes > internMaxBytes {
		t.Fatalf("intern table out of bounds: %d entries, %d bytes", n, st.names.bytes)
	}
	return plain, err
}

// FuzzFrameRoundTrip drives arbitrary frames through encodeFrame and
// both decoders (decodeBothWays) and asserts the decoded frame is
// field-for-field identical. It exercises both codecs: deliver frames take the binary
// header fast path, control frames the JSON path.
func FuzzFrameRoundTrip(f *testing.F) {
	// Corpus drawn from wire_test.go's round-trip cases.
	f.Add(byte(0), "node-a", "n/x/2", "in", "n/x/1", "out", "image/jpeg", "k", "v", uint64(42), int64(1_700_000_000_000_000_000), []byte("payload-bytes"))
	f.Add(byte(1), "x", "", "", "", "", "", "", "", uint64(0), int64(0), []byte(nil))
	f.Add(byte(2), "h1", "", "", "", "", "", "", "", uint64(7), int64(0), []byte{})
	f.Add(byte(3), "h2", "", "", "", "", "", "", "", uint64(9), int64(-1), []byte("err"))
	f.Add(byte(0), "", "", "", "", "", "", "", "", uint64(0), int64(0), []byte{0, 1, 2, 0xff})
	// Payloads past the read buffer and ending exactly at its edge.
	for _, fr := range remainderFrames() {
		h := fr.header
		f.Add(byte(0), h.From, string(h.Dst.Translator), h.Dst.Port, "", "", string(h.MsgType), "", "", uint64(0), int64(0), fr.payload)
	}

	f.Fuzz(func(t *testing.T, kind byte, from, dstTr, dstPort, srcTr, srcPort, msgType, hk, hv string, seq uint64, sent int64, payload []byte) {
		var fr frame
		switch kind % 4 {
		case 0:
			fr.header = frameHeader{
				Type:    frameDeliver,
				From:    from,
				Dst:     core.PortRef{Translator: core.TranslatorID(dstTr), Port: dstPort},
				Src:     core.PortRef{Translator: core.TranslatorID(srcTr), Port: srcPort},
				MsgType: core.DataType(msgType),
				Seq:     seq,
			}
			if sent != 0 {
				fr.header.Sent = time.Unix(0, sent)
			}
			if hk != "" || hv != "" {
				fr.header.Headers = map[string]string{hk: hv}
			}
			fr.payload = payload
		case 1:
			fr.header = frameHeader{Type: frameHello, From: from}
		case 2:
			fr.header = frameHeader{Type: frameAck, From: from, ID: seq, PathID: PathID(dstTr)}
		case 3:
			fr.header = frameHeader{Type: frameError, From: from, ID: seq, Err: hv}
			fr.payload = payload
		}
		if fr.header.Type != frameDeliver {
			// encoding/json replaces invalid UTF-8 with U+FFFD, which is
			// lossy by design; the binary deliver codec is byte-exact.
			for _, s := range []string{from, dstTr, hv} {
				if !utf8.ValidString(s) {
					t.Skip("invalid UTF-8 through JSON codec")
				}
			}
		}

		wire, err := encodeFrame(fr)
		if err != nil {
			// Only the size bound may reject a frame built from valid
			// fields.
			if len(payload) <= maxFrameSize/2 {
				t.Fatalf("encode rejected in-bounds frame: %v", err)
			}
			return
		}
		got, err := decodeBothWays(t, wire)
		if err != nil {
			t.Fatalf("decode of freshly encoded frame failed: %v", err)
		}
		defer got.release()

		h, g := fr.header, got.header
		if g.Type != h.Type || g.From != h.From || g.ID != h.ID ||
			g.Dst != h.Dst || g.Src != h.Src || g.MsgType != h.MsgType ||
			g.Seq != h.Seq || g.PathID != h.PathID || g.Err != h.Err {
			t.Fatalf("header mismatch:\n sent %+v\n got  %+v", h, g)
		}
		if !g.Sent.Equal(h.Sent) {
			t.Fatalf("Sent mismatch: sent %v got %v", h.Sent, g.Sent)
		}
		if !maps.Equal(g.Headers, h.Headers) {
			t.Fatalf("Headers mismatch: sent %v got %v", h.Headers, g.Headers)
		}
		if !bytes.Equal(got.payload, fr.payload) {
			t.Fatalf("payload mismatch: sent %d bytes, got %d", len(fr.payload), len(got.payload))
		}
	})
}

// FuzzFrameRead feeds raw bytes to the frame decoder: it must never
// panic, never return a frame violating the size bound, and anything it
// does accept must survive re-encoding and decode back to the same
// header.
func FuzzFrameRead(f *testing.F) {
	seed := func(fr frame) {
		if wire, err := encodeFrame(fr); err == nil {
			f.Add(wire)
			// Truncations and a flipped codec bit probe the error paths.
			f.Add(wire[:len(wire)/2])
			mut := bytes.Clone(wire)
			mut[0] ^= 0x80
			f.Add(mut)
		}
	}
	seed(frame{header: frameHeader{Type: frameHello, From: "x"}})
	seed(deliverFrame("node-a", core.PortRef{Translator: "n/x/2", Port: "in"},
		core.NewMessage("image/jpeg", []byte("payload-bytes")).WithHeader("k", "v")))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0x80, 0, 0, 2, 1, 1})
	// A payload read past the read buffer, one ending exactly at its
	// edge, and a remainder cut short.
	for _, fr := range remainderFrames() {
		wire, err := encodeFrame(fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
		f.Add(wire[:len(wire)-1])
	}
	// Every frame type exactly as its sender encodes it.
	vectors, err := filepath.Glob(filepath.Join("testdata", "golden", "*.hex"))
	if err != nil || len(vectors) == 0 {
		f.Fatalf("no golden vectors: %v", err)
	}
	for _, path := range vectors {
		vec, err := readGolden(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(vec)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeBothWays(t, data)
		if err != nil {
			return
		}
		defer fr.release()
		wire, err := encodeFrame(fr)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		again, err := readFrameFrom(bytes.NewReader(wire), nil)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		defer again.release()
		if again.header.Type != fr.header.Type || again.header.Seq != fr.header.Seq ||
			again.header.Dst != fr.header.Dst || !bytes.Equal(again.payload, fr.payload) {
			t.Fatalf("decode/encode/decode not stable:\n first %+v\n again %+v", fr.header, again.header)
		}
	})
}

// remainderFrames returns two deliver frames: one whose payload runs
// past the read buffer, so its remainder is read directly, and one
// whose payload ends exactly at the buffer's edge.
func remainderFrames() []frame {
	mk := func(n int) frame {
		return deliverFrame("node-a", core.PortRef{Translator: "n/x/2", Port: "in"},
			core.Message{Type: "application/octet-stream", Payload: bytes.Repeat([]byte{0xa5}, n)})
	}
	head, err := encodeFrame(mk(0))
	if err != nil {
		panic(err)
	}
	return []frame{mk(largePayload + 100), mk(largePayload - len(head))}
}
