package transport

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/qos"
)

var updateGolden = flag.Bool("update-golden", false, "re-record testdata/golden vectors from the literals in golden_test.go")

// goldenFrames lists one frame per type, as its sender emits it. Golden
// vectors under testdata/golden pin the wire: binary deliver headers and
// JSON control headers alike. encodeDeliverHeader writes Headers in map
// order, so deliver vectors carry at most one header.
func goldenFrames() map[string]frame {
	cam := core.PortRef{Translator: "h1/umiddle/cam", Port: "out"}
	tv := core.PortRef{Translator: "h2/upnp/tv", Port: "in"}
	sent := time.Unix(0, 1760659200123456789)
	return map[string]frame{
		"frame_hello": {header: frameHeader{Type: frameHello, From: "h1"}},
		"frame_connect_static": {header: frameHeader{Type: frameConnect, From: "h1", ID: 7,
			Src: cam, Dst: tv, Class: &qos.Class{BufferCapacity: 64, Policy: qos.Block}}},
		"frame_connect_query": {header: frameHeader{Type: frameConnect, From: "h1", ID: 8, Src: cam,
			Query: &core.Query{Platform: "upnp", Ports: []core.PortTemplate{{Kind: core.Digital, Direction: core.Input, Type: "text/*"}},
				ExcludeID: "h1/umiddle/cam"},
			Class: &qos.Class{RateMessagesPerSec: 100}}},
		"frame_deliver_direct": {header: frameHeader{Type: frameDeliver, From: "h1", Dst: tv, Src: cam,
			MsgType: "text/plain", Headers: map[string]string{"k": "v"}, Seq: 42, Sent: sent},
			payload: []byte("hello")},
		"frame_deliver_routed": {header: frameHeader{Type: frameDeliver, From: "h1", Dst: tv, Src: cam,
			MsgType: "text/plain", Seq: 43, Sent: sent, Route: []string{"b", "h2"}, TTL: 8, RelayID: 99},
			payload: []byte("hello")},
		"frame_ack":        {header: frameHeader{Type: frameAck, From: "h2", ID: 7, PathID: "h2:path-3"}},
		"frame_error":      {header: frameHeader{Type: frameError, From: "h2", ID: 8, PathID: "", Err: "directory: translator not found"}},
		"frame_disconnect": {header: frameHeader{Type: frameDisconnect, From: "h1", ID: 9, PathID: "h2:path-3"}},
	}
}

func TestGoldenFrames(t *testing.T) {
	for name, fr := range goldenFrames() {
		t.Run(name, func(t *testing.T) {
			enc, err := encodeFrame(fr)
			if err != nil {
				t.Fatal(err)
			}
			vec := checkGolden(t, name, enc)
			dec, err := readFrameFrom(bytes.NewReader(vec), nil)
			if err != nil {
				t.Fatalf("vector does not decode: %v", err)
			}
			defer dec.release()
			re, err := encodeFrame(dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, vec) {
				t.Fatalf("decode/re-encode changed the bytes:\n vector %q\n again  %q", vec, re)
			}
		})
	}
}

// checkGolden compares a literal's encoding with its recorded vector
// (re-recording it first under -update-golden) and returns the vector.
func checkGolden(t *testing.T, name string, enc []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".hex")
	if *updateGolden {
		var b strings.Builder
		for rest := enc; len(rest) > 0; {
			n := min(len(rest), 32)
			b.WriteString(hex.EncodeToString(rest[:n]))
			b.WriteByte('\n')
			rest = rest[n:]
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vec, err := readGolden(path)
	if err != nil {
		t.Fatalf("%v (record with -update-golden)", err)
	}
	if !bytes.Equal(enc, vec) {
		t.Fatalf("encoding differs from %s:\n vector  %q\n encoded %q", path, vec, enc)
	}
	return vec
}

// readGolden decodes one hex vector file (whitespace ignored).
func readGolden(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
}
