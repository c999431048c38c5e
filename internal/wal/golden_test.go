package wal

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "re-record testdata/golden vectors from the literals in golden_test.go")

// TestGoldenLog pins the on-disk format: a log holding one record, as
// the header and frameRecord lay it out, decodes and re-encodes byte for
// byte.
func TestGoldenLog(t *testing.T) {
	const name = "log_one_record"
	path := filepath.Join("testdata", "golden", name+".hex")
	enc := append([]byte(magic), frameRecord(1, []byte(`{"epoch":3}`))...)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(hex.EncodeToString(enc)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vec, err := readGolden(path)
	if err != nil {
		t.Fatalf("%v (record with -update-golden)", err)
	}
	if !bytes.Equal(enc, vec) {
		t.Fatalf("encoding differs from %s:\n vector  %x\n encoded %x", path, vec, enc)
	}
	if string(vec[:len(magic)]) != magic {
		t.Fatalf("vector header %q, want %q", vec[:len(magic)], magic)
	}
	rec, next, ok := parseRecord(vec, int64(len(magic)))
	if !ok || next != int64(len(vec)) {
		t.Fatalf("vector does not parse as one record: ok=%v next=%d of %d", ok, next, len(vec))
	}
	if re := append([]byte(magic), frameRecord(rec.Type, rec.Payload)...); !bytes.Equal(re, vec) {
		t.Fatalf("decode/re-encode changed the bytes:\n vector %x\n again  %x", vec, re)
	}
}

// readGolden decodes one hex vector file (whitespace ignored).
func readGolden(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
}
