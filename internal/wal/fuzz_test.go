package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALReplay feeds arbitrary bytes to the replay path as if they were
// a log file recovered after a crash. The recovery contract under test:
//
//  1. Open never panics and never errors on content that begins with a
//     valid header — damage costs the records after it, not the log.
//  2. Whatever replays is a valid prefix: re-encoding the replayed
//     records after the header byte-matches the file up to the torn
//     tail that Open truncated.
//  3. The log stays usable: an append after recovery replays back.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(magic))
	f.Add([]byte(magic + "garbage after header"))
	// One valid record, then garbage.
	valid := append([]byte(magic), frameRecord(1, []byte(`{"epoch":3}`))...)
	f.Add(append(append([]byte(nil), valid...), 0xFF, 0x00, 0x13))
	// A record whose length word claims more than the file holds.
	f.Add(append(append([]byte(nil), valid...), 0xFF, 0xFF, 0xFF, 0x7F, 0x01))
	// Bit-flipped checksum.
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-1] ^= 0x01
	f.Add(flipped)
	// Zero-type record (invalid on purpose).
	f.Add(append([]byte(magic), frameRecord(1, nil)[0:5]...))
	// The golden log, exactly as the format lays it out. Payloads are
	// opaque here, so the directory's record vectors add nothing.
	vec, err := readGolden(filepath.Join("testdata", "golden", "log_one_record.hex"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(vec)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path)
		if err != nil {
			// Only a non-wal header may be refused; a file that starts
			// with the magic must always open.
			if len(data) >= len(magic) && string(data[:len(magic)]) == magic {
				t.Fatalf("Open refused a log with valid header: %v", err)
			}
			return
		}
		replayed := append([]Record(nil), l.Replayed()...)

		// Prefix property: re-encoding the replayed records reproduces
		// the file content Open kept.
		want := []byte(magic)
		for _, r := range replayed {
			want = append(want, frameRecord(r.Type, r.Payload)...)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(kept, want) {
			t.Fatalf("recovered file is not the replayed prefix: file %d bytes, re-encoded %d bytes", len(kept), len(want))
		}

		// The log stays appendable and the append replays back.
		if err := l.Append(7, []byte("post-recovery")); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		l2, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after recovery append: %v", err)
		}
		defer l2.Close()
		got := l2.Replayed()
		if len(got) != len(replayed)+1 {
			t.Fatalf("reopen replayed %d records, want %d", len(got), len(replayed)+1)
		}
		last := got[len(got)-1]
		if last.Type != 7 || string(last.Payload) != "post-recovery" {
			t.Fatalf("appended record did not replay: %+v", last)
		}
	})
}
