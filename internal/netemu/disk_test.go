package netemu

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"repro/internal/wal"
)

func TestDiskSurvivesCrashRestart(t *testing.T) {
	net := NewNetwork(Unlimited())
	defer net.Close()
	net.MustAddHost("n0")

	f := net.Disk("n0").Open("state.wal")
	if _, err := f.Write([]byte("survives power loss")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := net.CrashNode("n0"); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}
	if _, err := net.RestartNode("n0"); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}

	// The restarted stack opens the same disk and reads back the bytes
	// its predecessor wrote.
	g := net.Disk("n0").Open("state.wal")
	defer g.Close()
	got, err := io.ReadAll(g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("survives power loss")) {
		t.Fatalf("disk content after restart: %q", got)
	}
	if n := net.Disk("n0").Syncs("state.wal"); n != 1 {
		t.Fatalf("sync count: %d, want 1", n)
	}
}

func TestDiskIsPerHost(t *testing.T) {
	net := NewNetwork(Unlimited())
	defer net.Close()
	a := net.Disk("a").Open("f")
	if _, err := a.Write([]byte("alpha")); err != nil {
		t.Fatal(err)
	}
	b := net.Disk("b").Open("f")
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("host b saw host a's file: %q", got)
	}
	if sz := net.Disk("a").Size("f"); sz != 5 {
		t.Fatalf("Size = %d, want 5", sz)
	}
	if sz := net.Disk("a").Size("missing"); sz != -1 {
		t.Fatalf("Size(missing) = %d, want -1", sz)
	}
}

func TestMemFileSeekTruncate(t *testing.T) {
	net := NewNetwork(Unlimited())
	defer net.Close()
	f := net.Disk("n").Open("f")
	defer f.Close()
	if _, err := f.Write([]byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	// Overwrite in the middle.
	if _, err := f.Seek(2, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("AB")); err != nil {
		t.Fatal(err)
	}
	// Relative and end-relative seeks.
	if off, err := f.Seek(-3, io.SeekEnd); err != nil || off != 7 {
		t.Fatalf("SeekEnd: off=%d err=%v", off, err)
	}
	if off, err := f.Seek(1, io.SeekCurrent); err != nil || off != 8 {
		t.Fatalf("SeekCurrent: off=%d err=%v", off, err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "01AB" {
		t.Fatalf("content after seek/overwrite/truncate: %q", got)
	}
	// Truncate can also extend with zeros, like ftruncate.
	if err := f.Truncate(6); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, _ = io.ReadAll(f)
	if !bytes.Equal(got, []byte{'0', '1', 'A', 'B', 0, 0}) {
		t.Fatalf("content after extend: %q", got)
	}
	if _, err := f.Seek(-1, io.SeekStart); err == nil {
		t.Fatal("negative seek accepted")
	}
}

// TestMemFileAppendIsAmortised: a journal-shaped stream of small appends
// allocates in proportion to the bytes written, not to their square (a
// reallocation of the whole file per write: 30 GB here), and the slack
// left behind stays within a quarter of the file.
func TestMemFileAppendIsAmortised(t *testing.T) {
	net := NewNetwork(Unlimited())
	defer net.Close()
	f := net.Disk("n").Open("journal")
	defer f.Close()
	const appends, recBytes = 10_000, 600
	rec := bytes.Repeat([]byte{0xa5}, recBytes)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < appends; i++ {
		if _, err := f.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const total = appends * recBytes
	if got := after.TotalAlloc - before.TotalAlloc; got > 16*total {
		t.Fatalf("%d appends of %d B allocated %d MB, want O(%d MB written)", appends, recBytes, got>>20, total>>20)
	}
	if size := net.Disk("n").Size("journal"); size != total {
		t.Fatalf("size = %d, want %d", size, total)
	}
	f.d.mu.Lock()
	slack := cap(f.d.data) - len(f.d.data)
	f.d.mu.Unlock()
	if slack > total/4+4096 {
		t.Fatalf("%d bytes of slack behind a %d byte file, want at most a quarter", slack, total)
	}
	// A write past the end leaves a zeroed hole, also inside capacity a
	// Truncate left behind.
	if err := f.Truncate(recBytes); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(2*recBytes, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("end")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(recBytes, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(make([]byte, recBytes), "end"...); !bytes.Equal(got, want) {
		t.Fatalf("hole after truncate reads %q…, want %d zero bytes then %q", got[:8], recBytes, "end")
	}
}

func TestMemFileClosedOps(t *testing.T) {
	net := NewNetwork(Unlimited())
	defer net.Close()
	f := net.Disk("n").Open("f")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := f.Write([]byte("x")); err == nil {
		t.Fatal("write after close accepted")
	}
	if _, err := f.Read(make([]byte, 1)); err == nil {
		t.Fatal("read after close accepted")
	}
	// Data written before close stays durable for the next handle.
	g := net.Disk("n").Open("f")
	defer g.Close()
	if _, err := g.Write([]byte("next life")); err != nil {
		t.Fatal(err)
	}
}

// TestWALOverMemDisk exercises the real durability layer against the
// emulated disk: append, crash the node, restart, replay.
func TestWALOverMemDisk(t *testing.T) {
	net := NewNetwork(Unlimited())
	defer net.Close()
	net.MustAddHost("n0")

	l, err := wal.OpenFile(net.Disk("n0").Open("dir.wal"), "dir.wal")
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if err := l.Append(1, []byte(`{"epoch":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(2, []byte("entry")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	// Power loss: the crashed stack never closes its log.
	if _, err := net.CrashNode("n0"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.RestartNode("n0"); err != nil {
		t.Fatal(err)
	}

	l2, err := wal.OpenFile(net.Disk("n0").Open("dir.wal"), "dir.wal")
	if err != nil {
		t.Fatalf("reopen after crash: %v", err)
	}
	defer l2.Close()
	got := l2.Replayed()
	if len(got) != 2 || got[0].Type != 1 || string(got[1].Payload) != "entry" {
		t.Fatalf("replay after crash: %+v", got)
	}
}
