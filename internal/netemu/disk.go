package netemu

import (
	"fmt"
	"io"
	"sync"
)

// Disk is a host's in-memory persistent storage: a flat namespace of
// named files that survives CrashNode/RestartNode. It models the one
// thing an abrupt power loss does NOT destroy — bytes already handed to
// stable storage — so durability layers (internal/wal) can be exercised
// under emulated crashes exactly as they would be against a real disk.
//
// Disks are keyed by host name on the Network and are never removed by
// CrashNode; a restarted node asks for the same Disk and replays what
// its predecessor wrote. Files implement the wal.File contract
// (io.ReadWriteSeeker + Truncate + Sync + Close) structurally.
type Disk struct {
	mu    sync.Mutex
	files map[string]*memFileData
}

// memFileData is the durable content of one file, shared by every
// MemFile handle ever opened on it (a reopened file sees prior writes,
// like an inode).
type memFileData struct {
	mu    sync.Mutex
	data  []byte
	syncs uint64
}

// MemFile is an open handle on a Disk file: an offset cursor over the
// shared durable content. Closing the handle does not discard the data.
type MemFile struct {
	d   *memFileData
	off int64
	mu  sync.Mutex
	// closed handles keep working for reads in some OS file semantics;
	// we are stricter — all ops fail after Close, matching *os.File.
	closed bool
}

// Disk returns the named host's disk, creating it on first use. Unlike
// Host handles, disks survive CrashNode and Network.Close: they model
// non-volatile storage, and tests read them post-mortem.
func (n *Network) Disk(host string) *Disk {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.disks == nil {
		n.disks = make(map[string]*Disk)
	}
	d, ok := n.disks[host]
	if !ok {
		d = &Disk{files: make(map[string]*memFileData)}
		n.disks[host] = d
	}
	return d
}

// Open returns a handle on the named file, creating it empty if absent.
// The cursor starts at offset 0 (a durability log replays from the top).
func (d *Disk) Open(name string) *MemFile {
	d.mu.Lock()
	defer d.mu.Unlock()
	fd, ok := d.files[name]
	if !ok {
		fd = &memFileData{}
		d.files[name] = fd
	}
	return &MemFile{d: fd}
}

// Remove deletes a file's durable content. Open handles keep their
// (now orphaned) data, as with POSIX unlink.
func (d *Disk) Remove(name string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.files, name)
}

// Files returns the names of all files on the disk.
func (d *Disk) Files() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for name := range d.files {
		names = append(names, name)
	}
	return names
}

// Size returns the durable size of a named file, or -1 if absent.
func (d *Disk) Size(name string) int64 {
	d.mu.Lock()
	fd, ok := d.files[name]
	d.mu.Unlock()
	if !ok {
		return -1
	}
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return int64(len(fd.data))
}

func (f *MemFile) Read(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, fmt.Errorf("netemu: read on closed MemFile")
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if f.off >= int64(len(f.d.data)) {
		return 0, io.EOF
	}
	n := copy(p, f.d.data[f.off:])
	f.off += int64(n)
	return n, nil
}

func (f *MemFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, fmt.Errorf("netemu: write on closed MemFile")
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	end := f.off + int64(len(p))
	if end > int64(len(f.d.data)) {
		f.d.data = zeroExtend(f.d.data, end)
	}
	copy(f.d.data[f.off:end], p)
	f.off = end
	return len(p), nil
}

func (f *MemFile) Seek(offset int64, whence int) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return 0, fmt.Errorf("netemu: seek on closed MemFile")
	}
	f.d.mu.Lock()
	size := int64(len(f.d.data))
	f.d.mu.Unlock()
	var abs int64
	switch whence {
	case io.SeekStart:
		abs = offset
	case io.SeekCurrent:
		abs = f.off + offset
	case io.SeekEnd:
		abs = size + offset
	default:
		return 0, fmt.Errorf("netemu: invalid seek whence %d", whence)
	}
	if abs < 0 {
		return 0, fmt.Errorf("netemu: negative seek offset")
	}
	f.off = abs
	return abs, nil
}

func (f *MemFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("netemu: truncate on closed MemFile")
	}
	if size < 0 {
		return fmt.Errorf("netemu: negative truncate size")
	}
	f.d.mu.Lock()
	defer f.d.mu.Unlock()
	if size <= int64(len(f.d.data)) {
		f.d.data = f.d.data[:size]
	} else {
		f.d.data = zeroExtend(f.d.data, size)
	}
	return nil
}

// zeroExtend grows data to size bytes, the new tail zeroed (including
// capacity an earlier Truncate left behind). append's amortised policy
// keeps a stream of small appends — a journal — linear in the bytes
// written; reallocating to the exact size on every write made it
// quadratic in the file. The slack append leaves on a large file is at
// most a quarter of it.
func zeroExtend(data []byte, size int64) []byte {
	return append(data, make([]byte, size-int64(len(data)))...)
}

// Sync is a no-op beyond counting: memory is already "stable storage"
// here. The count lets tests assert a durability layer fsyncs at the
// promised points.
func (f *MemFile) Sync() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("netemu: sync on closed MemFile")
	}
	f.d.mu.Lock()
	f.d.syncs++
	f.d.mu.Unlock()
	return nil
}

func (f *MemFile) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	return nil
}

// Syncs reports how many times any handle on the named file was synced.
func (d *Disk) Syncs(name string) uint64 {
	d.mu.Lock()
	fd, ok := d.files[name]
	d.mu.Unlock()
	if !ok {
		return 0
	}
	fd.mu.Lock()
	defer fd.mu.Unlock()
	return fd.syncs
}
