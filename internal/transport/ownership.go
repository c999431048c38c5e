package transport

import (
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/obs"
)

// Inbound payloads are delivered zero-copy: a translator's Deliver sees
// the pooled read buffer itself and must finish with it before
// returning (core.Message.Clone to retain). The transport enforces that
// contract instead of trusting it: after Deliver returns, the buffer
// enters a quarantine ring with a checksum and is only recycled once
// the checksum verifies. A translator that mutates a delivered payload
// after returning is detected
// (umiddle_transport_ownership_violations_total), the tainted buffer is
// discarded rather than recycled, and the event is traced. Detection
// covers the quarantine window (the last quarantineDepth deliveries
// plus everything still unflushed at Close); a violator can corrupt
// only its own copy, never a later frame's.

// quarantineDepth is the number of delivered buffers held back from the
// pool for verification. Deep enough to catch the common bug shape — a
// translator finishing asynchronous work a few deliveries late —
// while bounding held memory to depth × payload size.
const quarantineDepth = 256

// bufSum is a fast 64-bit checksum over b: four independent FNV-style
// mix-and-multiply lanes, 32 bytes per iteration. A single lane's
// xor-multiply chain is latency-bound (each step waits on the previous
// multiply); four lanes keep the multiplier busy, which matters because
// the checksum runs twice per message on the delivery hot path (admit
// and evict-verify).
func bufSum(b []byte) uint64 {
	const prime = 0x100000001b3
	s0 := uint64(len(b))*0x9e3779b97f4a7c15 + 0xcbf29ce484222325
	s1 := uint64(0x9e3779b97f4a7c15)
	s2 := uint64(0x6a09e667f3bcc909)
	s3 := uint64(0xbb67ae8584caa73b)
	for len(b) >= 32 {
		s0 = (s0 ^ binary.LittleEndian.Uint64(b)) * prime
		s1 = (s1 ^ binary.LittleEndian.Uint64(b[8:])) * prime
		s2 = (s2 ^ binary.LittleEndian.Uint64(b[16:])) * prime
		s3 = (s3 ^ binary.LittleEndian.Uint64(b[24:])) * prime
		b = b[32:]
	}
	s := s0
	s = (s ^ s1) * prime
	s = (s ^ s2) * prime
	s = (s ^ s3) * prime
	for len(b) >= 8 {
		s = (s ^ binary.LittleEndian.Uint64(b)) * prime
		b = b[8:]
	}
	for _, c := range b {
		s = (s ^ uint64(c)) * prime
	}
	return s
}

// quarEntry is one payload awaiting verified release.
type quarEntry struct {
	payload []byte
	sum     uint64
}

// quarantine is the tracked-ownership ring: delivered pooled buffers
// are admitted with a checksum and recycled only after the checksum
// verifies on eviction (ring full) or flush (module close).
type quarantine struct {
	node       string
	violations *obs.Counter
	trace      *obs.Trace

	mu   sync.Mutex
	ring [quarantineDepth]quarEntry
	head int // next slot to fill (and oldest entry when full)
	n    int
}

func newQuarantine(node string, violations *obs.Counter, trace *obs.Trace) *quarantine {
	return &quarantine{node: node, violations: violations, trace: trace}
}

// admit takes ownership of a pooled payload buffer after delivery. The
// checksum is computed outside the lock; eviction of the displaced
// oldest entry verifies and releases it.
func (q *quarantine) admit(payload []byte) {
	e := quarEntry{payload: payload, sum: bufSum(payload)}
	q.mu.Lock()
	var evicted quarEntry
	if q.n == quarantineDepth {
		evicted = q.ring[q.head]
	} else {
		q.n++
	}
	q.ring[q.head] = e
	q.head = (q.head + 1) % quarantineDepth
	q.mu.Unlock()
	if evicted.payload != nil {
		q.verifyRelease(evicted)
	}
}

// verifyRelease recycles a quarantined buffer if its checksum still
// holds; a mismatch means some translator wrote into a payload it had
// already returned — count it, trace it, and discard the tainted
// buffer instead of recycling corruption into a future frame.
func (q *quarantine) verifyRelease(e quarEntry) {
	if bufSum(e.payload) == e.sum {
		putBuf(e.payload)
		return
	}
	q.violations.Inc()
	if q.trace != nil {
		q.trace.Event("ownership_violation", q.node,
			fmt.Sprintf("delivered payload (%d bytes) mutated after Deliver returned; buffer discarded", len(e.payload)))
	}
}

// flush verifies and releases everything still quarantined (close
// path), so violations within the final window are still reported.
func (q *quarantine) flush() {
	q.mu.Lock()
	entries := make([]quarEntry, 0, q.n)
	for i := 0; i < q.n; i++ {
		idx := (q.head - q.n + i + quarantineDepth) % quarantineDepth
		entries = append(entries, q.ring[idx])
		q.ring[idx] = quarEntry{}
	}
	q.n = 0
	q.head = 0
	q.mu.Unlock()
	for _, e := range entries {
		if e.payload != nil {
			q.verifyRelease(e)
		}
	}
}
