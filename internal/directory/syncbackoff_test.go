package directory

import (
	"testing"
	"time"
)

// TestSyncReqBackoff pins the requester-side backoff that prevents
// thundering resyncs: while a node stays diverged, successive sync
// requests spread out exponentially (a bulk sync can take many announce
// intervals to arrive, and every repeated request provokes another full
// broadcast), the spacing caps at maxSyncReqBackoff intervals, and a
// sync arriving from the node resets it so a fresh divergence is
// re-requested promptly.
func TestSyncReqBackoff(t *testing.T) {
	d := New("p0", nil, fastOpts())
	defer d.Close()
	iv := d.opts.AnnounceInterval

	d.mu.Lock()
	d.nodes["n1"] = &nodeState{lastSeen: time.Now()}
	d.mu.Unlock()

	// A heartbeat claiming a digest we do not hold: permanently diverged
	// from this directory's point of view (no sync ever arrives).
	diverged := advert{Type: "heartbeat", Node: "n1", Version: 7, Fp: 0xdeadbeef}

	// rewind pretends the last request happened `ago` in the past.
	rewind := func(ago time.Duration) {
		d.mu.Lock()
		d.nodes["n1"].lastSyncReq = time.Now().Add(-ago)
		d.mu.Unlock()
	}
	// fires reports whether feeding the diverged advert issued a request
	// (observable as lastSyncReq moving forward).
	fires := func() bool {
		d.mu.Lock()
		before := d.nodes["n1"].lastSyncReq
		d.mu.Unlock()
		d.noteNodeState(diverged)
		d.mu.Lock()
		after := d.nodes["n1"].lastSyncReq
		d.mu.Unlock()
		return after.After(before)
	}
	wait := func() time.Duration {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.nodes["n1"].syncReqWait
	}

	// First divergence fires immediately and arms the first backoff step.
	if !fires() {
		t.Fatal("first diverged advert did not request a sync")
	}
	if got := wait(); got != 2*iv {
		t.Fatalf("backoff after first request = %v, want %v", got, 2*iv)
	}
	// One announce interval later — enough under the old flat rate limit —
	// must NOT re-request: the sync may still be in flight.
	rewind(iv + iv/2)
	if fires() {
		t.Fatal("re-requested within backoff window")
	}
	// Past the backoff it fires again, and the step doubles.
	rewind(2*iv + iv/2)
	if !fires() {
		t.Fatal("no request after backoff elapsed")
	}
	if got := wait(); got != 4*iv {
		t.Fatalf("backoff after second request = %v, want %v", got, 4*iv)
	}
	// Stays diverged forever: the step doubles up to the cap and no further.
	for i := 0; i < 10; i++ {
		rewind(time.Hour)
		if !fires() {
			t.Fatalf("request %d suppressed despite elapsed backoff", i+3)
		}
	}
	if got := wait(); got != maxSyncReqBackoff*iv {
		t.Fatalf("backoff cap = %v, want %v", got, maxSyncReqBackoff*iv)
	}

	// A sync from the node voids the accumulated backoff: the next
	// divergence re-requests at the base interval again.
	d.resetSyncBackoff("n1")
	if got := wait(); got != 0 {
		t.Fatalf("backoff after sync arrival = %v, want 0", got)
	}
	rewind(iv + iv/2)
	if !fires() {
		t.Fatal("no prompt request after sync reset the backoff")
	}
	if got := wait(); got != 2*iv {
		t.Fatalf("backoff after post-reset request = %v, want %v", got, 2*iv)
	}

	// Convergence (digests agree) also clears the backoff, so the next
	// fresh divergence is a new event.
	d.noteNodeState(advert{Type: "heartbeat", Node: "n1", Version: 8})
	if got := wait(); got != 0 {
		t.Fatalf("backoff after convergence = %v, want 0", got)
	}
}
