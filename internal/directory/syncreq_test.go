package directory

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
	"repro/internal/qos"
)

// TestSyncReqInsideRateLimitWindowStillServed: a sync_req arriving
// while the responder is inside its once-per-interval sync rate limit
// used to be dropped on the floor. The diverged peer would then sit out
// its own sync_req limiter before asking again, and with the two
// limiters beating out of phase convergence could stretch across many
// intervals. The responder must instead remember the request and serve
// it the moment its window expires — one interval, worst case.
func TestSyncReqInsideRateLimitWindowStillServed(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := net.MustAddHost("h1")
	d1 := New("h1", h1, fastOpts())
	defer d1.Close()
	d1.Start()
	if err := d1.AddLocal(testTranslator(t, "h1", "a")); err != nil {
		t.Fatalf("AddLocal: %v", err)
	}

	// First request: outside any window, served promptly.
	d1.handleAdvert(advert{Type: "sync_req", Node: "h2", Target: "h1"})
	waitFor(t, 2*time.Second, func() bool { return sentCount(d1, "sync") == 1 })

	// Second request lands immediately after — inside the rate-limit
	// window. Before the fix it was silently discarded and, with no
	// further requests coming, this wait never completed.
	d1.handleAdvert(advert{Type: "sync_req", Node: "h2", Target: "h1"})
	waitFor(t, 2*time.Second, func() bool { return sentCount(d1, "sync") == 2 })
}

// TestScheduleSyncAfterCloseStaysSilent: the deferred-sync timer must
// not resurrect a closed directory.
func TestScheduleSyncAfterCloseStaysSilent(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := net.MustAddHost("h1")
	d1 := New("h1", h1, fastOpts())
	d1.Start()
	d1.AddLocal(testTranslator(t, "h1", "a"))

	// Arm the rate limiter, then park a deferred request behind it and
	// close before the window expires.
	d1.handleAdvert(advert{Type: "sync_req", Node: "h2", Target: "h1"})
	waitFor(t, 2*time.Second, func() bool { return sentCount(d1, "sync") == 1 })
	d1.handleAdvert(advert{Type: "sync_req", Node: "h2", Target: "h1"})
	d1.Close()
	before := sentCount(d1, "sync")
	time.Sleep(3 * fastOpts().AnnounceInterval)
	if got := sentCount(d1, "sync") - before; got != 0 {
		t.Fatalf("closed directory sent %d syncs", got)
	}
}

// TestNetCancelledDeltaCausesNoSyncChurn: an AddLocal revoked before
// its delta went out advances version twice while the state
// fingerprint nets back out. Peers never hear of the entry (the add
// flush carries no profile, the remove advert is suppressed); the flush
// broadcasts the settled digest as a heartbeat instead, and peers must
// not be tricked into a pointless full sync by the version gap. Before
// the fix, divergence was judged on the version counter and every peer
// sync_req'd over a no-op.
func TestNetCancelledDeltaCausesNoSyncChurn(t *testing.T) {
	opts := fastOpts()
	opts.AnnounceInterval = 40 * time.Millisecond
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	d1, d2 := New("h1", h1, opts), New("h2", h2, opts)
	defer d1.Close()
	defer d2.Close()
	d1.Start()
	d2.Start()

	d1.AddLocal(testTranslator(t, "h1", "a"))
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 1 })
	time.Sleep(150 * time.Millisecond) // let join-time syncs settle

	addBefore := sentCount(d1, "add")
	removeBefore := sentCount(d1, "remove")
	reqBefore := sentCount(d2, "sync_req")

	// Register and revoke while a flush is held pending, so both fold
	// into one flusher pass.
	holdDelta(d1)
	x := testTranslator(t, "h1", "ephemeral")
	if err := d1.AddLocal(x); err != nil {
		t.Fatalf("AddLocal: %v", err)
	}
	if _, err := d1.RemoveLocal(x.Profile().ID); err != nil {
		t.Fatalf("RemoveLocal: %v", err)
	}
	d1.mu.RLock()
	version := d1.version
	d1.mu.RUnlock()
	if version < 3 {
		t.Fatalf("version = %d, want >= 3 (add+remove must advance it)", version)
	}
	hbBefore := sentCount(d1, "heartbeat")
	d1.flushDelta()
	if sentCount(d1, "heartbeat") == hbBefore {
		t.Fatal("net-cancelled flush sent no settled-digest heartbeat")
	}

	// Several heartbeat intervals: the version gap is visible, the
	// fingerprint agrees, nothing must churn.
	time.Sleep(10 * opts.AnnounceInterval)
	if got := sentCount(d1, "add") - addBefore; got != 0 {
		t.Fatalf("net-cancelled delta broadcast %d add adverts, want 0", got)
	}
	if got := sentCount(d1, "remove") - removeBefore; got != 0 {
		t.Fatalf("net-cancelled delta broadcast %d remove adverts, want 0", got)
	}
	if got := sentCount(d2, "sync_req") - reqBefore; got != 0 {
		t.Fatalf("peer sent %d sync_reqs over a net-cancelled delta, want 0", got)
	}
	if _, r := d2.Size(); r != 1 {
		t.Fatalf("peer view changed: remote = %d, want 1", r)
	}
}

// TestChurnCausesNoSyncRequests: a node replaces its devices one at a
// time (add the next, wait until the peer has it, remove the old one)
// while its heartbeat ticks every couple of milliseconds. A heartbeat
// that read the digest while an add waited for the flusher, or that was
// read before a delta yet reached the wire after it, claimed a state
// the peer could not hold; the peer answered with a sync_req and the
// node with a full-state sync, over a change already on its way. After
// the join settles, churn alone must cause no sync_req.
func TestChurnCausesNoSyncRequests(t *testing.T) {
	opts := Options{
		AnnounceInterval: 2 * time.Millisecond,
		// A lease far beyond the cadence: a peer expired by a slow
		// scheduler resyncs for a reason of its own.
		Lease: qos.LeasePolicy{ExpiryFactor: 2000},
	}
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	d1, d2 := New("h1", h1, opts), New("h2", h2, opts)
	defer d1.Close()
	defer d2.Close()
	d1.Start()
	d2.Start()
	const devices = 20
	cur := make([]core.Translator, devices)
	for i := range cur {
		cur[i] = testTranslator(t, "h1", fmt.Sprintf("dev-%d", i))
		if err := d1.AddLocal(cur[i]); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == devices })
	time.Sleep(50 * opts.AnnounceInterval) // let join-time syncs settle
	reqBefore := sentCount(d2, "sync_req")
	syncBefore := sentCount(d1, "sync")

	deadline := time.Now().Add(5 * time.Second)
	for gen := 0; gen < 300; gen++ {
		i := gen % devices
		next := testTranslator(t, "h1", fmt.Sprintf("dev-%d-g%d", i, gen))
		if err := d1.AddLocal(next); err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := d2.Resolve(next.Profile().ID); err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("generation %d: peer never learned %s", gen, next.Profile().ID)
			}
			time.Sleep(20 * time.Microsecond)
		}
		if _, err := d1.RemoveLocal(cur[i].Profile().ID); err != nil {
			t.Fatal(err)
		}
		cur[i] = next
	}
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == devices })
	time.Sleep(20 * opts.AnnounceInterval)
	if got := sentCount(d2, "sync_req") - reqBefore; got != 0 {
		t.Errorf("churn provoked %d sync_reqs, want 0", got)
	}
	if got := sentCount(d1, "sync") - syncBefore; got != 0 {
		t.Errorf("churn provoked %d full-state syncs, want 0", got)
	}
	for _, tr := range cur {
		if _, err := d2.Resolve(tr.Profile().ID); err != nil {
			t.Fatalf("peer lost %s: %v", tr.Profile().ID, err)
		}
	}
}
