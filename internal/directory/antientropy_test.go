package directory

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
	"repro/internal/obs"
)

// sentCount reads a directory's sent-advert counter for one type.
func sentCount(d *Directory, typ string) uint64 {
	return d.Obs().Counter("umiddle_directory_adverts_sent_total", obs.Labels{"node": d.Node(), "type": typ}).Value()
}

// sentBytes reads a directory's sent-bytes counter for one type.
func sentBytes(d *Directory, typ string) uint64 {
	return d.Obs().Counter("umiddle_directory_advert_bytes_total", obs.Labels{"node": d.Node(), "type": typ}).Value()
}

// receivedCount reads a directory's received-advert counter.
func receivedCount(d *Directory) uint64 {
	return d.Obs().Counter("umiddle_directory_adverts_received_total", obs.Labels{"node": d.Node()}).Value()
}

// settledPair reports whether two directories have settled: neither has
// a delta or sync scheduled, and each one's digest of the other agrees
// with that node's own.
func settledPair(a, b *Directory) bool {
	idle := func(d *Directory) (uint64, bool) {
		d.mu.RLock()
		defer d.mu.RUnlock()
		return d.localFP, !d.deltaPending && !d.syncPending && !d.syncWanted
	}
	fpA, idleA := idle(a)
	fpB, idleB := idle(b)
	a.mu.RLock()
	viewB := a.nodeFP[b.Node()]
	a.mu.RUnlock()
	b.mu.RLock()
	viewA := b.nodeFP[a.Node()]
	b.mu.RUnlock()
	return idleA && idleB && viewA == fpA && viewB == fpB
}

// waitQuiescent waits until a and b have settled and stay settled while
// each hears three more adverts. Each inbox is FIFO and drained by one
// loop, so a sync_req queued or being handled at the first check has
// been handled by then, and its sync sent.
func waitQuiescent(t *testing.T, a, b *Directory) {
	t.Helper()
	waitFor(t, 2*time.Second, func() bool { return settledPair(a, b) })
	ra, rb := receivedCount(a), receivedCount(b)
	waitFor(t, 2*time.Second, func() bool {
		return receivedCount(a) >= ra+3 && receivedCount(b) >= rb+3 && settledPair(a, b)
	})
}

// waitHeartbeats waits until d has sent n more heartbeats: a window
// measured in anti-entropy rounds rather than wall-clock time.
func waitHeartbeats(t *testing.T, d *Directory, n uint64) {
	t.Helper()
	hb := sentCount(d, "heartbeat")
	waitFor(t, 5*time.Second, func() bool { return sentCount(d, "heartbeat") >= hb+n })
}

// TestSteadyStateHeartbeatsOnly: once a population has converged and
// nothing changes, the periodic anti-entropy traffic must be
// constant-size heartbeats — no recurring full-state announces and no
// sync churn. This is the delta protocol's core bandwidth claim. The
// window opens when both nodes have settled and spans a fixed number of
// heartbeats, not a wall-clock interval.
func TestSteadyStateHeartbeatsOnly(t *testing.T) {
	const window = 15 // heartbeats
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	d1, d2 := New("h1", h1, fastOpts()), New("h2", h2, fastOpts())
	defer d1.Close()
	defer d2.Close()
	d1.Start()
	d2.Start()

	for _, name := range []string{"a", "b", "c"} {
		if err := d1.AddLocal(testTranslator(t, "h1", name)); err != nil {
			t.Fatalf("AddLocal: %v", err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 3 })
	// Join-time syncs (a heartbeat can overtake the add delta it follows)
	// are over once the pair is quiescent.
	waitQuiescent(t, d1, d2)

	annBefore := sentCount(d1, "announce")
	syncBefore := sentCount(d1, "sync")
	addBefore := sentCount(d1, "add")
	reqBefore := sentCount(d2, "sync_req")
	waitHeartbeats(t, d1, window)

	if got := sentCount(d1, "announce") - annBefore; got != 0 {
		t.Fatalf("steady state sent %d full announces, want 0", got)
	}
	if got := sentCount(d2, "sync_req") - reqBefore; got != 0 {
		t.Fatalf("steady state sent %d sync requests, want 0", got)
	}
	if got := sentCount(d1, "sync") - syncBefore; got != 0 {
		t.Fatalf("steady state sent %d syncs, want 0", got)
	}
	if got := sentCount(d1, "add") - addBefore; got != 0 {
		t.Fatalf("steady state sent %d add deltas, want 0", got)
	}
	// Heartbeats are population-independent: ~130 bytes each, never
	// O(population) profile payloads.
	if avg := (sentBytes(d1, "heartbeat")) / sentCount(d1, "heartbeat"); avg > 256 {
		t.Fatalf("average heartbeat size %d bytes, want constant-size (<=256)", avg)
	}
	// The peer view must still be intact (heartbeats renewed the lease).
	if _, r := d2.Size(); r != 3 {
		t.Fatalf("peer lost entries during steady state: remote = %d, want 3", r)
	}
}

// TestSyncReqCarriesRequesterZone: a sync_req is labeled with its
// sender's own zone. Every node that hears an advert files the sender
// under the advert's zone, so a request labeled with the target's zone
// would relabel the requester everywhere until its next heartbeat.
func TestSyncReqCarriesRequesterZone(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	spy, err := net.MustAddHost("spy").JoinGroup(Group)
	if err != nil {
		t.Fatal(err)
	}
	defer spy.Close()
	opts := func(zone string) Options {
		o := fastOpts()
		o.Zone = zone
		return o
	}
	d1 := New("h1", h1, opts("z1"))
	defer d1.Close()
	d1.Start()
	if err := d1.AddLocal(testTranslator(t, "h1", "a")); err != nil {
		t.Fatal(err)
	}
	// Let the registration reach the wire (in the join announce or an add
	// delta) before h2 joins: h2 must learn it through a sync.
	waitFor(t, 2*time.Second, func() bool {
		d1.mu.RLock()
		defer d1.mu.RUnlock()
		return len(d1.pendingAdds) == 0 && !d1.deltaPending
	})
	hb := sentCount(d1, "heartbeat")
	waitFor(t, 2*time.Second, func() bool { return sentCount(d1, "heartbeat") > hb })
	// A late joiner diverges from h1's next heartbeat and asks for a sync.
	d2 := New("h2", h2, opts("z2"))
	defer d2.Close()
	d2.Start()

	spy.SetDeadline(time.Now().Add(2 * time.Second))
	for {
		dg, err := spy.Recv()
		if err != nil {
			t.Fatalf("no sync_req from h2 observed: %v", err)
		}
		var a advert
		if json.Unmarshal(dg.Payload, &a) != nil || a.Type != "sync_req" || a.Node != "h2" {
			continue
		}
		if a.Zone != "z2" || a.Target != "h1" {
			t.Fatalf("sync_req from h2 carries zone %q, target %q; want z2, h1", a.Zone, a.Target)
		}
		break
	}
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 1 })
	if z := d1.ZoneOf("h2"); z != "z2" {
		t.Fatalf("h1 files h2 under zone %q, want z2", z)
	}
}

// TestDivergenceHealsViaSync: a receiver that silently lost an entry
// (here: a spoofed remove injected behind the protocol's back) detects
// the state-fingerprint mismatch on the owner's next heartbeat,
// requests a sync, and relearns the entry.
func TestDivergenceHealsViaSync(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	d1, d2 := New("h1", h1, fastOpts()), New("h2", h2, fastOpts())
	defer d1.Close()
	defer d2.Close()
	d1.Start()
	d2.Start()

	d1.AddLocal(testTranslator(t, "h1", "a"))
	d1.AddLocal(testTranslator(t, "h1", "b"))
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 2 })

	// Drop one of h1's entries from d2's view without h1 knowing —
	// an unversioned remove, as a buggy or malicious peer would send.
	d2.handleAdvert(advert{Type: "remove", Node: "h1", Removed: []core.TranslatorID{
		core.MakeTranslatorID("h1", "umiddle", "a"),
	}})
	if _, r := d2.Size(); r != 1 {
		t.Fatalf("injected remove did not drop the entry (remote = %d)", r)
	}

	// The next heartbeat from h1 carries a fingerprint d2 cannot
	// reproduce; d2 must sync_req and h1 must answer with a full sync.
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 2 })
	if got := sentCount(d2, "sync_req"); got == 0 {
		t.Fatal("healing happened without a sync_req (unexpected path)")
	}
	if got := sentCount(d1, "sync"); got == 0 {
		t.Fatal("healing happened without a sync response (unexpected path)")
	}
}

// TestSyncReconcilesGhostEntries: the dual divergence — a receiver
// holding an entry the owner no longer has (here: a spoofed announce) —
// heals too, because sync has reconcile semantics: entries of the
// sender missing from the sync advert are dropped.
func TestSyncReconcilesGhostEntries(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	d1, d2 := New("h1", h1, fastOpts()), New("h2", h2, fastOpts())
	defer d1.Close()
	defer d2.Close()
	d1.Start()
	d2.Start()

	d1.AddLocal(testTranslator(t, "h1", "a"))
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 1 })

	// Inject a ghost entry claiming to live on h1.
	ghost := remoteProfile("h1", "ghost")
	d2.handleAdvert(advert{Type: "announce", Node: "h1", Zone: "h1", Profiles: []core.Profile{ghost}})
	if _, r := d2.Size(); r != 2 {
		t.Fatalf("ghost injection failed (remote = %d)", r)
	}

	// Fingerprint mismatch -> sync_req -> h1's sync lists only "a" ->
	// reconcile drops the ghost.
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 1 })
	if _, err := d2.Resolve(ghost.ID); err == nil {
		t.Fatal("ghost entry survived reconciliation")
	}
	if _, err := d2.Resolve(core.MakeTranslatorID("h1", "umiddle", "a")); err != nil {
		t.Fatalf("legitimate entry lost during reconciliation: %v", err)
	}
}

// TestLateJoinerConvergesWithoutPeriodicAnnounce: a node that joins
// after the population settled never sees a periodic full announce
// (those no longer exist) — it converges through the heartbeat
// fingerprint mismatch and a sync.
func TestLateJoinerConvergesWithoutPeriodicAnnounce(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := net.MustAddHost("h1")
	d1 := New("h1", h1, fastOpts())
	defer d1.Close()
	d1.Start()
	for _, name := range []string{"a", "b", "c", "d"} {
		d1.AddLocal(testTranslator(t, "h1", name))
	}
	// Long enough that d1's join announce and add deltas are history.
	time.Sleep(200 * time.Millisecond)

	h2 := net.MustAddHost("h2")
	d2 := New("h2", h2, fastOpts())
	defer d2.Close()
	d2.Start()
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 4 })
	// d1's only full announce was its own join, before d2 existed: the
	// joiner must have been served by a sync.
	if got := sentCount(d1, "sync"); got == 0 {
		t.Fatal("late joiner converged without a sync (stale test assumption?)")
	}
}
