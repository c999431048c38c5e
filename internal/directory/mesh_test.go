package directory

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
	"repro/internal/obs"
)

// observeAdverts joins the directory group from a spectator host and
// returns a drain function collecting every advert sent by node.
func observeAdverts(t *testing.T, net *netemu.Network, spectator, node string) func() []advert {
	t.Helper()
	gc, err := net.MustAddHost(spectator).JoinGroup(Group)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gc.Close() })
	return func() []advert {
		var out []advert
		for {
			gc.SetDeadline(time.Now().Add(20 * time.Millisecond))
			dg, err := gc.Recv()
			if err != nil {
				return out
			}
			var a advert
			if json.Unmarshal(dg.Payload, &a) == nil && a.Node == node {
				out = append(out, a)
			}
		}
	}
}

// TestCloseRaceByeIsLast: a delta flush that passed its closed check
// just before Close must not broadcast after the bye — emission is
// serialized under the sender mutex. Regression for the shutdown race;
// run with -race.
func TestCloseRaceByeIsLast(t *testing.T) {
	for i := 0; i < 30; i++ {
		net := netemu.NewNetwork(netemu.Unlimited())
		host := net.MustAddHost("h1")
		drain := observeAdverts(t, net, fmt.Sprintf("spy%d", i), "h1")
		d := New("h1", host, Options{AnnounceInterval: 20 * time.Millisecond})
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		// Race the delta flusher (and a sync response) against Close:
		// both start at once and are in flight while Close runs.
		d.AddLocal(testTranslator(t, "h1", "a"))
		d.handleAdvert(advert{Type: "sync_req", Node: "h2", Target: "h1"})
		d.Close()

		adverts := drain()
		byeAt := -1
		for i, a := range adverts {
			if a.Type == "bye" {
				byeAt = i
			}
		}
		if byeAt == -1 {
			t.Fatalf("iteration %d: no bye observed in %d adverts", i, len(adverts))
		}
		if byeAt != len(adverts)-1 {
			t.Fatalf("iteration %d: advert %q broadcast after bye (sequence %v)",
				i, adverts[len(adverts)-1].Type, advertTypesOf(adverts))
		}
		net.Close()
	}
}

func advertTypesOf(as []advert) []string {
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.Type
	}
	return out
}

// TestCloseStopsPendingTimers: Close must stop the sync rate-limit
// timer and wait for an in-flight delta flusher and sync sender; none
// may broadcast into the closed directory (no advert after the bye,
// wg.Wait returns). Run with -race: it previously reported the
// unsynchronized timer callbacks.
func TestCloseStopsPendingTimers(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	host := net.MustAddHost("h1")
	drain := observeAdverts(t, net, "spy", "h1")
	d := New("h1", host, Options{AnnounceInterval: 100 * time.Millisecond})
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	// Park every sender at the emission lock until Close has flipped
	// closed: a sync response, then the delta flusher once it has taken
	// its pending add.
	holdDelta(d)
	d.AddLocal(testTranslator(t, "h1", "a"))
	d.sendMu.Lock()
	d.handleAdvert(advert{Type: "sync_req", Node: "h2", Target: "h1"})
	d.mu.Lock()
	d.lastSync = time.Now()
	d.syncPending = false
	d.mu.Unlock()
	d.scheduleSync() // inside the rate-limit window: arms the syncWanted timer
	d.mu.Lock()
	d.goLocked(d.flushDelta)
	d.mu.Unlock()
	waitFor(t, time.Second, func() bool {
		d.mu.RLock()
		defer d.mu.RUnlock()
		return len(d.pendingAdds) == 0
	})

	done := make(chan struct{})
	go func() {
		d.Close()
		close(done)
	}()
	waitFor(t, time.Second, func() bool {
		d.mu.RLock()
		defer d.mu.RUnlock()
		return d.closed
	})
	d.sendMu.Unlock()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not return: a leaked timer or sender holds the waitgroup")
	}
	d.mu.Lock()
	timers := len(d.timers)
	d.mu.Unlock()
	if timers != 0 {
		t.Fatalf("%d timers still tracked after Close", timers)
	}
	// Sleep past the rate-limit window: nothing may fire after the bye.
	time.Sleep(250 * time.Millisecond)
	adverts := drain()
	if len(adverts) == 0 || adverts[len(adverts)-1].Type != "bye" {
		t.Fatalf("advert sequence after close: %v, want bye last", advertTypesOf(adverts))
	}
}

// TestPartialDeltaConverges: add two translators and remove one while
// their delta is held pending. The flushed delta under-reports (one profile)
// but carries the settled version+fingerprint, so the peer must land
// exactly on the surviving entry with no sync churn.
func TestPartialDeltaConverges(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	opts := Options{AnnounceInterval: 20 * time.Millisecond}
	d1, d2 := New("h1", h1, opts), New("h2", h2, opts)
	defer d1.Close()
	defer d2.Close()
	d1.Start()
	d2.Start()
	waitFor(t, 2*time.Second, func() bool {
		return len(d1.Nodes()) == 1 && len(d2.Nodes()) == 1
	})

	holdDelta(d1)
	if err := d1.AddLocal(testTranslator(t, "h1", "keep")); err != nil {
		t.Fatal(err)
	}
	if err := d1.AddLocal(testTranslator(t, "h1", "gone")); err != nil {
		t.Fatal(err)
	}
	if _, err := d1.RemoveLocal(core.MakeTranslatorID("h1", "umiddle", "gone")); err != nil {
		t.Fatal(err)
	}
	d1.flushDelta()
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 1 })
	if _, err := d2.Resolve(core.MakeTranslatorID("h1", "umiddle", "keep")); err != nil {
		t.Fatalf("surviving entry not learned: %v", err)
	}
	// The flushed delta under-reported (it never mentioned "gone"), but
	// it carried the settled digest: once it lands the peers agree and
	// heartbeats must cause no further sync churn. A single transient
	// sync_req from a heartbeat racing the held flush is legal; an
	// unsettled digest would keep requesting every announce interval.
	time.Sleep(100 * time.Millisecond)
	base := sentCount(d2, "sync_req")
	time.Sleep(200 * time.Millisecond)
	if n := sentCount(d2, "sync_req"); n != base {
		t.Fatalf("digest never settled: %d sync requests after convergence", n-base)
	}
	if _, r := d2.Size(); r != 1 {
		t.Fatalf("peer holds %d remote entries, want 1", r)
	}
}

func TestSeenWindow(t *testing.T) {
	w := &seenWindow{}
	for _, tc := range []struct {
		seq  uint64
		want bool
	}{
		{100, true},  // first
		{100, false}, // exact dup
		{101, true},  // next
		{99, true},   // late but in window
		{99, false},  // late dup
		{101, false}, // dup at head
		{200, true},  // jump
		{136, false}, // below the 64-wide window: treated as dup
		{137, true},  // oldest in-window slot after the jump
		{199, true},  // in window after jump
	} {
		if got := w.observe(tc.seq); got != tc.want {
			t.Fatalf("observe(%d) = %v, want %v", tc.seq, got, tc.want)
		}
	}
	// Restart semantics: a fresh incarnation seeds from the wall clock,
	// far above any prior sequence.
	w2 := &seenWindow{}
	w2.observe(uint64(time.Now().UnixNano()))
	if !w2.observe(uint64(time.Now().UnixNano()) + 1000) {
		t.Fatal("post-restart sequence dropped")
	}
}

// TestMeshGossipAcrossChain: on a three-segment chain a—b—c, node a's
// translators must reach c through b's advert relay, c must learn the
// relay route and a's zone, and liveness must hold across the hop.
func TestMeshGossipAcrossChain(t *testing.T) {
	net, err := netemu.NewMesh(netemu.Unlimited(), netemu.ChainTopology("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	opts := func(zone string, relay bool) Options {
		return Options{AnnounceInterval: 20 * time.Millisecond, Zone: zone, Relay: relay, RelayTTL: 4}
	}
	da := New("a", net.Host("a"), opts("zoneA", false))
	db := New("b", net.Host("b"), opts("", true))
	dc := New("c", net.Host("c"), opts("", false))
	defer da.Close()
	defer db.Close()
	defer dc.Close()
	da.Start()
	db.Start()
	dc.Start()

	if err := da.AddLocal(testTranslator(t, "a", "cam")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	waitFor(t, time.Until(deadline), func() bool { _, r := dc.Size(); return r == 1 })
	// c may integrate a's relayed add before it hears b's own announce,
	// so the direct route to b is awaited, not assumed, within the same
	// deadline.
	waitFor(t, time.Until(deadline), func() bool { hops, ok := dc.Route("b"); return ok && len(hops) == 0 })
	if _, err := dc.Resolve(core.MakeTranslatorID("a", "umiddle", "cam")); err != nil {
		t.Fatalf("c did not learn a's translator across the relay: %v", err)
	}
	hops, ok := dc.Route("a")
	if !ok || len(hops) != 1 || hops[0] != "b" {
		t.Fatalf("Route(a) = %v, %v; want [b]", hops, ok)
	}
	if hops, ok := dc.Route("b"); !ok || len(hops) != 0 {
		t.Fatalf("Route(b) = %v, %v; want direct", hops, ok)
	}
	if z := dc.ZoneOf("a"); z != "zoneA" {
		t.Fatalf("ZoneOf(a) = %q, want zoneA", z)
	}
	relayed := db.Obs().Counter("umiddle_directory_adverts_relayed_total", obs.Labels{"node": "b"}).Value()
	if relayed == 0 {
		t.Fatal("relay node b never relayed an advert")
	}
	// Liveness across the hop: a's lease at c is renewed by relayed
	// heartbeats well past the expiry window.
	time.Sleep(300 * time.Millisecond)
	if _, r := dc.Size(); r != 1 {
		t.Fatal("a's entry expired at c despite relayed heartbeats")
	}
	// Zone summaries expose the federation view.
	found := false
	for _, zs := range dc.Zones() {
		if zs.Zone == "zoneA" && zs.Node == "a" && zs.Entries == 1 && len(zs.Via) == 1 && zs.Via[0] == "b" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Zones() missing zoneA summary via b: %+v", dc.Zones())
	}
}

// TestNeighborZoneBootstrap: a relay answers a new neighbor's first
// announce by replaying its held remote zones onto the link (one
// merge-semantics advert per owner), so the joiner bootstraps from one
// hop away instead of pulling every zone from its owner across the
// mesh. The replayed adverts are unnumbered — they must not poison the
// owners' duplicate windows at the joiner — and carry a reconstructed
// Via so the joiner learns real routes.
func TestNeighborZoneBootstrap(t *testing.T) {
	net, err := netemu.NewMesh(netemu.Unlimited(), netemu.ChainTopology("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	opts := func(zone string, relay bool) Options {
		return Options{AnnounceInterval: 20 * time.Millisecond, Zone: zone, Relay: relay, RelayTTL: 4}
	}
	da := New("a", net.Host("a"), opts("zoneA", false))
	db := New("b", net.Host("b"), opts("", true))
	dc := New("c", net.Host("c"), opts("", false))
	defer da.Close()
	defer db.Close()
	defer dc.Close()
	da.Start()
	db.Start()
	dc.Start()
	if err := da.AddLocal(testTranslator(t, "a", "cam")); err != nil {
		t.Fatal(err)
	}
	if err := dc.AddLocal(testTranslator(t, "c", "mic")); err != nil {
		t.Fatal(err)
	}
	// b holds both zones before the joiner appears.
	waitFor(t, 3*time.Second, func() bool { _, r := db.Size(); return r == 2 })

	if _, err := net.AddHost("late"); err != nil {
		t.Fatal(err)
	}
	if err := net.AddLink("seg-late", "b", "late"); err != nil {
		t.Fatal(err)
	}
	late := New("late", net.Host("late"), opts("zoneLate", false))
	defer late.Close()
	late.Start()

	waitFor(t, 3*time.Second, func() bool { _, r := late.Size(); return r == 2 })
	served := db.Obs().Counter("umiddle_directory_bootstrap_adverts_total", obs.Labels{"node": "b"}).Value()
	if served == 0 {
		t.Fatal("relay b never served a zone bootstrap")
	}
	if hops, ok := late.Route("a"); !ok || len(hops) != 1 || hops[0] != "b" {
		t.Fatalf("Route(a) = %v, %v; want [b]", hops, ok)
	}
	if z := late.ZoneOf("a"); z != "zoneA" {
		t.Fatalf("ZoneOf(a) = %q, want zoneA", z)
	}
	// The bootstrap spoke for a and c without consuming their sequence
	// numbers: later adverts from the true origins must still integrate.
	if err := da.AddLocal(testTranslator(t, "a", "cam2")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { _, r := late.Size(); return r == 3 })
}

// TestMeshRouteFailover: on a diamond a—b—c / a—d—c, crashing relay b
// must fail c's route to a over to d without a's entries lapsing —
// the partitioned-intermediary healing guarantee at the gossip layer.
func TestMeshRouteFailover(t *testing.T) {
	topo := netemu.Topology{
		"ab": {"a", "b"}, "bc": {"b", "c"},
		"ad": {"a", "d"}, "dc": {"d", "c"},
	}
	net, err := netemu.NewMesh(netemu.Unlimited(), topo)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	opts := func(relay bool) Options {
		return Options{AnnounceInterval: 20 * time.Millisecond, Relay: relay, RelayTTL: 4}
	}
	da := New("a", net.Host("a"), opts(false))
	db := New("b", net.Host("b"), opts(true))
	dd := New("d", net.Host("d"), opts(true))
	dc := New("c", net.Host("c"), opts(false))
	defer da.Close()
	defer dd.Close()
	defer dc.Close()
	da.Start()
	db.Start()
	dd.Start()
	dc.Start()

	if err := da.AddLocal(testTranslator(t, "a", "cam")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 3*time.Second, func() bool { _, r := dc.Size(); return r == 1 })

	// Kill the b path abruptly (no bye): the route must converge on d.
	db.Close()
	waitFor(t, 3*time.Second, func() bool {
		hops, ok := dc.Route("a")
		return ok && len(hops) == 1 && hops[0] == "d"
	})
	// a must never have lapsed at c: entries survived the failover.
	if _, r := dc.Size(); r == 0 {
		t.Fatal("a's entries lapsed at c during route failover")
	}
	time.Sleep(200 * time.Millisecond)
	if _, err := dc.Resolve(core.MakeTranslatorID("a", "umiddle", "cam")); err != nil {
		t.Fatalf("a's translator lost after failover: %v", err)
	}
}

// TestZoneScopedReconcile: a sync's drop authority is limited to its
// zone — ghosts labeled with another zone survive until that zone's
// own sync.
func TestZoneScopedReconcile(t *testing.T) {
	d := New("h1", nil, Options{})
	defer d.Close()
	p1, p2 := testProfile("x", "one"), testProfile("x", "two")
	d.handleAdvert(advert{Type: "announce", Node: "x", Zone: "zx", Profiles: []core.Profile{p1}})
	d.handleAdvert(advert{Type: "announce", Node: "x", Zone: "zy", Profiles: []core.Profile{p2}})
	if _, r := d.Size(); r != 2 {
		t.Fatalf("remote = %d, want 2", r)
	}
	// Empty sync for zy: only zy's entry may be reconciled away.
	d.handleAdvert(advert{Type: "sync", Node: "x", Zone: "zy", Version: 9, Fp: 1})
	if _, err := d.Resolve(p1.ID); err != nil {
		t.Fatal("zone zx entry dropped by a zone zy sync")
	}
	if _, err := d.Resolve(p2.ID); err == nil {
		t.Fatal("zone zy ghost survived its own zone's sync")
	}
	// And zx's sync cleans up its own zone.
	d.handleAdvert(advert{Type: "sync", Node: "x", Zone: "zx", Version: 10, Fp: 2})
	if _, r := d.Size(); r != 0 {
		t.Fatalf("remote = %d after both zone syncs, want 0", r)
	}
}

// TestZonelessProfileAdvertMalformed: every profile-carrying advert
// names the zone its entries belong to. One without is counted malformed
// and changes nothing: population, digests, liveness and zone labels
// stay as they were.
func TestZonelessProfileAdvertMalformed(t *testing.T) {
	d := New("h1", nil, Options{})
	defer d.Close()
	d.handleAdvert(advert{Type: "announce", Node: "h2", Zone: "z2", Profiles: []core.Profile{testProfile("h2", "tv")}})
	malformed := d.Obs().Counter("umiddle_directory_adverts_malformed_total", obs.Labels{"node": "h1"})
	state := func() string {
		d.mu.RLock()
		fps := fmt.Sprint(d.nodeFP)
		d.mu.RUnlock()
		return fmt.Sprint(d.Lookup(core.Query{}), fps, d.Nodes(), d.ZoneOf("h2"), d.ZoneOf("h3"))
	}
	before, bad := state(), malformed.Value()
	for _, typ := range []string{"announce", "add", "sync", "bootstrap"} {
		for _, node := range []string{"h2", "h3"} {
			d.handleAdvert(advert{Type: typ, Node: node, LeaseMillis: 80, Version: 9, Fp: 7,
				Profiles: []core.Profile{testProfile(node, "cam")}})
			bad++
			if got := malformed.Value(); got != bad {
				t.Fatalf("zone-less %s from %s: malformed = %d, want %d", typ, node, got, bad)
			}
			if after := state(); after != before {
				t.Fatalf("zone-less %s from %s changed state:\n before %s\n after  %s", typ, node, before, after)
			}
		}
	}
}

// TestBootstrapAdvertIsMergeOnly: a bootstrap speaks for its owner
// without the owner's digest. The receiver merges its profiles and renews
// the owner's lease, and does nothing else: no sync_req to the owner
// (which would cross the mesh), no relay, no bootstrap in reply. The
// advert type decides this, not absent fields: an announce carrying no
// digest is compared like any other and requests a sync.
func TestBootstrapAdvertIsMergeOnly(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	d := New("late", net.MustAddHost("late"), Options{AnnounceInterval: time.Hour, Relay: true, RelayTTL: 4})
	defer d.Close()
	d.Start()
	// Held remote state, so a bootstrap reply would have something to serve.
	d.handleAdvert(advert{Type: "announce", Node: "c", Zone: "c", Profiles: []core.Profile{testProfile("c", "mic")}})
	reqs := sentCount(d, "sync_req")
	cam := testProfile("a", "cam")
	d.handleAdvert(advert{Type: "bootstrap", Node: "a", Zone: "zoneA", Profiles: []core.Profile{cam},
		LeaseMillis: 80, Via: []string{"b"}})
	if _, err := d.Resolve(cam.ID); err != nil {
		t.Fatalf("bootstrap not merged: %v", err)
	}
	if hops, ok := d.Route("a"); !ok || len(hops) != 1 || hops[0] != "b" {
		t.Fatalf("Route(a) = %v, %v; want [b]", hops, ok)
	}
	if z := d.ZoneOf("a"); z != "zoneA" {
		t.Fatalf("ZoneOf(a) = %q, want zoneA", z)
	}
	counter := func(name string) uint64 {
		return d.Obs().Counter(name, obs.Labels{"node": "late"}).Value()
	}
	if n := sentCount(d, "sync_req") - reqs; n != 0 {
		t.Fatalf("bootstrap provoked %d sync_req, want 0", n)
	}
	if n := counter("umiddle_directory_adverts_relayed_total"); n != 0 {
		t.Fatalf("bootstrap relayed %d times, want 0", n)
	}
	if n := counter("umiddle_directory_relay_ttl_dropped_total"); n != 0 {
		t.Fatalf("bootstrap reached the relay TTL check %d times, want 0", n)
	}
	d.mu.RLock()
	answered := !d.nodes["a"].lastBootstrap.IsZero()
	d.mu.RUnlock()
	if answered {
		t.Fatal("bootstrap answered with a bootstrap")
	}
	d.handleAdvert(advert{Type: "announce", Node: "a", Zone: "zoneA", Profiles: []core.Profile{cam}, Via: []string{"b"}})
	if n := sentCount(d, "sync_req") - reqs; n != 1 {
		t.Fatalf("a digest-less announce sent %d sync_req, want 1", n)
	}
}

// TestSingleZoneEquivalenceProperty: over randomized advert workloads, a
// directory in the single-zone-per-node mesh configuration (explicit
// Zone = node name, relay on) must hold exactly the state a plain
// directory (default zone, no relay) holds from the same advert stream,
// in which every sender stamps its own zone — the zone-scoped
// anti-entropy degenerates to the global protocol when every node owns
// one zone.
func TestSingleZoneEquivalenceProperty(t *testing.T) {
	nodes := []string{"r1", "r2", "r3"}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		plain := New("h1", nil, Options{})
		zoned := New("h1", nil, Options{Zone: "h1", Relay: true, RelayTTL: 4})
		apply := func(a advert) {
			plain.handleAdvert(a)
			zoned.handleAdvert(a)
		}
		for step := 0; step < 120; step++ {
			node := nodes[rng.Intn(len(nodes))]
			switch rng.Intn(6) {
			case 0, 1:
				n := 1 + rng.Intn(3)
				ps := make([]core.Profile, 0, n)
				for i := 0; i < n; i++ {
					ps = append(ps, testProfile(node, fmt.Sprintf("dev-%d", rng.Intn(6))))
				}
				apply(advert{Type: "announce", Node: node, Zone: node, Profiles: ps, Version: uint64(step), Fp: rng.Uint64()})
			case 2:
				id := core.MakeTranslatorID(node, "umiddle", fmt.Sprintf("dev-%d", rng.Intn(6)))
				apply(advert{Type: "remove", Node: node, Zone: node, Removed: []core.TranslatorID{id}})
			case 3:
				n := rng.Intn(3)
				ps := make([]core.Profile, 0, n)
				for i := 0; i < n; i++ {
					ps = append(ps, testProfile(node, fmt.Sprintf("dev-%d", rng.Intn(6))))
				}
				apply(advert{Type: "sync", Node: node, Zone: node, Profiles: ps, Version: uint64(step), Fp: rng.Uint64()})
			case 4:
				apply(advert{Type: "heartbeat", Node: node, Zone: node, Version: uint64(step), Fp: rng.Uint64()})
			case 5:
				apply(advert{Type: "bye", Node: node, Zone: node})
			}
		}
		qp, qz := plain.Lookup(core.Query{}), zoned.Lookup(core.Query{})
		if len(qp) != len(qz) {
			t.Fatalf("trial %d: plain holds %d profiles, zoned %d", trial, len(qp), len(qz))
		}
		for i := range qp {
			if qp[i].ID != qz[i].ID || qp[i].Node != qz[i].Node {
				t.Fatalf("trial %d: population diverged at %d: %s vs %s", trial, i, qp[i].ID, qz[i].ID)
			}
		}
		np, nz := plain.Nodes(), zoned.Nodes()
		if fmt.Sprint(np) != fmt.Sprint(nz) {
			t.Fatalf("trial %d: live nodes diverged: %v vs %v", trial, np, nz)
		}
		// Digest bookkeeping must agree too: same per-node fingerprints.
		plain.mu.RLock()
		zoned.mu.RLock()
		if fmt.Sprint(plain.nodeFP) != fmt.Sprint(zoned.nodeFP) {
			t.Fatalf("trial %d: node digests diverged: %v vs %v", trial, plain.nodeFP, zoned.nodeFP)
		}
		plain.mu.RUnlock()
		zoned.mu.RUnlock()
		plain.Close()
		zoned.Close()
	}
}
