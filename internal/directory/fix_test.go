package directory

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
	"repro/internal/obs"
)

// remoteProfile builds an announce-ready profile (ShapePorts synced, as
// it would arrive on the wire) for a foreign node.
func remoteProfile(node, local string, ports ...core.Port) core.Profile {
	if len(ports) == 0 {
		ports = []core.Port{{Name: "out", Kind: core.Digital, Direction: core.Output, Type: "text/plain"}}
	}
	p := core.Profile{
		ID:       core.MakeTranslatorID(node, "umiddle", local),
		Name:     local,
		Platform: "umiddle",
		Node:     node,
		Shape:    core.MustShape(ports...),
	}
	p.SyncShapePorts()
	return p
}

// TestReannounceChangedProfileNotifies: a re-announced profile with a
// changed shape (ports added/removed) must re-notify listeners, or
// ConnectQuery dynamic bindings never see device updates. Before the
// fix, integrate only notified when the profile ID was new and silently
// overwrote changed state.
func TestReannounceChangedProfileNotifies(t *testing.T) {
	d := New("h1", nil, Options{})
	defer d.Close()
	rec := &recorder{}
	d.AddListener(rec)

	p1 := remoteProfile("h2", "tv")
	d.handleAdvert(advert{Type: "announce", Node: "h2", Zone: "h2", Profiles: []core.Profile{p1}})
	if m, _ := rec.counts(); m != 1 {
		t.Fatalf("mapped = %d after first announce, want 1", m)
	}

	// Identical re-announce: the periodic heartbeat must stay silent.
	d.handleAdvert(advert{Type: "announce", Node: "h2", Zone: "h2", Profiles: []core.Profile{p1}})
	if m, _ := rec.counts(); m != 1 {
		t.Fatalf("mapped = %d after identical re-announce, want 1 (no spurious notify)", m)
	}

	// Same ID, new port: the device grew a capability.
	p2 := remoteProfile("h2", "tv",
		core.Port{Name: "out", Kind: core.Digital, Direction: core.Output, Type: "text/plain"},
		core.Port{Name: "image-in", Kind: core.Digital, Direction: core.Input, Type: "image/jpeg"},
	)
	d.handleAdvert(advert{Type: "announce", Node: "h2", Zone: "h2", Profiles: []core.Profile{p2}})
	if m, _ := rec.counts(); m != 2 {
		t.Fatalf("mapped = %d after changed re-announce, want 2 (update notification)", m)
	}

	// The stored profile reflects the update.
	got, err := d.Resolve(p2.ID)
	if err != nil {
		t.Fatalf("Resolve: %v", err)
	}
	if _, ok := got.Shape.Port("image-in"); !ok {
		t.Fatal("updated shape not stored")
	}

	rec.mu.Lock()
	last := rec.mapped[len(rec.mapped)-1]
	rec.mu.Unlock()
	if _, ok := last.Shape.Port("image-in"); !ok {
		t.Fatal("update notification carried the stale shape")
	}
}

// TestLookupSortedByNodeID: Lookup iterates two Go maps; before the fix
// results were randomly ordered, so dynamic binding picked a
// nondeterministic match. Results must be sorted by (Node, ID).
func TestLookupSortedByNodeID(t *testing.T) {
	d := New("h1", nil, Options{})
	defer d.Close()

	// Local translators on h1 plus remote ones from h0 and h2, added in
	// scrambled order.
	for _, name := range []string{"svc-c", "svc-a", "svc-b"} {
		if err := d.AddLocal(testTranslator(t, "h1", name)); err != nil {
			t.Fatalf("AddLocal: %v", err)
		}
	}
	for _, nl := range [][2]string{{"h2", "zz"}, {"h0", "mm"}, {"h2", "aa"}, {"h0", "bb"}} {
		d.handleAdvert(advert{Type: "announce", Node: nl[0], Zone: nl[0], Profiles: []core.Profile{remoteProfile(nl[0], nl[1])}})
	}

	// Repeat to catch map-order luck: a random order passes one draw
	// roughly 1 in 5040 times, but not 50 in a row.
	for i := 0; i < 50; i++ {
		got := d.Lookup(core.Query{})
		if len(got) != 7 {
			t.Fatalf("Lookup returned %d profiles, want 7", len(got))
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].Node != got[j].Node {
				return got[i].Node < got[j].Node
			}
			return got[i].ID < got[j].ID
		}) {
			t.Fatalf("Lookup not sorted by (Node, ID): %v", got)
		}
	}
}

// observeGroup joins the directory group on a fresh host and returns a
// counter of adverts received per type, polled via the returned func.
func observeGroup(t *testing.T, net *netemu.Network, host string) func() map[string]int {
	t.Helper()
	h := net.MustAddHost(host)
	gc, err := h.JoinGroup(Group)
	if err != nil {
		t.Fatalf("JoinGroup: %v", err)
	}
	t.Cleanup(func() { gc.Close() })
	counts := make(chan map[string]int, 1)
	counts <- map[string]int{}
	go func() {
		for {
			dg, err := gc.Recv()
			if err != nil {
				return
			}
			var a advert
			if err := json.Unmarshal(dg.Payload, &a); err != nil {
				continue
			}
			m := <-counts
			m[a.Type]++
			counts <- m
		}
	}()
	return func() map[string]int {
		m := <-counts
		cp := make(map[string]int, len(m))
		for k, v := range m {
			cp[k] = v
		}
		counts <- cp
		return cp
	}
}

// TestAddLocalCoalescesAnnounces: before the fix every AddLocal fired a
// full-state AnnounceNow, so importing N translators broadcast O(N²)
// profile payloads. Registrations arriving while a delta flush is
// pending or being sent must fold into the next one.
func TestAddLocalCoalescesAnnounces(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := net.MustAddHost("h1")
	poll := observeGroup(t, net, "watcher")

	// A long announce interval isolates AddLocal-triggered announces
	// from the periodic heartbeat.
	d := New("h1", h1, Options{AnnounceInterval: time.Hour})
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer d.Close()
	time.Sleep(50 * time.Millisecond) // drain Start's initial announce
	baseline := poll()
	base := baseline["add"]

	const burst = 20
	for i := 0; i < burst; i++ {
		if err := d.AddLocal(testTranslator(t, "h1", fmt.Sprintf("dev-%d", i))); err != nil {
			t.Fatalf("AddLocal: %v", err)
		}
	}
	time.Sleep(150 * time.Millisecond)
	counts := poll()
	adds := counts["add"] - base
	if adds == 0 {
		t.Fatal("burst produced no add advert at all")
	}
	// Pre-fix this is exactly `burst`; folding while a flush is in
	// flight gets it to a few (how many depends on scheduling).
	if adds > 3 {
		t.Fatalf("burst of %d AddLocals produced %d add adverts, want coalesced (<=3)", burst, adds)
	}
	// Under the delta protocol a registration burst must not trigger
	// full-state rebroadcasts either.
	if got := counts["announce"] - baseline["announce"]; got != 0 {
		t.Fatalf("burst produced %d full announces, want 0 (deltas only)", got)
	}
}

// TestRemoveAfterCloseSafe: RemoveLocal and advert emission after Close
// must not panic and must not put datagrams on the group.
func TestRemoveAfterCloseSafe(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := net.MustAddHost("h1")
	poll := observeGroup(t, net, "watcher")

	d := New("h1", h1, Options{AnnounceInterval: time.Hour})
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	tr := testTranslator(t, "h1", "x")
	if err := d.AddLocal(tr); err != nil {
		t.Fatalf("AddLocal: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	time.Sleep(50 * time.Millisecond) // let the bye land
	before := poll()

	if _, err := d.RemoveLocal(tr.Profile().ID); !errors.Is(err, netemu.ErrClosed) {
		t.Fatalf("RemoveLocal after Close err = %v, want ErrClosed", err)
	}
	d.AnnounceNow()                  // must be a silent no-op
	d.send(advert{Type: "announce"}) // likewise
	d.flushDelta()
	d.scheduleSync()
	d.sendHeartbeat()
	time.Sleep(100 * time.Millisecond)

	after := poll()
	for _, typ := range advertTypes {
		if typ == "bye" {
			continue
		}
		if before[typ] != after[typ] {
			t.Fatalf("%s adverts escaped after Close: before=%v after=%v", typ, before, after)
		}
	}
	if after["bye"] != 1 {
		t.Fatalf("bye count = %d, want exactly 1", after["bye"])
	}
}

// TestDirectoryMetrics: the announce/expiry counters and malformed-
// advert counter feed the obs registry.
func TestDirectoryMetrics(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	d1 := New("h1", h1, fastOpts())
	d2 := New("h2", h2, fastOpts())
	defer d1.Close()
	defer d2.Close()
	if err := d1.Start(); err != nil {
		t.Fatalf("Start d1: %v", err)
	}
	if err := d2.Start(); err != nil {
		t.Fatalf("Start d2: %v", err)
	}
	if err := d1.AddLocal(testTranslator(t, "h1", "cam")); err != nil {
		t.Fatalf("AddLocal: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 1 })

	sent := d1.Obs().Counter("umiddle_directory_adverts_sent_total", obs.Labels{"node": "h1", "type": "announce"})
	if sent.Value() == 0 {
		t.Fatal("announce-sent counter never incremented")
	}
	recv := d2.Obs().Counter("umiddle_directory_adverts_received_total", obs.Labels{"node": "h2"})
	if recv.Value() == 0 {
		t.Fatal("adverts-received counter never incremented")
	}

	// Garbage on the group bumps the malformed counter.
	gc, err := net.MustAddHost("mal").JoinGroup(Group)
	if err != nil {
		t.Fatalf("JoinGroup: %v", err)
	}
	defer gc.Close()
	if err := gc.Send([]byte("{not json")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	mal := d2.Obs().Counter("umiddle_directory_adverts_malformed_total", obs.Labels{"node": "h2"})
	waitFor(t, 2*time.Second, func() bool { return mal.Value() >= 1 })

	// Silence h1: d2 expires the remote translator and counts it.
	netemuSilence(net, "h1", "h2")
	exp := d2.Obs().Counter("umiddle_directory_expired_total", obs.Labels{"node": "h2"})
	waitFor(t, 2*time.Second, func() bool { return exp.Value() >= 1 })

	// Trace ring saw the mapped and expired transitions.
	kinds := make(map[string]bool)
	for _, e := range d2.Obs().Trace().Events() {
		kinds[e.Kind] = true
	}
	if !kinds["translator_mapped"] || !kinds["expiry"] {
		t.Fatalf("trace missing transitions, got %v", kinds)
	}

	// The notify-latency histogram is registered up front so /metrics
	// renders it even before any listener fan-out happens.
	var found bool
	for _, h := range d2.Obs().Snapshot().Histograms {
		if h.Name == "umiddle_directory_notify_latency_seconds" {
			found = true
		}
	}
	if !found {
		t.Fatal("notify-latency histogram not registered")
	}
}

// netemuSilence partitions two hosts (helper so the test reads well).
func netemuSilence(net *netemu.Network, a, b string) {
	net.SetLinkDown(a, b, true)
}

// TestLookupCacheEquivalenceProperty drives the directory through
// random announce / re-announce / remove churn and, after every step,
// checks each query's cached Lookup against a direct uncached scan of
// the live profile set. Re-announces change shapes under stable IDs, so
// the run exercises the overlay shadowing a stale base entry as well as
// removal.
func TestLookupCacheEquivalenceProperty(t *testing.T) {
	d := New("h1", nil, Options{})
	defer d.Close()

	portSets := [][]core.Port{
		{{Name: "out", Kind: core.Digital, Direction: core.Output, Type: "text/plain"}},
		{
			{Name: "out", Kind: core.Digital, Direction: core.Output, Type: "text/plain"},
			{Name: "image-in", Kind: core.Digital, Direction: core.Input, Type: "image/jpeg"},
		},
		{{Name: "ctl", Kind: core.Physical, Direction: core.Input, Type: "visible/paper"}},
	}
	queries := []core.Query{
		{},
		{Ports: []core.PortTemplate{{Direction: core.Input, Type: "image/*"}}},
		{NameContains: "tv"},
		{Node: "h2"},
		{Platform: "umiddle", Ports: []core.PortTemplate{{Kind: core.Physical}}},
	}
	names := []string{"tv", "cam", "clock"}
	live := map[core.TranslatorID]core.Profile{}

	f := func(ni, pi byte, drop bool) bool {
		name := names[int(ni)%len(names)]
		if drop {
			p := remoteProfile("h2", name)
			d.handleAdvert(advert{Type: "remove", Node: "h2", Removed: []core.TranslatorID{p.ID}})
			delete(live, p.ID)
		} else {
			p := remoteProfile("h2", name, portSets[int(pi)%len(portSets)]...)
			d.handleAdvert(advert{Type: "announce", Node: "h2", Zone: "h2", Profiles: []core.Profile{p}})
			live[p.ID] = p
		}
		for _, q := range queries {
			got := d.Lookup(q)
			want := 0
			for _, p := range live {
				if q.Matches(p) {
					want++
				}
			}
			if len(got) != want {
				return false
			}
			for _, g := range got {
				if !q.Matches(g) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	// The churn touches three IDs, so one indexed base serves the whole
	// run and its query cache must have answered lookups across mutations.
	if d.Obs().Counter("umiddle_directory_query_cache_hits_total", obs.Labels{"node": "h1"}).Value() == 0 {
		t.Fatal("lookup churn never hit the query-result cache")
	}
}
