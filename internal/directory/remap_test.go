package directory

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
)

func TestRemapperBijective(t *testing.T) {
	r, err := newRemapper([]RemapRule{
		{Node: "h2", Mount: "kitchen"},
		{Node: "h3", Mount: "lab"},
	})
	if err != nil {
		t.Fatalf("newRemapper: %v", err)
	}
	cases := []struct{ wire, local core.TranslatorID }{
		{"h2/upnp/tv", "kitchen/upnp/tv"},
		{"h3/bt/cam", "lab/bt/cam"},
		{"h9/upnp/other", "h9/upnp/other"}, // no rule: identity
		{"h2", "h2"},                       // bare node name, no separator
	}
	for _, c := range cases {
		if got := r.mapID(c.wire); got != c.local {
			t.Fatalf("mapID(%s) = %s, want %s", c.wire, got, c.local)
		}
		if got := r.wireID(c.local); got != c.wire {
			t.Fatalf("wireID(%s) = %s, want %s", c.local, got, c.wire)
		}
	}
	// nil remapper is the identity both ways.
	var nilR *remapper
	if nilR.mapID("h2/upnp/tv") != "h2/upnp/tv" || nilR.wireID("kitchen/x") != "kitchen/x" {
		t.Fatal("nil remapper is not the identity")
	}
}

func TestRemapValidation(t *testing.T) {
	bad := [][]RemapRule{
		{{Node: "", Mount: "m"}},
		{{Node: "n", Mount: ""}},
		{{Node: "a/b", Mount: "m"}},
		{{Node: "n", Mount: "a/b"}},
		{{Node: "n", Mount: "m"}, {Node: "n", Mount: "m2"}}, // dup node
		{{Node: "n", Mount: "m"}, {Node: "n2", Mount: "m"}}, // dup mount
		{{Node: "a", Mount: "b"}, {Node: "b", Mount: "c"}},  // mount shadows node
	}
	for i, rules := range bad {
		if err := (Options{Remap: rules}).Validate(); err == nil {
			t.Fatalf("case %d: invalid rule set %v passed validation", i, rules)
		}
	}
	if err := (Options{ACL: []ACLRule{{Action: "maybe"}}}).Validate(); err == nil {
		t.Fatal("invalid ACL action passed validation")
	}
	// New must refuse (by panicking — programmer error) what Validate rejects.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("New accepted an invalid remap rule set")
			}
		}()
		New("h1", nil, Options{Remap: bad[0]})
	}()
}

func TestACLFirstMatchWins(t *testing.T) {
	a, err := newACLFilter([]ACLRule{
		{Action: Allow, Node: "h2", IDPrefix: "h2/upnp/"},
		{Action: Deny, Node: "h2"},
		{Action: Deny, IDPrefix: "h3/secret"},
	})
	if err != nil {
		t.Fatalf("newACLFilter: %v", err)
	}
	cases := []struct {
		node string
		id   core.TranslatorID
		want bool
	}{
		{"h2", "h2/upnp/tv", true},   // first rule admits
		{"h2", "h2/bt/cam", false},   // falls to the node-wide deny
		{"h3", "h3/secret/x", false}, // prefix deny
		{"h3", "h3/upnp/ok", true},   // no match: default allow
		{"h4", "h4/any", true},
	}
	for _, c := range cases {
		if got := a.allows(c.node, c.id); got != c.want {
			t.Fatalf("allows(%s, %s) = %v, want %v", c.node, c.id, got, c.want)
		}
	}
	// nodeDenied: h2's first matching rule is ID-scoped, so the verdict
	// is per-profile; a plain node-wide deny is a whole-advert reject.
	if a.nodeDenied("h2") {
		t.Fatal("nodeDenied(h2) = true despite an ID-scoped allow")
	}
	b, _ := newACLFilter([]ACLRule{{Action: Deny, Node: "h5"}})
	if !b.nodeDenied("h5") || b.nodeDenied("h6") {
		t.Fatal("node-wide deny verdicts wrong")
	}
	var nilA *aclFilter
	if !nilA.allows("x", "y") || nilA.nodeDenied("x") {
		t.Fatal("nil ACL filter must admit everything")
	}
}

// TestRemappedAnnounceResolves: profiles from a mounted node integrate
// under the remapped ID — resolvable, queryable, removable — while
// Profile.Node keeps the real node so liveness and dialing still work.
func TestRemappedAnnounceResolves(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	d1 := New("h1", h1, fastOpts())
	opts2 := fastOpts()
	opts2.Remap = []RemapRule{{Node: "h1", Mount: "kitchen"}}
	d2 := New("h2", h2, opts2)
	defer d1.Close()
	defer d2.Close()
	d1.Start()
	d2.Start()

	if err := d1.AddLocal(testTranslator(t, "h1", "stove")); err != nil {
		t.Fatalf("AddLocal: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 1 })

	wire := core.MakeTranslatorID("h1", "umiddle", "stove")
	local := d2.MapID(wire)
	if !strings.HasPrefix(string(local), "kitchen/") {
		t.Fatalf("MapID(%s) = %s, want kitchen/ prefix", wire, local)
	}
	if back := d2.WireID(local); back != wire {
		t.Fatalf("WireID(%s) = %s, want %s", local, back, wire)
	}
	p, err := d2.Resolve(local)
	if err != nil {
		t.Fatalf("Resolve(remapped): %v", err)
	}
	if p.Node != "h1" {
		t.Fatalf("remapped profile node = %q, want the real node h1", p.Node)
	}
	if _, err := d2.Resolve(wire); err == nil {
		t.Fatal("wire ID resolvable on the remapping node (namespace leaked)")
	}
	// Steady state under remap: digests are computed over wire state, so
	// the renamed view must not read as divergence.
	time.Sleep(150 * time.Millisecond)
	reqBefore := sentCount(d2, "sync_req")
	time.Sleep(10 * fastOpts().AnnounceInterval)
	if got := sentCount(d2, "sync_req") - reqBefore; got != 0 {
		t.Fatalf("remapped steady state sent %d sync_reqs, want 0", got)
	}
	// Removal propagates across the rename.
	d1.RemoveLocal(wire)
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 0 })
}

// TestACLDeniedEntriesShadowed: a node denying part of a peer's
// population by ACL must stay digest-convergent with that peer — the
// denied entries are shadow-accounted, not treated as divergence.
func TestACLDeniedEntriesShadowed(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	d1 := New("h1", h1, fastOpts())
	opts2 := fastOpts()
	opts2.ACL = []ACLRule{{Action: Deny, IDPrefix: "h1/umiddle/secret"}}
	d2 := New("h2", h2, opts2)
	defer d1.Close()
	defer d2.Close()
	d1.Start()
	d2.Start()

	d1.AddLocal(testTranslator(t, "h1", "public"))
	d1.AddLocal(testTranslator(t, "h1", "secret"))
	// The two profiles may arrive in either order, or in separate
	// adverts: wait for the denial itself, not just the admitted entry.
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 1 && d2.met.aclDenied.Value() > 0 })
	if _, err := d2.Resolve(core.MakeTranslatorID("h1", "umiddle", "secret")); err == nil {
		t.Fatal("ACL-denied entry resolvable")
	}

	// Without shadow accounting the missing fingerprint would trigger a
	// sync_req every interval, forever.
	waitQuiescent(t, d1, d2)
	reqBefore := sentCount(d2, "sync_req")
	waitHeartbeats(t, d1, 10)
	if got := sentCount(d2, "sync_req") - reqBefore; got != 0 {
		t.Fatalf("ACL-shadowed steady state sent %d sync_reqs, want 0", got)
	}

	// The shadow follows an explicit remove: the digest shifts with the
	// owner's and stays convergent.
	d1.RemoveLocal(core.MakeTranslatorID("h1", "umiddle", "secret"))
	waitQuiescent(t, d1, d2)
	reqBefore = sentCount(d2, "sync_req")
	waitHeartbeats(t, d1, 10)
	if got := sentCount(d2, "sync_req") - reqBefore; got != 0 {
		t.Fatalf("post-remove steady state sent %d sync_reqs, want 0", got)
	}
	if _, r := d2.Size(); r != 1 {
		t.Fatalf("remote = %d after removing the denied entry, want 1", r)
	}
}

// TestNodeWideACLDenyRejectsBeforeLiveness: a node every rule denies
// must not acquire a lease, plant state, or cause sync traffic.
func TestNodeWideACLDenyRejectsBeforeLiveness(t *testing.T) {
	opts := fastOpts()
	opts.ACL = []ACLRule{{Action: Deny, Node: "intruder"}}
	d := New("h1", nil, opts)
	defer d.Close()
	before := d.met.aclDenied.Value()
	d.handleAdvert(advert{Type: "announce", Node: "intruder", Zone: "intruder", Profiles: []core.Profile{remoteProfile("intruder", "mole")}, LeaseMillis: 80})
	d.handleAdvert(advert{Type: "heartbeat", Node: "intruder", LeaseMillis: 80, Version: 1, Fp: 7})
	if _, r := d.Size(); r != 0 {
		t.Fatal("denied node planted remote state")
	}
	if len(d.Nodes()) != 0 {
		t.Fatal("denied node acquired a liveness lease")
	}
	if d.met.aclDenied.Value()-before != 2 {
		t.Fatal("node-wide denials not counted per advert")
	}
}
