package directory

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
)

// roomTranslator is a local translator carrying a room attribute — the
// population shape the interest tests (and the dirscale experiment)
// filter on.
func roomTranslator(t *testing.T, node, name, room string) core.Translator {
	t.Helper()
	p := testProfile(node, name)
	p.Attributes = map[string]string{"room": room}
	return core.MustBase(p)
}

func roomQuery(room string) core.Query {
	return core.Query{Attributes: map[string]string{"room": room}}
}

func profileIDs(ps []core.Profile) []core.TranslatorID {
	ids := make([]core.TranslatorID, len(ps))
	for i, p := range ps {
		ids[i] = p.ID
	}
	return ids
}

// TestInterestSummaryCanonical: the summary fingerprint must not depend
// on clause order or registration order — senders key shared state by
// it, so two nodes with the same predicates must collide.
func TestInterestSummaryCanonical(t *testing.T) {
	a := &InterestSummary{
		Queries: []core.Query{roomQuery("r1"), {DeviceType: "lamp"}},
		IDs:     []core.TranslatorID{"h2/upnp/tv", "h3/bt/cam"},
	}
	b := &InterestSummary{
		Queries: []core.Query{{DeviceType: "lamp"}, roomQuery("r1")},
		IDs:     []core.TranslatorID{"h3/bt/cam", "h2/upnp/tv"},
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint depends on clause order")
	}
	c := &InterestSummary{Queries: []core.Query{roomQuery("r2")}}
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("distinct predicates share a fingerprint")
	}
	all := &InterestSummary{All: true}
	if all.Fingerprint() == a.Fingerprint() || all.Clauses() != 0 {
		t.Fatal("all-summary not distinct")
	}
}

// TestInterestSetRefcounts: duplicate registrations fold into one
// clause and the predicate only changes when the last reference drops.
func TestInterestSetRefcounts(t *testing.T) {
	d := New("h1", nil, Options{Interest: true})
	defer d.Close()
	if !d.InterestSummary().All {
		t.Fatal("fresh node must be interested in everything")
	}
	c1 := d.RegisterInterest(roomQuery("r1"))
	c2 := d.RegisterInterest(roomQuery("r1"))
	if sum := d.InterestSummary(); sum.All || len(sum.Queries) != 1 {
		t.Fatalf("summary = %+v, want one clause", sum)
	}
	c1()
	c1() // cancel is idempotent
	if sum := d.InterestSummary(); len(sum.Queries) != 1 {
		t.Fatal("first cancel dropped a still-referenced clause")
	}
	c2()
	if !d.InterestSummary().All {
		t.Fatal("last cancel did not restore interest-in-everything")
	}
}

// TestFilteredVisibilityMatchesUnfiltered is the interest machinery's
// correctness property: for every registered query, a filtering node
// must see exactly the population an unfiltered node sees — over
// randomized populations and query sets. Filtering may hide what nobody
// asked about, never what someone did.
func TestFilteredVisibilityMatchesUnfiltered(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	types := []string{"lamp", "sensor", "display", "camera"}
	for trial := 0; trial < 25; trial++ {
		n := 5 + rng.Intn(40)
		population := make([]core.Profile, n)
		for i := range population {
			p := remoteProfile("h2", fmt.Sprintf("dev-%d", i))
			p.DeviceType = types[rng.Intn(len(types))]
			p.Attributes = map[string]string{"room": fmt.Sprintf("room-%d", rng.Intn(6))}
			population[i] = p
		}
		queries := make([]core.Query, 1+rng.Intn(4))
		for i := range queries {
			switch rng.Intn(3) {
			case 0:
				queries[i] = core.Query{DeviceType: types[rng.Intn(len(types))]}
			case 1:
				queries[i] = roomQuery(fmt.Sprintf("room-%d", rng.Intn(6)))
			default:
				queries[i] = core.Query{
					DeviceType: types[rng.Intn(len(types))],
					Attributes: map[string]string{"room": fmt.Sprintf("room-%d", rng.Intn(6))},
				}
			}
		}

		plain := New("h1", nil, Options{})
		filtered := New("h1", nil, Options{Interest: true})
		for _, q := range queries {
			filtered.RegisterInterest(q)
		}
		deliver := func(d *Directory) {
			ps := make([]core.Profile, len(population))
			for i := range population {
				ps[i] = population[i].Clone()
			}
			d.handleAdvert(advert{Type: "announce", Node: "h2", Zone: "h2", Profiles: ps})
		}
		deliver(plain)
		deliver(filtered)

		for _, q := range queries {
			want := profileIDs(plain.Lookup(q))
			got := profileIDs(filtered.Lookup(q))
			if fmt.Sprint(want) != fmt.Sprint(got) {
				t.Fatalf("trial %d query %+v: filtered view %v != unfiltered %v", trial, q, got, want)
			}
		}
		// And the filtered node holds nothing outside its interest.
		for _, p := range filtered.Lookup(core.Query{}) {
			if p.Node != "h2" {
				continue
			}
			if !filtered.InterestSummary().Matches(p) {
				t.Fatalf("trial %d: filtered node holds uninteresting profile %s", trial, p.ID)
			}
		}
		plain.Close()
		filtered.Close()
	}
}

// TestInterestFilteringConvergesAndAdapts runs the full gossip loop: a
// filtering node converges to exactly its interest subset, stays
// converged without sync churn, suppresses uninteresting deltas at the
// sender, widens via the scoped-digest sync path, and narrows by
// pruning immediately on cancel.
func TestInterestFilteringConvergesAndAdapts(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	d1 := New("h1", h1, fastOpts())
	opts2 := fastOpts()
	opts2.Interest = true
	d2 := New("h2", h2, opts2)
	defer d1.Close()
	defer d2.Close()

	cancelR1 := d2.RegisterInterest(roomQuery("room-1"))
	d1.Start()
	d2.Start()
	// 10 translators across rooms 0..4, two per room.
	for i := 0; i < 10; i++ {
		room := fmt.Sprintf("room-%d", i%5)
		if err := d1.AddLocal(roomTranslator(t, "h1", fmt.Sprintf("dev-%d", i), room)); err != nil {
			t.Fatalf("AddLocal: %v", err)
		}
	}

	// Converge to the interest subset and nothing more.
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 2 })
	time.Sleep(150 * time.Millisecond)
	if _, r := d2.Size(); r != 2 {
		t.Fatalf("filtered view drifted: remote = %d, want 2", r)
	}

	// Steady state: scoped digests agree, no sync churn.
	reqBefore := sentCount(d2, "sync_req")
	addBefore := sentCount(d1, "add")

	// An uninteresting registration must be suppressed at the sender —
	// d2 is the only live peer and declared a concrete interest.
	if err := d1.AddLocal(roomTranslator(t, "h1", "boring", "room-9")); err != nil {
		t.Fatalf("AddLocal: %v", err)
	}
	time.Sleep(200 * time.Millisecond)
	if got := sentCount(d1, "add") - addBefore; got != 0 {
		t.Fatalf("sender broadcast %d add adverts for an uninteresting profile, want 0", got)
	}
	if got := sentCount(d2, "sync_req") - reqBefore; got != 0 {
		t.Fatalf("suppressed delta caused %d sync_reqs, want 0", got)
	}
	if _, r := d2.Size(); r != 2 {
		t.Fatalf("uninteresting profile leaked: remote = %d, want 2", r)
	}
	if d1.met.egressFiltered.Value() == 0 {
		t.Fatal("sender never counted an egress suppression")
	}

	// Widen: the new clause gossips on an immediate heartbeat, the
	// scoped digest stops matching, and a sync carries the rest.
	cancelR0 := d2.RegisterInterest(roomQuery("room-0"))
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 4 })

	// Narrow: cancelling prunes immediately, no round trip needed.
	cancelR0()
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 2 })

	// Dropping the last clause restores interest-in-everything and the
	// node fills up to the full population (11 with "boring").
	cancelR1()
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 11 })
}

// TestUnfilteredPeerKeepsFullView: egress filtering must disengage
// while any live peer has not declared a concrete interest — an
// unfiltered or just-joined node keeps receiving everything.
func TestUnfilteredPeerKeepsFullView(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2, h3 := net.MustAddHost("h1"), net.MustAddHost("h2"), net.MustAddHost("h3")
	d1 := New("h1", h1, fastOpts())
	opts2 := fastOpts()
	opts2.Interest = true
	d2 := New("h2", h2, opts2)
	d3 := New("h3", h3, fastOpts()) // plain node, interested in everything
	defer d1.Close()
	defer d2.Close()
	defer d3.Close()
	d2.RegisterInterest(roomQuery("room-1"))
	d1.Start()
	d2.Start()
	d3.Start()

	for i := 0; i < 6; i++ {
		room := fmt.Sprintf("room-%d", i%3)
		d1.AddLocal(roomTranslator(t, "h1", fmt.Sprintf("dev-%d", i), room))
	}
	// d3 must learn the whole population even though d2 filters.
	waitFor(t, 2*time.Second, func() bool { _, r := d3.Size(); return r == 6 })
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 2 })
}
