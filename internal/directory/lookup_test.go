package directory

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/obs"
)

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
