package directory

import (
	"encoding/json"
	"testing"

	"repro/internal/core"
)

// FuzzHandleAdvert throws arbitrary adverts at a directory — malformed
// JSON, hostile node/profile claims, huge leases, unknown types — and
// checks the two invariants that matter: handleAdvert never panics, and
// the lookup index never diverges from the authoritative maps (a
// corrupted index would silently mis-route bindings long after the bad
// advert).
func FuzzHandleAdvert(f *testing.F) {
	seed := func(a advert) {
		data, err := json.Marshal(a)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	p := remoteProfile("h2", "tv")
	seed(advert{Type: "announce", Node: "h2", Zone: "h2", Profiles: []core.Profile{p}, LeaseMillis: 80, Version: 1, Fp: 42})
	seed(advert{Type: "add", Node: "h2", Zone: "h2", Profiles: []core.Profile{p}, Version: 2, Fp: 7})
	seed(advert{Type: "heartbeat", Node: "h2", LeaseMillis: 80, Version: 3, Fp: 9})
	seed(advert{Type: "remove", Node: "h2", Removed: []core.TranslatorID{p.ID}, Version: 4})
	seed(advert{Type: "sync", Node: "h2", Zone: "h2", Profiles: []core.Profile{p}, Version: 5, Fp: 42})
	seed(advert{Type: "sync_req", Node: "h2", Target: "h1"})
	seed(advert{Type: "bye", Node: "h2"})
	// Hostile shapes: our own node name, empty node, absurd lease, dup IDs.
	seed(advert{Type: "announce", Node: "h1", Zone: "h1", Profiles: []core.Profile{remoteProfile("h1", "spoof")}})
	seed(advert{Type: "announce", Node: "", Zone: "anon", Profiles: []core.Profile{remoteProfile("", "anon")}})
	seed(advert{Type: "heartbeat", Node: "h2", LeaseMillis: 1<<62 + 11})
	seed(advert{Type: "sync", Node: "h3", Zone: "h3", Profiles: []core.Profile{p, p}})
	seed(advert{Type: "bye", Node: "h1"}) // self-node bye
	seed(advert{Type: "heartbeat", Node: "", Version: 9, Fp: 1})
	seed(advert{Type: "heartbeat", Node: "h2", LeaseMillis: 80, Version: 3, Fp: 9,
		Interest: &InterestSummary{IDs: []core.TranslatorID{"h1/umiddle/own"}},
		Ifps:     map[string]uint64{"0": 1, "x": 2}})
	seed(advert{Type: "sync", Node: "h2", Zone: "h2", Profiles: []core.Profile{p}, Version: 6, Fp: 42, Filtered: true})
	// A profile-carrying advert with no zone label.
	seed(advert{Type: "add", Node: "h2", Profiles: []core.Profile{p}, LeaseMillis: 80, Version: 7, Fp: 42})
	f.Add([]byte(`{"type":"announce","node":"h2","profiles":[{"id":"x"}]}`))
	f.Add([]byte(`{not json`))
	// Every advert type exactly as its sender encodes it.
	goldenSeeds(f, "advert_*.hex")

	f.Fuzz(func(t *testing.T, data []byte) {
		var a advert
		if err := json.Unmarshal(data, &a); err != nil {
			return // receiveLoop drops these before handleAdvert
		}
		d := New("h1", nil, Options{})
		defer d.Close()
		if err := d.AddLocal(testTranslator(t, "h1", "own")); err != nil {
			t.Fatal(err)
		}
		d.handleAdvert(a)
		// Index/maps coherence: the snapshot the read path serves must
		// list exactly the entries the maps hold, and every entry must
		// resolve through the index.
		local, remote := d.Size()
		all := d.Lookup(core.Query{})
		if len(all) != local+remote {
			t.Fatalf("index diverged: Lookup(all) = %d, Size = %d+%d", len(all), local, remote)
		}
		for _, p := range all {
			got, err := d.Resolve(p.ID)
			if err != nil {
				t.Fatalf("indexed profile %s does not resolve: %v", p.ID, err)
			}
			if got.ID != p.ID {
				t.Fatalf("Resolve(%s) returned %s", p.ID, got.ID)
			}
		}
		// Our own state must never be overwritten by an advert.
		if _, ok := d.Local(core.MakeTranslatorID("h1", "umiddle", "own")); !ok {
			t.Fatal("advert displaced a local translator")
		}
	})
}
