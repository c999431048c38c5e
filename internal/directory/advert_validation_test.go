package directory

import (
	"testing"

	"repro/internal/core"
)

// TestSelfAndEmptyNodeAdvertsRejected: no advert legitimately names an
// empty node (its state could never be leased out or byed away) or this
// node itself (own datagrams are filtered by sender; a self-node advert
// is spoofed). Before the fix these were integrated like any other —
// an empty-node announce planted unexpirable ghost entries and a
// self-node bye tore down liveness bookkeeping.
func TestSelfAndEmptyNodeAdvertsRejected(t *testing.T) {
	d := New("h1", nil, Options{})
	defer d.Close()
	if err := d.AddLocal(testTranslator(t, "h1", "own")); err != nil {
		t.Fatalf("AddLocal: %v", err)
	}
	before := d.met.malformed.Value()

	d.handleAdvert(advert{Type: "announce", Node: "", Zone: "anon", Profiles: []core.Profile{remoteProfile("", "anon")}})
	d.handleAdvert(advert{Type: "announce", Node: "h1", Zone: "h1", Profiles: []core.Profile{remoteProfile("h1", "spoof")}})
	d.handleAdvert(advert{Type: "heartbeat", Node: "", LeaseMillis: 80, Version: 1, Fp: 9})
	d.handleAdvert(advert{Type: "bye", Node: "h1"})

	if _, r := d.Size(); r != 0 {
		t.Fatalf("hostile adverts planted %d remote entries", r)
	}
	if nodes := d.Nodes(); len(nodes) != 0 {
		t.Fatalf("hostile adverts created node state: %v", nodes)
	}
	if got := d.met.malformed.Value() - before; got != 4 {
		t.Fatalf("malformed counter advanced by %d, want 4", got)
	}
	// The self-node bye must not have touched local state.
	if _, ok := d.Local(core.MakeTranslatorID("h1", "umiddle", "own")); !ok {
		t.Fatal("self-node bye displaced a local translator")
	}
}
