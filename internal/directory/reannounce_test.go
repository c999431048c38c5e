package directory

import (
	"testing"

	"repro/internal/core"
)

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
