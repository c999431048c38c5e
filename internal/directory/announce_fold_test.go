package directory

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"repro/internal/netemu"
)

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
