package directory

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
)

// TestBulkRegistrationBurst: a mapper importing a device population
// registers thousands of translators back to back. Adds that arrive
// while a delta flush is pending or being sent fold into the next one,
// so the burst costs a few dozen "add" adverts at most, never one per
// registration, and carries each profile once. An hour-long announce
// interval rules out heartbeats and periodic anti-entropy.
//
// On unlimited links the adverts arrive in order and the peer converges
// from the deltas alone. The emulated 10 Mbps bus delays each datagram
// by its own size, so a small advert can overtake a large one; the peer
// then sees a digest ahead of its view and asks for a sync, which
// absorbs the adds still pending. Only the fold and the at-most-once
// bound are asserted there.
func TestBulkRegistrationBurst(t *testing.T) {
	const burst = 4000
	for _, link := range []struct {
		name    string
		profile netemu.LinkProfile
		inOrder bool
	}{
		{"unlimited", netemu.Unlimited(), true},
		{"ethernet10mbps", netemu.Ethernet10Mbps(), false},
	} {
		t.Run(link.name, func(t *testing.T) {
			net := netemu.NewNetwork(link.profile)
			defer net.Close()
			opts := Options{AnnounceInterval: time.Hour}
			d1 := New("h1", net.MustAddHost("h1"), opts)
			d2 := New("h2", net.MustAddHost("h2"), opts)
			defer d1.Close()
			defer d2.Close()
			d2.Start()
			d1.Start()
			waitFor(t, 2*time.Second, func() bool { return len(d2.Nodes()) == 1 })

			trs := make([]core.Translator, burst)
			for i := range trs {
				trs[i] = testTranslator(t, "h1", fmt.Sprintf("dev-%d", i))
			}
			adds0, bytes0 := sentCount(d1, "add"), sentBytes(d1, "add")
			for _, tr := range trs {
				if err := d1.AddLocal(tr); err != nil {
					t.Fatalf("AddLocal: %v", err)
				}
			}
			waitFor(t, 5*time.Second, func() bool { return deltaIdle(d1) })
			if link.inOrder {
				waitFor(t, 5*time.Second, func() bool { _, r := d2.Size(); return r == burst })
			}

			adds, bytes := sentCount(d1, "add")-adds0, sentBytes(d1, "add")-bytes0
			// The reference is the whole burst in one advert.
			d1.mu.RLock()
			one := advert{Type: "add", Node: "h1", Zone: "h1", Seq: 1, TTL: DefaultRelayTTL,
				LeaseMillis: int64(d1.lease() / time.Millisecond), Version: d1.version, Fp: d1.localFP}
			for _, e := range d1.local {
				one.Profiles = append(one.Profiles, e.profile)
			}
			d1.mu.RUnlock()
			ref, err := json.Marshal(one)
			if err != nil {
				t.Fatal(err)
			}
			syncs := sentCount(d1, "sync")
			t.Logf("%d AddLocals: %d add adverts, %d bytes (one advert: %d bytes), %d syncs", burst, adds, bytes, len(ref), syncs)
			if adds == 0 || adds > burst/50 {
				t.Fatalf("burst sent %d add adverts, want 1..%d", adds, burst/50)
			}
			if over := float64(bytes)/float64(len(ref)) - 1; over > 0.01 {
				t.Fatalf("burst sent %d add bytes, %.2f%% over the one-advert %d: a profile went out twice", bytes, 100*over, len(ref))
			}
			if !link.inOrder {
				return
			}
			if under := 1 - float64(bytes)/float64(len(ref)); under > 0.01 {
				t.Fatalf("burst sent %d add bytes, %.2f%% under the one-advert %d", bytes, 100*under, len(ref))
			}
			if n := sentCount(d2, "sync_req"); n != 0 || syncs != 0 {
				t.Fatalf("in-order burst caused %d sync_reqs and %d syncs, want deltas alone", n, syncs)
			}
		})
	}
}

// eventLog is a Listener keeping one ordered event list per translator:
// true for mapped, false for unmapped.
type eventLog struct {
	mu     sync.Mutex
	events map[core.TranslatorID][]bool
}

func (l *eventLog) record(id core.TranslatorID, mapped bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.events == nil {
		l.events = make(map[core.TranslatorID][]bool)
	}
	l.events[id] = append(l.events[id], mapped)
}

func (l *eventLog) TranslatorsMapped(ps []core.Profile) {
	for i := range ps {
		l.record(ps[i].ID, true)
	}
}

func (l *eventLog) TranslatorsUnmapped(ids []core.TranslatorID) {
	for _, id := range ids {
		l.record(id, false)
	}
}

// TestReusedIDNetChange pins the Listener contract for a reused ID: 300
// back-to-back RemoveLocal/AddLocal cycles of one translator. A cycle
// may fold on the owner (the remove finds its add still pending) or
// reach the peer as a remove and an add; listeners see the net change
// per advert. At quiescence the peer holds the entry, every Unmapped
// its listener saw is followed by a Mapped, and the two populations
// agree.
func TestReusedIDNetChange(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	d1 := New("h1", net.MustAddHost("h1"), fastOpts())
	d2 := New("h2", net.MustAddHost("h2"), fastOpts())
	defer d1.Close()
	defer d2.Close()
	var log eventLog
	d2.AddListener(&log)
	d1.Start()
	d2.Start()

	reused := testTranslator(t, "h1", "reused")
	id := reused.Profile().ID
	for _, tr := range []core.Translator{reused, testTranslator(t, "h1", "stable")} {
		if err := d1.AddLocal(tr); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 2 })
	for i := 0; i < 300; i++ {
		if _, err := d1.RemoveLocal(id); err != nil {
			t.Fatalf("cycle %d: RemoveLocal: %v", i, err)
		}
		if err := d1.AddLocal(reused); err != nil {
			t.Fatalf("cycle %d: AddLocal: %v", i, err)
		}
	}
	waitQuiescent(t, d1, d2)

	if _, err := d2.Resolve(id); err != nil {
		t.Fatalf("peer lost the reused entry: %v", err)
	}
	log.mu.Lock()
	events := log.events[id]
	log.mu.Unlock()
	unmapped := 0
	for i, mapped := range events {
		if !mapped {
			unmapped++
			if !slices.Contains(events[i+1:], true) {
				t.Fatalf("event %d of %d is an Unmapped with no Mapped after it", i, len(events))
			}
		}
	}
	t.Logf("peer saw %d notifications for the reused ID, %d of them Unmapped", len(events), unmapped)
	var owner, peer []core.TranslatorID
	for _, p := range d1.Lookup(core.Query{Node: "h1"}) {
		owner = append(owner, p.ID)
	}
	for _, p := range d2.Lookup(core.Query{Node: "h1"}) {
		peer = append(peer, p.ID)
	}
	if !slices.Equal(owner, peer) {
		t.Fatalf("populations differ: owner %v, peer %v", owner, peer)
	}
}
