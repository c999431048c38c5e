package directory

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
)

// TestAnnounceNowTeachesLateJoiner: with a long announce interval, a
// node that joins after another's last advertisement stays ignorant
// until an explicit AnnounceNow pushes the state out — the hook the
// transport uses to rebind paths promptly after a partition heals.
func TestAnnounceNowTeachesLateJoiner(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := net.MustAddHost("h1")

	slow := Options{AnnounceInterval: time.Hour}
	d1 := New("h1", h1, slow)
	if err := d1.Start(); err != nil {
		t.Fatalf("d1 start: %v", err)
	}
	defer d1.Close()
	if err := d1.AddLocal(testTranslator(t, "h1", "camera")); err != nil {
		t.Fatalf("AddLocal: %v", err)
	}
	// Let the asynchronous add delta drain before the late joiner
	// appears, so the only way it can learn is via AnnounceNow.
	time.Sleep(50 * time.Millisecond)

	h2 := net.MustAddHost("h2")
	d2 := New("h2", h2, slow)
	if err := d2.Start(); err != nil {
		t.Fatalf("d2 start: %v", err)
	}
	defer d2.Close()

	// d1 announced before d2 existed; the next periodic announce is an
	// hour away, so d2 must not learn the camera on its own.
	time.Sleep(100 * time.Millisecond)
	if got := d2.Lookup(core.Query{NameContains: "camera"}); len(got) != 0 {
		t.Fatalf("late joiner learned %d translators without an announce", len(got))
	}

	d1.AnnounceNow()
	waitFor(t, 2*time.Second, func() bool {
		return len(d2.Lookup(core.Query{NameContains: "camera"})) == 1
	})
}

// TestStartSendsJoinAnnounce: Start returns only after the join announce
// went out, so a node's first datagram on the bus is its own full state
// and an AddLocal made right after Start reaches peers after it.
func TestStartSendsJoinAnnounce(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := net.MustAddHost("h1")
	// A raw bus member records h1's datagrams in send order (the
	// unlimited link delivers synchronously, without reordering).
	tap, err := net.MustAddHost("tap").JoinGroup(Group)
	if err != nil {
		t.Fatalf("tap join: %v", err)
	}
	defer tap.Close()

	d1 := New("h1", h1, Options{AnnounceInterval: time.Hour})
	defer d1.Close()
	if err := d1.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	if n := sentCount(d1, "announce"); n != 1 {
		t.Fatalf("announces sent when Start returned = %d, want 1", n)
	}
	if err := d1.AddLocal(testTranslator(t, "h1", "camera")); err != nil {
		t.Fatalf("AddLocal: %v", err)
	}

	var types []string
	tap.SetDeadline(time.Now().Add(3 * time.Second))
	for len(types) < 2 {
		dg, err := tap.Recv()
		if err != nil {
			t.Fatalf("tap recv after %v: %v", types, err)
		}
		var a advert
		if err := json.Unmarshal(dg.Payload, &a); err != nil {
			t.Fatalf("tap decode: %v", err)
		}
		types = append(types, a.Type)
	}
	if types[0] != "announce" || types[1] != "add" {
		t.Fatalf("h1's first adverts = %v, want [announce add]", types)
	}
}
