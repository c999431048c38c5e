package directory

import (
	"errors"
	"testing"
	"time"

	"repro/internal/netemu"
)

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
	d.sendHeartbeat(true)
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
