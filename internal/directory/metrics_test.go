package directory

import (
	"testing"
	"time"

	"repro/internal/netemu"
	"repro/internal/obs"
)

// TestDirectoryMetrics: the announce/expiry counters and malformed-
// advert counter feed the obs registry.
func TestDirectoryMetrics(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	d1 := New("h1", h1, fastOpts())
	d2 := New("h2", h2, fastOpts())
	defer d1.Close()
	defer d2.Close()
	if err := d1.Start(); err != nil {
		t.Fatalf("Start d1: %v", err)
	}
	if err := d2.Start(); err != nil {
		t.Fatalf("Start d2: %v", err)
	}
	if err := d1.AddLocal(testTranslator(t, "h1", "cam")); err != nil {
		t.Fatalf("AddLocal: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 1 })

	sent := d1.Obs().Counter("umiddle_directory_adverts_sent_total", obs.Labels{"node": "h1", "type": "announce"})
	if sent.Value() == 0 {
		t.Fatal("announce-sent counter never incremented")
	}
	recv := d2.Obs().Counter("umiddle_directory_adverts_received_total", obs.Labels{"node": "h2"})
	if recv.Value() == 0 {
		t.Fatal("adverts-received counter never incremented")
	}

	// Garbage on the group bumps the malformed counter.
	gc, err := net.MustAddHost("mal").JoinGroup(Group)
	if err != nil {
		t.Fatalf("JoinGroup: %v", err)
	}
	defer gc.Close()
	if err := gc.Send([]byte("{not json")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	mal := d2.Obs().Counter("umiddle_directory_adverts_malformed_total", obs.Labels{"node": "h2"})
	waitFor(t, 2*time.Second, func() bool { return mal.Value() >= 1 })

	// Silence h1: d2 expires the remote translator and counts it.
	netemuSilence(net, "h1", "h2")
	exp := d2.Obs().Counter("umiddle_directory_expired_total", obs.Labels{"node": "h2"})
	waitFor(t, 2*time.Second, func() bool { return exp.Value() >= 1 })

	// Trace ring saw the mapped and expired transitions.
	kinds := make(map[string]bool)
	for _, e := range d2.Obs().Trace().Events() {
		kinds[e.Kind] = true
	}
	if !kinds["translator_mapped"] || !kinds["expiry"] {
		t.Fatalf("trace missing transitions, got %v", kinds)
	}

	// The notify-latency histogram is registered up front so /metrics
	// renders it even before any listener fan-out happens.
	var found bool
	for _, h := range d2.Obs().Snapshot().Histograms {
		if h.Name == "umiddle_directory_notify_latency_seconds" {
			found = true
		}
	}
	if !found {
		t.Fatal("notify-latency histogram not registered")
	}
}

// netemuSilence partitions two hosts (helper so the test reads well).
func netemuSilence(net *netemu.Network, a, b string) {
	net.SetLinkDown(a, b, true)
}
