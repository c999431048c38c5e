package mbmap

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mapper/mappertest"
	"repro/internal/netemu"
	"repro/internal/platform/mediabroker"
)

func newMBWorld(t *testing.T) (*netemu.Network, *mediabroker.Broker) {
	t.Helper()
	net := netemu.NewNetwork(netemu.Ethernet10Mbps())
	t.Cleanup(func() { net.Close() })
	broker, err := mediabroker.NewBroker(net.MustAddHost("mb-dev"))
	if err != nil {
		t.Fatalf("NewBroker: %v", err)
	}
	t.Cleanup(func() { broker.Close() })
	return net, broker
}

func startMapper(t *testing.T, net *netemu.Network) (*Mapper, *mappertest.Importer) {
	t.Helper()
	imp := mappertest.New("mapper-host")
	m := New(net.MustAddHost("mapper-host"), Options{
		BrokerHost:   "mb-dev",
		PollInterval: 80 * time.Millisecond,
	})
	if err := m.Start(context.Background(), imp); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m, imp
}

func TestMapsStreamAndForwardsFrames(t *testing.T) {
	net, _ := newMBWorld(t)
	m, imp := startMapper(t, net)

	prodHost := net.MustAddHost("producer")
	prod, err := mediabroker.NewProducer(context.Background(), prodHost, "mb-dev", "feed", "application/octet-stream")
	if err != nil {
		t.Fatalf("NewProducer: %v", err)
	}
	defer prod.Close()

	if err := imp.WaitCount(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	p := imp.Profiles()[0]
	if p.Name != "feed" || p.Attr("producer") != "producer" {
		t.Fatalf("profile = %v", p)
	}
	if m.MappedCount() != 1 {
		t.Fatalf("MappedCount = %d", m.MappedCount())
	}

	// Native frames surface on media-out with the declared port type.
	if err := prod.Send([]byte("frame-1")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	e, err := imp.WaitEmission("media-out", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(e.Msg.Payload) != "frame-1" || e.Msg.Type != "application/octet-stream" {
		t.Fatalf("emission = %v %q", e.Msg.Type, e.Msg.Payload)
	}
	if e.Msg.Header("mediaType") != "application/octet-stream" {
		t.Fatalf("headers = %v", e.Msg.Headers)
	}
}

func TestPublishCreatesReturnStream(t *testing.T) {
	net, broker := newMBWorld(t)
	_, imp := startMapper(t, net)
	prodHost := net.MustAddHost("producer")
	prod, err := mediabroker.NewProducer(context.Background(), prodHost, "mb-dev", "feed", "application/octet-stream")
	if err != nil {
		t.Fatalf("NewProducer: %v", err)
	}
	defer prod.Close()
	if err := imp.WaitCount(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	tr, _ := imp.Translator(core.Query{})
	if err := tr.Deliver(context.Background(), "media-in",
		core.NewMessage("application/octet-stream", []byte("back"))); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	// The return stream appears on the broker.
	deadline := time.Now().Add(5 * time.Second)
	for {
		found := false
		for _, s := range broker.Streams() {
			if s.Name == "feed"+ReturnSuffix {
				found = true
			}
		}
		if found {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("return stream never registered: %v", broker.Streams())
		}
		time.Sleep(20 * time.Millisecond)
	}
	// And return streams are never mapped back (no feedback loop).
	time.Sleep(300 * time.Millisecond)
	if imp.Count() != 1 {
		t.Fatalf("return stream was mapped: %v", imp.Profiles())
	}
}
