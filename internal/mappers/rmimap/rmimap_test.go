package rmimap

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mapper/mappertest"
	"repro/internal/netemu"
	"repro/internal/platform/rmi"
)

func newRMIWorld(t *testing.T) (*netemu.Network, *rmi.Server, *rmi.RegistryClient) {
	t.Helper()
	net := netemu.NewNetwork(netemu.Ethernet10Mbps())
	t.Cleanup(func() { net.Close() })
	rmiHost := net.MustAddHost("rmi-dev")
	reg, err := rmi.NewRegistry(rmiHost)
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	t.Cleanup(func() { reg.Close() })
	srv, err := rmi.NewServer(rmiHost, 0)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return net, srv, rmi.NewRegistryClient(rmiHost, "rmi-dev")
}

func startMapper(t *testing.T, net *netemu.Network) (*Mapper, *mappertest.Importer) {
	t.Helper()
	imp := mappertest.New("mapper-host")
	m := New(net.MustAddHost("mapper-host"), Options{
		RegistryHost: "rmi-dev",
		PollInterval: 80 * time.Millisecond,
	})
	if err := m.Start(context.Background(), imp); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m, imp
}

func TestMapsBoundObject(t *testing.T) {
	net, srv, rc := newRMIWorld(t)
	m, imp := startMapper(t, net)

	ref := rmi.ExportEcho(srv)
	if err := rc.Bind(context.Background(), "echo", ref); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	if err := imp.WaitCount(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	p := imp.Profiles()[0]
	if p.DeviceType != "EchoService" || p.Name != "echo" {
		t.Fatalf("profile = %v", p)
	}
	if m.MappedCount() != 1 {
		t.Fatalf("MappedCount = %d", m.MappedCount())
	}

	// A delivery to echo-in becomes a remote invocation; the result
	// surfaces on echo-out.
	tr, _ := imp.Translator(core.Query{})
	if err := tr.Deliver(context.Background(), "echo-in",
		core.NewMessage("application/octet-stream", []byte("marco"))); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	e, err := imp.WaitEmission("echo-out", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(e.Msg.Payload) != "marco" {
		t.Fatalf("echo = %q", e.Msg.Payload)
	}
}

func TestUnknownInterfaceSkipped(t *testing.T) {
	net, srv, rc := newRMIWorld(t)
	_, imp := startMapper(t, net)
	ref := srv.Export("ExoticService", map[string]rmi.Method{})
	rc.Bind(context.Background(), "exotic", ref)
	time.Sleep(400 * time.Millisecond)
	if imp.Count() != 0 {
		t.Fatalf("unknown interface mapped: %v", imp.Profiles())
	}
}

func TestRegistryOutageTolerated(t *testing.T) {
	net, srv, rc := newRMIWorld(t)
	m, imp := startMapper(t, net)
	rc.Bind(context.Background(), "echo", rmi.ExportEcho(srv))
	if err := imp.WaitCount(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Partition the registry: polls fail but the mapper keeps running
	// and the existing translator stays mapped.
	net.SetLinkDown("mapper-host", "rmi-dev", true)
	time.Sleep(300 * time.Millisecond)
	if m.MappedCount() != 1 {
		t.Fatalf("MappedCount during outage = %d", m.MappedCount())
	}
	net.SetLinkDown("mapper-host", "rmi-dev", false)
	time.Sleep(300 * time.Millisecond)
	if m.MappedCount() != 1 {
		t.Fatalf("MappedCount after heal = %d", m.MappedCount())
	}
}
