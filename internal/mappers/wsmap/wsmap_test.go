package wsmap

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mapper/mappertest"
	"repro/internal/netemu"
	"repro/internal/platform/webservice"
)

func newWSWorld(t *testing.T) (*netemu.Network, *webservice.Host) {
	t.Helper()
	net := netemu.NewNetwork(netemu.Ethernet10Mbps())
	t.Cleanup(func() { net.Close() })
	ws, err := webservice.NewHost(net.MustAddHost("ws-dev"), 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	t.Cleanup(func() { ws.Close() })
	return net, ws
}

func startMapper(t *testing.T, net *netemu.Network, baseURLs []string) (*Mapper, *mappertest.Importer) {
	t.Helper()
	imp := mappertest.New("mapper-host")
	m := New(net.MustAddHost("mapper-host"), Options{
		BaseURLs:     baseURLs,
		PollInterval: 80 * time.Millisecond,
	})
	if err := m.Start(context.Background(), imp); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m, imp
}

func TestMapsServiceAndInvokes(t *testing.T) {
	net, ws := newWSWorld(t)
	ws.Register("calc", "xml-rpc", func(method string, params map[string]string) (map[string]string, error) {
		if method != "add" {
			return nil, fmt.Errorf("unknown method")
		}
		a, _ := strconv.Atoi(params["a"])
		b, _ := strconv.Atoi(params["b"])
		return map[string]string{"sum": strconv.Itoa(a + b)}, nil
	})
	m, imp := startMapper(t, net, []string{ws.URL()})

	if err := imp.WaitCount(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	p := imp.Profiles()[0]
	if p.Name != "calc" || p.DeviceType != "xml-rpc" {
		t.Fatalf("profile = %v", p)
	}
	if m.MappedCount() != 1 {
		t.Fatalf("MappedCount = %d", m.MappedCount())
	}

	tr, _ := imp.Translator(core.Query{})
	req := `<request><method>add</method><param name="a">40</param><param name="b">2</param></request>`
	if err := tr.Deliver(context.Background(), "request-in",
		core.NewMessage("application/xml", []byte(req))); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	e, err := imp.WaitEmission("response-out", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(e.Msg.Payload), "42") {
		t.Fatalf("response = %q", e.Msg.Payload)
	}
}

func TestServiceFaultPropagates(t *testing.T) {
	net, ws := newWSWorld(t)
	ws.Register("fails", "xml-rpc", func(string, map[string]string) (map[string]string, error) {
		return nil, fmt.Errorf("deliberate failure")
	})
	_, imp := startMapper(t, net, []string{ws.URL()})
	if err := imp.WaitCount(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	tr, _ := imp.Translator(core.Query{})
	err := tr.Deliver(context.Background(), "request-in",
		core.NewMessage("application/xml", []byte(`<request><method>x</method></request>`)))
	if err == nil || !strings.Contains(err.Error(), "deliberate failure") {
		t.Fatalf("err = %v", err)
	}
}

func TestBadRequestDocumentRejected(t *testing.T) {
	net, ws := newWSWorld(t)
	ws.Register("svc", "xml-rpc", func(string, map[string]string) (map[string]string, error) {
		return nil, nil
	})
	_, imp := startMapper(t, net, []string{ws.URL()})
	if err := imp.WaitCount(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	tr, _ := imp.Translator(core.Query{})
	err := tr.Deliver(context.Background(), "request-in",
		core.NewMessage("application/xml", []byte("<not-a-request")))
	if err == nil {
		t.Fatal("malformed request accepted")
	}
}

func TestMultipleHosts(t *testing.T) {
	net, ws1 := newWSWorld(t)
	ws2, err := webservice.NewHost(net.MustAddHost("ws-dev-2"), 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	defer ws2.Close()
	ws1.Register("a", "xml-rpc", func(string, map[string]string) (map[string]string, error) { return nil, nil })
	ws2.Register("b", "xml-rpc", func(string, map[string]string) (map[string]string, error) { return nil, nil })
	_, imp := startMapper(t, net, []string{ws1.URL(), ws2.URL()})
	if err := imp.WaitCount(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
}
