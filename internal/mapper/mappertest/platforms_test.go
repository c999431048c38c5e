package mappertest_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/mapper/mappertest"
	"repro/internal/mappers/btmap"
	"repro/internal/mappers/mbmap"
	"repro/internal/mappers/motesmap"
	"repro/internal/mappers/rmimap"
	"repro/internal/mappers/upnpmap"
	"repro/internal/mappers/wsmap"
	"repro/internal/netemu"
	"repro/internal/platform/bluetooth"
	"repro/internal/platform/mediabroker"
	"repro/internal/platform/motes"
	"repro/internal/platform/rmi"
	"repro/internal/platform/upnp"
	"repro/internal/platform/webservice"
)

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// platforms lists the six bridged platforms and the toy, each with the
// fast cadences the suite runs them at.
func platforms() []platform {
	return []platform{
		{name: upnpmap.Platform, localID: "dev-1", settle: 400 * time.Millisecond, setup: setupUPnP},
		{name: btmap.Platform, localID: "dev-1", settle: 500 * time.Millisecond, setup: setupBluetooth},
		{name: rmimap.Platform, localID: "obj-1", settle: 400 * time.Millisecond, setup: setupRMI},
		{name: mbmap.Platform, localID: "stream-1", settle: 400 * time.Millisecond, setup: setupMediaBroker},
		{name: motesmap.Platform, localID: "mote-1", settle: 400 * time.Millisecond, rejoin: true, setup: setupMotes},
		{name: wsmap.Platform, localID: "svc-1", settle: 400 * time.Millisecond, setup: setupWebService},
		{name: toyPlatform, localID: "lamp-1", settle: 200 * time.Millisecond, setup: setupToy},
	}
}

func setupUPnP(t *testing.T, net *netemu.Network) (func(*mapper.Recorder) mapper.Mapper, func() device) {
	host := net.MustAddHost(node)
	newMapper := func(rec *mapper.Recorder) mapper.Mapper {
		return upnpmap.New(host, upnpmap.Options{SearchInterval: 100 * time.Millisecond, Recorder: rec})
	}
	return newMapper, func() device {
		var light *upnp.BinaryLight
		up := func() {
			// A rebooted light keeps its UUID (and so its USN).
			light = upnp.NewBinaryLight(freshHost(net, "light"), "l1", "Lamp", upnp.DeviceOptions{})
			must(t, light.Publish())
		}
		up()
		t.Cleanup(func() { light.Unpublish() })
		return device{
			down: func() { light.Unpublish() },
			up:   up,
			emit: func(imp *mappertest.Importer) {
				// Switching the light raises a GENA event.
				if tr, ok := imp.Translator(core.Query{}); ok {
					tr.Deliver(context.Background(), "power-on", core.Message{}) //nolint:errcheck
				}
			},
		}
	}
}

func setupBluetooth(t *testing.T, net *netemu.Network) (func(*mapper.Recorder) mapper.Mapper, func() device) {
	adapter, err := bluetooth.NewAdapter(net.MustAddHost(node), "mapper-bt", bluetooth.AdapterOptions{ScanInterval: 5 * time.Millisecond})
	must(t, err)
	t.Cleanup(func() { adapter.Close() })
	newMapper := func(rec *mapper.Recorder) mapper.Mapper {
		return btmap.New(adapter, btmap.Options{
			InquiryInterval: 100 * time.Millisecond,
			InquiryWindow:   60 * time.Millisecond,
			MissThreshold:   2,
			Recorder:        rec,
		})
	}
	return newMapper, func() device {
		// A HID mouse: its report reader is the mapper's event pump.
		mouseAdapter, err := bluetooth.NewAdapter(net.MustAddHost("mouse-dev"), "mouse-dev", bluetooth.AdapterOptions{ScanInterval: 5 * time.Millisecond})
		must(t, err)
		mouse, err := bluetooth.NewHIDMouse(mouseAdapter, "Mouse")
		must(t, err)
		t.Cleanup(func() {
			mouse.Close()
			mouseAdapter.Close()
		})
		return device{
			down: func() { mouseAdapter.SetDiscoverable(false) },
			up:   func() { mouseAdapter.SetDiscoverable(true) },
			emit: func(*mappertest.Importer) { mouse.Click(1) },
		}
	}
}

func setupRMI(t *testing.T, net *netemu.Network) (func(*mapper.Recorder) mapper.Mapper, func() device) {
	rmiHost := net.MustAddHost("rmi-dev")
	reg, err := rmi.NewRegistry(rmiHost)
	must(t, err)
	t.Cleanup(func() { reg.Close() })
	srv, err := rmi.NewServer(rmiHost, 0)
	must(t, err)
	t.Cleanup(func() { srv.Close() })
	host := net.MustAddHost(node)
	newMapper := func(rec *mapper.Recorder) mapper.Mapper {
		return rmimap.New(host, rmimap.Options{RegistryHost: "rmi-dev", PollInterval: 80 * time.Millisecond, Recorder: rec})
	}
	return newMapper, func() device {
		rc, ref := rmi.NewRegistryClient(rmiHost, "rmi-dev"), rmi.ExportEcho(srv)
		up := func() { must(t, rc.Rebind(context.Background(), "echo", ref)) }
		up()
		return device{down: func() { must(t, rc.Unbind(context.Background(), "echo")) }, up: up}
	}
}

func setupMediaBroker(t *testing.T, net *netemu.Network) (func(*mapper.Recorder) mapper.Mapper, func() device) {
	broker, err := mediabroker.NewBroker(net.MustAddHost("mb-dev"))
	must(t, err)
	t.Cleanup(func() { broker.Close() })
	host := net.MustAddHost(node)
	newMapper := func(rec *mapper.Recorder) mapper.Mapper {
		return mbmap.New(host, mbmap.Options{BrokerHost: "mb-dev", PollInterval: 80 * time.Millisecond, Recorder: rec})
	}
	return newMapper, func() device {
		prodHost := net.MustAddHost("producer")
		var prod *mediabroker.Producer
		up := func() {
			var err error
			prod, err = mediabroker.NewProducer(context.Background(), prodHost, "mb-dev", "feed", "application/octet-stream")
			must(t, err)
		}
		up()
		t.Cleanup(func() { prod.Close() })
		return device{
			down: func() { prod.Close() },
			up:   up,
			emit: func(*mappertest.Importer) { prod.Send([]byte("frame")) }, //nolint:errcheck
		}
	}
}

func setupMotes(t *testing.T, net *netemu.Network) (func(*mapper.Recorder) mapper.Mapper, func() device) {
	host := net.MustAddHost(node)
	newMapper := func(rec *mapper.Recorder) mapper.Mapper {
		return motesmap.New(host, motesmap.Options{LivenessWindow: 300 * time.Millisecond, Recorder: rec})
	}
	return newMapper, func() device {
		var mote *motes.Mote
		up := func() {
			var err error
			mote, err = motes.StartMote(freshHost(net, "mote"), node, 1, motes.MoteOptions{Interval: 30 * time.Millisecond})
			must(t, err)
		}
		up()
		t.Cleanup(func() { mote.Stop() })
		return device{
			down: func() { mote.Stop() },
			up:   up,
			// Every packet is a native event: the reading arrives on its own.
			emit: func(*mappertest.Importer) {},
		}
	}
}

func setupWebService(t *testing.T, net *netemu.Network) (func(*mapper.Recorder) mapper.Mapper, func() device) {
	ws, err := webservice.NewHost(net.MustAddHost("ws-dev"), 0)
	must(t, err)
	t.Cleanup(func() { ws.Close() })
	host := net.MustAddHost(node)
	newMapper := func(rec *mapper.Recorder) mapper.Mapper {
		return wsmap.New(host, wsmap.Options{BaseURLs: []string{ws.URL()}, PollInterval: 80 * time.Millisecond, Recorder: rec})
	}
	return newMapper, func() device {
		up := func() {
			ws.Register("calc", "xml-rpc", func(string, map[string]string) (map[string]string, error) { return nil, nil })
		}
		up()
		return device{down: func() { ws.Unregister("calc") }, up: up}
	}
}

// raise queues a state change without blocking.
func (l *toyLamp) raise(v string) {
	select {
	case l.events <- v:
	default:
	}
}

func setupToy(*testing.T, *netemu.Network) (func(*mapper.Recorder) mapper.Mapper, func() device) {
	w := &toyWorld{lamps: make(map[string]*toyLamp)}
	return func(rec *mapper.Recorder) mapper.Mapper { return newToyMapper(w, rec) }, func() device {
		l := w.set("lamp", true)
		return device{
			down: func() { w.set("lamp", false) },
			up:   func() { w.set("lamp", true) },
			emit: func(*mappertest.Importer) { l.raise("on") },
		}
	}
}
