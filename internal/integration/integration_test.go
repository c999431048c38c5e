// Package integration exercises uMiddle end-to-end: real emulated
// devices on the emulated network, discovered by platform mappers,
// imported into runtimes, and composed across platforms through the
// directory and transport modules — including the paper's Figure 5
// scenario (Bluetooth BIP camera on node H1, UPnP MediaRenderer TV on
// node H2).
package integration

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/mapper"
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
	"repro/internal/runtime"
	"repro/internal/transport"
)

// world is a test fixture: an emulated network plus uMiddle runtimes.
type world struct {
	t   *testing.T
	net *netemu.Network
	rec *mapper.Recorder
}

func newWorld(t *testing.T) *world {
	t.Helper()
	w := &world{
		t:   t,
		net: netemu.NewNetwork(netemu.Ethernet10Mbps()),
		rec: mapper.NewRecorder(),
	}
	t.Cleanup(func() { w.net.Close() })
	return w
}

func (w *world) addRuntime(name string) *runtime.Runtime {
	w.t.Helper()
	rt, err := runtime.New(runtime.Config{
		Node:      name,
		Host:      w.net.MustAddHost(name),
		Directory: directory.Options{AnnounceInterval: 30 * time.Millisecond},
		Transport: transport.Options{DeliverTimeout: 5 * time.Second},
	})
	if err != nil {
		w.t.Fatalf("runtime.New(%s): %v", name, err)
	}
	if err := rt.Start(); err != nil {
		w.t.Fatalf("runtime.Start(%s): %v", name, err)
	}
	w.t.Cleanup(func() { rt.Close() })
	return rt
}

// waitLookup polls a runtime's directory until the query matches n
// profiles.
func (w *world) waitLookup(rt *runtime.Runtime, q core.Query, n int) []core.Profile {
	w.t.Helper()
	deadline := time.Now().Add(8 * time.Second)
	for {
		got := rt.Lookup(q)
		if len(got) >= n {
			return got
		}
		if time.Now().After(deadline) {
			w.t.Fatalf("lookup %v matched %d profiles, want %d", q, len(got), n)
		}
		time.Sleep(15 * time.Millisecond)
	}
}

// collector is a native uMiddle service with one input port.
type collector struct {
	*core.Base
	ch chan core.Message
}

func newCollector(node, local string, typ core.DataType) *collector {
	c := &collector{
		Base: core.MustBase(core.Profile{
			ID:       core.MakeTranslatorID(node, "umiddle", local),
			Name:     local,
			Platform: "umiddle",
			Node:     node,
			Shape: core.MustShape(
				core.Port{Name: "in", Kind: core.Digital, Direction: core.Input, Type: typ},
			),
		}),
		ch: make(chan core.Message, 256),
	}
	c.MustHandle("in", func(_ context.Context, msg core.Message) error {
		select {
		case c.ch <- msg:
		default:
		}
		return nil
	})
	return c
}

func (c *collector) wait(t *testing.T, d time.Duration) core.Message {
	t.Helper()
	select {
	case m := <-c.ch:
		return m
	case <-time.After(d):
		t.Fatal("no message delivered in time")
		return core.Message{}
	}
}

// trigger is a native uMiddle service with one output port.
func trigger(node, local string, typ core.DataType) *core.Base {
	return core.MustBase(core.Profile{
		ID:       core.MakeTranslatorID(node, "umiddle", local),
		Name:     local,
		Platform: "umiddle",
		Node:     node,
		Shape: core.MustShape(
			core.Port{Name: "out", Kind: core.Digital, Direction: core.Output, Type: typ},
		),
	})
}

func ref(tr core.Translator, port string) core.PortRef {
	return core.PortRef{Translator: tr.Profile().ID, Port: port}
}

func fastUPnPMapper(w *world, rt *runtime.Runtime) *upnpmap.Mapper {
	w.t.Helper()
	m := upnpmap.New(rt.Host(), upnpmap.Options{
		SearchInterval: 200 * time.Millisecond,
		Recorder:       w.rec,
	})
	if err := rt.AddMapper(m); err != nil {
		w.t.Fatalf("AddMapper(upnp): %v", err)
	}
	return m
}

func fastBTMapper(w *world, rt *runtime.Runtime) *btmap.Mapper {
	w.t.Helper()
	adapter, err := bluetooth.NewAdapter(rt.Host(), rt.Node()+"-bt", bluetooth.AdapterOptions{
		ScanInterval: 5 * time.Millisecond,
	})
	if err != nil {
		w.t.Fatalf("NewAdapter: %v", err)
	}
	w.t.Cleanup(func() { adapter.Close() })
	m := btmap.New(adapter, btmap.Options{
		InquiryInterval: 150 * time.Millisecond,
		InquiryWindow:   80 * time.Millisecond,
		Recorder:        w.rec,
	})
	if err := rt.AddMapper(m); err != nil {
		w.t.Fatalf("AddMapper(bt): %v", err)
	}
	return m
}

func TestUPnPLightEndToEnd(t *testing.T) {
	w := newWorld(t)
	rt := w.addRuntime("h1")
	fastUPnPMapper(w, rt)

	light := upnp.NewBinaryLight(w.net.MustAddHost("light-dev"), "light-1", "Desk Lamp", upnp.DeviceOptions{})
	if err := light.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	defer light.Unpublish()

	profiles := w.waitLookup(rt, core.Query{Platform: "upnp"}, 1)
	p := profiles[0]
	if p.DeviceType != upnp.DeviceTypeBinaryLight || p.Shape.Len() != 4 {
		t.Fatalf("profile = %v", p)
	}

	// Drive the light through the intermediary space: a trigger service
	// wired to the power-on port, as the paper's USDL example describes.
	btn := trigger("h1", "button", "control/power")
	if err := rt.Register(btn); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, err := rt.Connect(ref(btn, "out"), core.PortRef{Translator: p.ID, Port: "power-on"}); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	btn.Emit("out", core.NewMessage("control/power", nil))

	deadline := time.Now().Add(5 * time.Second)
	for !light.Power() {
		if time.Now().After(deadline) {
			t.Fatal("light never switched on through uMiddle")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestUPnPGENAEventFlowsToStatusPort(t *testing.T) {
	w := newWorld(t)
	rt := w.addRuntime("h1")
	fastUPnPMapper(w, rt)

	light := upnp.NewBinaryLight(w.net.MustAddHost("light-dev"), "light-1", "Desk Lamp", upnp.DeviceOptions{})
	light.Publish()
	defer light.Unpublish()
	p := w.waitLookup(rt, core.Query{Platform: "upnp"}, 1)[0]

	sink := newCollector("h1", "status-sink", "text/event")
	rt.Register(sink)
	if _, err := rt.Connect(core.PortRef{Translator: p.ID, Port: "status-out"}, ref(sink, "in")); err != nil {
		t.Fatalf("Connect: %v", err)
	}

	btn := trigger("h1", "button", "control/power")
	rt.Register(btn)
	if _, err := rt.Connect(ref(btn, "out"), core.PortRef{Translator: p.ID, Port: "power-on"}); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	btn.Emit("out", core.NewMessage("control/power", nil))

	msg := sink.wait(t, 5*time.Second)
	if string(msg.Payload) != "1" {
		t.Fatalf("status event = %q, want \"1\"", msg.Payload)
	}
	if msg.Header("variable") != "Power" {
		t.Fatalf("headers = %v", msg.Headers)
	}
}

func TestUPnPDeviceDepartureUnmaps(t *testing.T) {
	w := newWorld(t)
	rt := w.addRuntime("h1")
	m := fastUPnPMapper(w, rt)

	light := upnp.NewBinaryLight(w.net.MustAddHost("light-dev"), "light-1", "Desk Lamp", upnp.DeviceOptions{})
	light.Publish()
	w.waitLookup(rt, core.Query{Platform: "upnp"}, 1)
	light.Unpublish() // sends ssdp:byebye

	deadline := time.Now().Add(5 * time.Second)
	for {
		if m.MappedCount() == 0 && len(rt.Lookup(core.Query{Platform: "upnp"})) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("device never unmapped after byebye")
		}
		time.Sleep(15 * time.Millisecond)
	}
}

func TestBluetoothCameraCaptureFlow(t *testing.T) {
	w := newWorld(t)
	rt := w.addRuntime("h1")
	fastBTMapper(w, rt)

	camAdapter, err := bluetooth.NewAdapter(w.net.MustAddHost("cam-dev"), "cam", bluetooth.AdapterOptions{
		ScanInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewAdapter: %v", err)
	}
	defer camAdapter.Close()
	cam, err := bluetooth.NewBIPCamera(camAdapter, "Pocket Cam")
	if err != nil {
		t.Fatalf("NewBIPCamera: %v", err)
	}
	defer cam.Close()
	cam.Capture("shot.jpg", []byte("jpeg-pixels"))

	p := w.waitLookup(rt, core.Query{Platform: "bluetooth", DeviceType: "BIP-Camera"}, 1)[0]

	// Wire image-out to a collector, then pull the shutter through the
	// capture port: GetImage runs over OBEX and the image surfaces on
	// image-out.
	sink := newCollector("h1", "image-sink", "image/jpeg")
	rt.Register(sink)
	if _, err := rt.Connect(core.PortRef{Translator: p.ID, Port: "image-out"}, ref(sink, "in")); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	shutter := trigger("h1", "shutter", "control/trigger")
	rt.Register(shutter)
	if _, err := rt.Connect(ref(shutter, "out"), core.PortRef{Translator: p.ID, Port: "capture"}); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	shutter.Emit("out", core.NewMessage("control/trigger", nil))

	msg := sink.wait(t, 5*time.Second)
	if string(msg.Payload) != "jpeg-pixels" {
		t.Fatalf("image = %q", msg.Payload)
	}
	if msg.Type != "image/jpeg" {
		t.Fatalf("type = %q", msg.Type)
	}
}

func TestBluetoothMouseClickToVML(t *testing.T) {
	// The paper's Section 5.2 device-level bridge: mouse click signals
	// are translated into Vector Markup Language documents.
	w := newWorld(t)
	rt := w.addRuntime("h1")
	fastBTMapper(w, rt)

	mouseAdapter, err := bluetooth.NewAdapter(w.net.MustAddHost("mouse-dev"), "mouse", bluetooth.AdapterOptions{
		ScanInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewAdapter: %v", err)
	}
	defer mouseAdapter.Close()
	mouse, err := bluetooth.NewHIDMouse(mouseAdapter, "Travel Mouse")
	if err != nil {
		t.Fatalf("NewHIDMouse: %v", err)
	}
	defer mouse.Close()

	p := w.waitLookup(rt, core.Query{Platform: "bluetooth", DeviceType: "HID-Mouse"}, 1)[0]
	sink := newCollector("h1", "vml-sink", "text/vml")
	rt.Register(sink)
	if _, err := rt.Connect(core.PortRef{Translator: p.ID, Port: "click-out"}, ref(sink, "in")); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	// Allow the mapper's HID connection to establish.
	time.Sleep(100 * time.Millisecond)
	mouse.Click(1)

	msg := sink.wait(t, 5*time.Second)
	if msg.Type != "text/vml" {
		t.Fatalf("type = %q, want text/vml", msg.Type)
	}
	if !strings.Contains(string(msg.Payload), "vml") {
		t.Fatalf("payload = %q", msg.Payload)
	}
}

func TestFigure5CameraToTVAcrossNodes(t *testing.T) {
	// Paper Figure 5: Bluetooth BIP camera bridged on node H1, UPnP
	// MediaRenderer TV bridged on node H2, composed with a dynamic
	// template connection, image flowing across the transport modules.
	w := newWorld(t)
	h1 := w.addRuntime("h1")
	h2 := w.addRuntime("h2")
	fastBTMapper(w, h1)
	fastUPnPMapper(w, h2)

	camAdapter, err := bluetooth.NewAdapter(w.net.MustAddHost("cam-dev"), "cam", bluetooth.AdapterOptions{
		ScanInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewAdapter: %v", err)
	}
	defer camAdapter.Close()
	cam, err := bluetooth.NewBIPCamera(camAdapter, "Pocket Cam")
	if err != nil {
		t.Fatalf("NewBIPCamera: %v", err)
	}
	defer cam.Close()
	cam.Capture("shot.jpg", []byte("holiday-photo"))

	tv := upnp.NewMediaRenderer(w.net.MustAddHost("tv-dev"), "tv-1", "Living Room TV", upnp.DeviceOptions{})
	if err := tv.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	defer tv.Unpublish()

	// Both nodes converge on the full picture through the directory.
	camProfile := w.waitLookup(h1, core.Query{DeviceType: "BIP-Camera"}, 1)[0]
	w.waitLookup(h1, core.Query{DeviceType: upnp.DeviceTypeMediaRenderer}, 1)
	// H2 issues the remote Connect to the camera below, so its directory
	// must hold the camera too.
	w.waitLookup(h2, core.Query{DeviceType: "BIP-Camera"}, 1)

	// Dynamic device binding (paper Section 3.5): connect the camera's
	// image output to "anything that accepts image/jpeg and renders it
	// visibly" — the TV matches.
	src := core.PortRef{Translator: camProfile.ID, Port: "image-out"}
	if _, err := h1.ConnectQuery(src, core.QueryAccepting("image/jpeg", "visible/*")); err != nil {
		t.Fatalf("ConnectQuery: %v", err)
	}

	// Fire the shutter from H2 (remote connect request travels to H1).
	shutter := trigger("h2", "shutter", "control/trigger")
	h2.Register(shutter)
	if _, err := h2.Connect(ref(shutter, "out"), core.PortRef{Translator: camProfile.ID, Port: "capture"}); err != nil {
		t.Fatalf("remote Connect: %v", err)
	}
	shutter.Emit("out", core.NewMessage("control/trigger", nil))

	if err := tv.WaitRendered(8 * time.Second); err != nil {
		t.Fatal(err)
	}
	rendered := tv.Rendered()
	if len(rendered) == 0 || string(rendered[0]) != "holiday-photo" {
		t.Fatalf("rendered = %q", rendered)
	}
}

func TestRMIEchoThroughUMiddle(t *testing.T) {
	w := newWorld(t)
	rt := w.addRuntime("h1")

	rmiHost := w.net.MustAddHost("rmi-dev")
	reg, err := rmi.NewRegistry(rmiHost)
	if err != nil {
		t.Fatalf("NewRegistry: %v", err)
	}
	defer reg.Close()
	srv, err := rmi.NewServer(rmiHost, 0)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	echoRef := rmi.ExportEcho(srv)
	rc := rmi.NewRegistryClient(rmiHost, "rmi-dev")
	if err := rc.Bind(context.Background(), "echo", echoRef); err != nil {
		t.Fatalf("Bind: %v", err)
	}

	if err := rt.AddMapper(rmimap.New(rt.Host(), rmimap.Options{
		RegistryHost: "rmi-dev",
		PollInterval: 100 * time.Millisecond,
		Recorder:     w.rec,
	})); err != nil {
		t.Fatalf("AddMapper: %v", err)
	}

	p := w.waitLookup(rt, core.Query{Platform: "rmi"}, 1)[0]
	sink := newCollector("h1", "echo-sink", "application/octet-stream")
	rt.Register(sink)
	if _, err := rt.Connect(core.PortRef{Translator: p.ID, Port: "echo-out"}, ref(sink, "in")); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	srcT := trigger("h1", "src", "application/octet-stream")
	rt.Register(srcT)
	if _, err := rt.Connect(ref(srcT, "out"), core.PortRef{Translator: p.ID, Port: "echo-in"}); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	srcT.Emit("out", core.NewMessage("application/octet-stream", []byte("ping-1400")))

	msg := sink.wait(t, 5*time.Second)
	if string(msg.Payload) != "ping-1400" {
		t.Fatalf("echo = %q", msg.Payload)
	}
}

func TestMediaBrokerStreamThroughUMiddle(t *testing.T) {
	w := newWorld(t)
	rt := w.addRuntime("h1")

	brokerHost := w.net.MustAddHost("mb-dev")
	broker, err := mediabroker.NewBroker(brokerHost)
	if err != nil {
		t.Fatalf("NewBroker: %v", err)
	}
	defer broker.Close()
	prodHost := w.net.MustAddHost("mb-producer")
	prod, err := mediabroker.NewProducer(context.Background(), prodHost, "mb-dev", "feed", "application/octet-stream")
	if err != nil {
		t.Fatalf("NewProducer: %v", err)
	}
	defer prod.Close()

	if err := rt.AddMapper(mbmap.New(rt.Host(), mbmap.Options{
		BrokerHost:   "mb-dev",
		PollInterval: 100 * time.Millisecond,
		Recorder:     w.rec,
	})); err != nil {
		t.Fatalf("AddMapper: %v", err)
	}

	p := w.waitLookup(rt, core.Query{Platform: "mediabroker"}, 1)[0]

	// Native frames surface on media-out.
	sink := newCollector("h1", "frame-sink", "application/octet-stream")
	rt.Register(sink)
	if _, err := rt.Connect(core.PortRef{Translator: p.ID, Port: "media-out"}, ref(sink, "in")); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	if err := prod.Send([]byte("frame-a")); err != nil {
		t.Fatalf("Send: %v", err)
	}
	msg := sink.wait(t, 5*time.Second)
	if string(msg.Payload) != "frame-a" {
		t.Fatalf("frame = %q", msg.Payload)
	}

	// Deliveries to media-in are published on the return stream.
	cons, err := mediabroker.NewConsumer(context.Background(), prodHost, "mb-dev", "feed"+mbmap.ReturnSuffix)
	if err != nil {
		// The return stream appears on first publish; deliver then
		// retry.
		srcT := trigger("h1", "mb-src", "application/octet-stream")
		rt.Register(srcT)
		if _, err := rt.Connect(ref(srcT, "out"), core.PortRef{Translator: p.ID, Port: "media-in"}); err != nil {
			t.Fatalf("Connect: %v", err)
		}
		srcT.Emit("out", core.NewMessage("application/octet-stream", []byte("back-1")))
		deadline := time.Now().Add(5 * time.Second)
		for {
			cons, err = mediabroker.NewConsumer(context.Background(), prodHost, "mb-dev", "feed"+mbmap.ReturnSuffix)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("return stream never appeared: %v", err)
			}
			time.Sleep(20 * time.Millisecond)
		}
		defer cons.Close()
		srcT.Emit("out", core.NewMessage("application/octet-stream", []byte("back-2")))
		frame, err := cons.Recv()
		if err != nil {
			t.Fatalf("Recv: %v", err)
		}
		if !strings.HasPrefix(string(frame), "back-") {
			t.Fatalf("return frame = %q", frame)
		}
		return
	}
	defer cons.Close()
}

func TestMotesThroughUMiddle(t *testing.T) {
	w := newWorld(t)
	rt := w.addRuntime("h1")
	if err := rt.AddMapper(motesmap.New(rt.Host(), motesmap.Options{
		LivenessWindow: time.Second,
		Recorder:       w.rec,
	})); err != nil {
		t.Fatalf("AddMapper: %v", err)
	}

	mote, err := motes.StartMote(w.net.MustAddHost("mote-7"), "h1", 7, motes.MoteOptions{
		Interval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("StartMote: %v", err)
	}
	defer mote.Stop()

	p := w.waitLookup(rt, core.Query{Platform: "motes"}, 1)[0]
	if p.Attr("moteId") != "7" {
		t.Fatalf("profile = %v", p)
	}
	sink := newCollector("h1", "reading-sink", "text/sensor-reading")
	rt.Register(sink)
	if _, err := rt.Connect(core.PortRef{Translator: p.ID, Port: "light-out"}, ref(sink, "in")); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	msg := sink.wait(t, 5*time.Second)
	if msg.Header("sensor") != "light" || len(msg.Payload) == 0 {
		t.Fatalf("reading = %v", msg)
	}

	// Mote death: silent motes are unmapped.
	mote.Stop()
	deadline := time.Now().Add(6 * time.Second)
	for len(rt.Lookup(core.Query{Platform: "motes"})) > 0 {
		if time.Now().After(deadline) {
			t.Fatal("dead mote never unmapped")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestWebServiceThroughUMiddle(t *testing.T) {
	w := newWorld(t)
	rt := w.addRuntime("h1")

	wsHost, err := webservice.NewHost(w.net.MustAddHost("ws-dev"), 0)
	if err != nil {
		t.Fatalf("NewHost: %v", err)
	}
	defer wsHost.Close()
	wsHost.Register("greeter", "xml-rpc", func(method string, params map[string]string) (map[string]string, error) {
		return map[string]string{"greeting": "hello " + params["name"]}, nil
	})

	if err := rt.AddMapper(wsmap.New(rt.Host(), wsmap.Options{
		BaseURLs:     []string{wsHost.URL()},
		PollInterval: 100 * time.Millisecond,
		Recorder:     w.rec,
	})); err != nil {
		t.Fatalf("AddMapper: %v", err)
	}

	p := w.waitLookup(rt, core.Query{Platform: "webservice"}, 1)[0]
	sink := newCollector("h1", "resp-sink", "application/xml")
	rt.Register(sink)
	if _, err := rt.Connect(core.PortRef{Translator: p.ID, Port: "response-out"}, ref(sink, "in")); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	srcT := trigger("h1", "req-src", "application/xml")
	rt.Register(srcT)
	if _, err := rt.Connect(ref(srcT, "out"), core.PortRef{Translator: p.ID, Port: "request-in"}); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	srcT.Emit("out", core.NewMessage("application/xml",
		[]byte(`<request><method>greet</method><param name="name">world</param></request>`)))

	msg := sink.wait(t, 5*time.Second)
	if !strings.Contains(string(msg.Payload), "hello world") {
		t.Fatalf("response = %q", msg.Payload)
	}
}

func TestCrossPlatformPolymorphism(t *testing.T) {
	// The paper's device polymorphism (Section 3.5): one template-based
	// connection binds the camera to every compatible renderer — here a
	// UPnP TV and a Bluetooth BIP printer at once.
	w := newWorld(t)
	rt := w.addRuntime("h1")
	fastUPnPMapper(w, rt)
	fastBTMapper(w, rt)

	tv := upnp.NewMediaRenderer(w.net.MustAddHost("tv-dev"), "tv-1", "TV", upnp.DeviceOptions{})
	tv.Publish()
	defer tv.Unpublish()

	prAdapter, err := bluetooth.NewAdapter(w.net.MustAddHost("printer-dev"), "printer", bluetooth.AdapterOptions{
		ScanInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewAdapter: %v", err)
	}
	defer prAdapter.Close()
	printer, err := bluetooth.NewBIPPrinter(prAdapter, "Photo Printer")
	if err != nil {
		t.Fatalf("NewBIPPrinter: %v", err)
	}
	defer printer.Close()

	w.waitLookup(rt, core.Query{DeviceType: upnp.DeviceTypeMediaRenderer}, 1)
	w.waitLookup(rt, core.Query{DeviceType: "BIP-Printer"}, 1)

	camera := trigger("h1", "photo-source", "image/jpeg")
	rt.Register(camera)
	id, err := rt.ConnectQuery(ref(camera, "out"), core.QueryAccepting("image/jpeg", ""))
	if err != nil {
		t.Fatalf("ConnectQuery: %v", err)
	}
	// Both devices bind to the one dynamic path.
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, _ := rt.Transport().PathStats(id)
		if stats.Bound == 2 {
			break
		}
		if time.Now().After(deadline) {
			stats, _ := rt.Transport().PathStats(id)
			t.Fatalf("bound = %d, want 2", stats.Bound)
		}
		time.Sleep(15 * time.Millisecond)
	}

	camera.Emit("out", core.NewMessage("image/jpeg", []byte("one-shot")))
	if err := tv.WaitRendered(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case <-printer.Notify():
	case <-time.After(5 * time.Second):
		t.Fatal("printer never printed")
	}
	if got := printer.Printed(); string(got[0]) != "one-shot" {
		t.Fatalf("printed = %q", got[0])
	}
}

func TestFigure10SamplesRecorded(t *testing.T) {
	// The recorder feeds Figure 10; verify mapping samples carry the
	// port counts the paper's analysis leans on (clock = 14 ports).
	w := newWorld(t)
	rt := w.addRuntime("h1")
	fastUPnPMapper(w, rt)

	clock := upnp.NewClock(w.net.MustAddHost("clock-dev"), "clock-1", "Wall Clock", upnp.DeviceOptions{})
	clock.Publish()
	defer clock.Unpublish()
	w.waitLookup(rt, core.Query{DeviceType: upnp.DeviceTypeClock}, 1)

	samples := w.rec.Samples()
	if len(samples) == 0 {
		t.Fatal("no mapping samples recorded")
	}
	s := samples[0]
	if s.Ports != 14 {
		t.Fatalf("clock sample ports = %d, want 14", s.Ports)
	}
	if s.Duration <= 0 {
		t.Fatalf("sample duration = %v", s.Duration)
	}
	sums := mapper.Summarize(samples)
	if len(sums) != 1 || sums[0].Count != 1 || sums[0].PerSecond <= 0 {
		t.Fatalf("summary = %+v", sums)
	}
}

// TestFutureEvolutionVersionFallback exercises the paper's requirement
// (4) Future Evolution: a BinaryLight:2 device — a newer revision of a
// known type — is still bridged, via the USDL registry's
// version-insensitive fallback to the :1 description.
func TestFutureEvolutionVersionFallback(t *testing.T) {
	w := newWorld(t)
	rt := w.addRuntime("h1")
	fastUPnPMapper(w, rt)

	// A v2 light: same SwitchPower service, newer device type URN.
	scpd := upnp.SCPD{
		SpecVersion: upnp.SpecVersion{Major: 1, Minor: 0},
		Actions: []upnp.SCPDAction{
			{Name: "SetPower", Arguments: []upnp.SCPDArgument{{Name: "Power", Direction: "in", RelatedStateVar: "Power"}}},
		},
		StateVars: []upnp.StateVar{{SendEvents: "yes", Name: "Power", DataType: "boolean", Default: "0"}},
	}
	svc := upnp.NewService(upnp.ServiceTypeSwitchPower, "urn:upnp-org:serviceId:SwitchPower", scpd)
	var state struct {
		mu    sync.Mutex
		power string
	}
	svc.Handle("SetPower", func(args map[string]string) (map[string]string, error) {
		state.mu.Lock()
		state.power = args["Power"]
		state.mu.Unlock()
		return map[string]string{}, nil
	})
	dev := upnp.NewDevice(w.net.MustAddHost("v2-dev"), "l2", "urn:schemas-upnp-org:device:BinaryLight:2", "Next-gen Lamp", 0, svc)
	if err := dev.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	defer dev.Unpublish()

	p := w.waitLookup(rt, core.Query{Platform: "upnp"}, 1)[0]
	if p.DeviceType != "urn:schemas-upnp-org:device:BinaryLight:2" {
		t.Fatalf("device type = %q", p.DeviceType)
	}
	// The fallback USDL gives it the BinaryLight shape; control works.
	tr, ok := rt.Directory().Local(p.ID)
	if !ok {
		t.Fatal("translator not local")
	}
	if err := tr.Deliver(context.Background(), "power-on", core.Message{}); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	state.mu.Lock()
	defer state.mu.Unlock()
	if state.power != "1" {
		t.Fatalf("power = %q", state.power)
	}
}

// TestNewPlatformViaCustomUSDL exercises the paper's first extensibility
// dimension: a brand-new device type becomes bridgeable by loading a
// USDL document at runtime, no code changes.
func TestNewPlatformViaCustomUSDL(t *testing.T) {
	w := newWorld(t)
	rt := w.addRuntime("h1")
	if err := rt.USDL().AddString(`<?xml version="1.0"?>
<usdl version="1.0">
  <service name="UPnP Coffee Maker" platform="upnp">
    <match deviceType="urn:example:device:CoffeeMaker:1"/>
    <port name="brew" kind="digital" direction="input" type="control/brew">
      <bind action="Brew"><arg name="Cups" from="payload"/></bind>
    </port>
    <port name="aroma" kind="physical" direction="output" type="tangible/air"/>
  </service>
</usdl>`); err != nil {
		t.Fatalf("AddString: %v", err)
	}
	fastUPnPMapper(w, rt)

	scpd := upnp.SCPD{
		SpecVersion: upnp.SpecVersion{Major: 1, Minor: 0},
		Actions: []upnp.SCPDAction{
			{Name: "Brew", Arguments: []upnp.SCPDArgument{{Name: "Cups", Direction: "in", RelatedStateVar: "Cups"}}},
		},
		StateVars: []upnp.StateVar{{SendEvents: "no", Name: "Cups", DataType: "ui2", Default: "0"}},
	}
	svc := upnp.NewService("urn:example:service:Brewer:1", "urn:example:serviceId:Brewer", scpd)
	brewed := make(chan string, 4)
	svc.Handle("Brew", func(args map[string]string) (map[string]string, error) {
		brewed <- args["Cups"]
		return map[string]string{}, nil
	})
	dev := upnp.NewDevice(w.net.MustAddHost("coffee-dev"), "c1", "urn:example:device:CoffeeMaker:1", "Coffee Maker", 0, svc)
	if err := dev.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	defer dev.Unpublish()

	p := w.waitLookup(rt, core.Query{NameContains: "coffee"}, 1)[0]
	tr, _ := rt.Directory().Local(p.ID)
	if err := tr.Deliver(context.Background(), "brew", core.NewMessage("control/brew", []byte("2"))); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	select {
	case cups := <-brewed:
		if cups != "2" {
			t.Fatalf("cups = %q", cups)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("brew never reached the device")
	}
}

// TestRemoteDynamicBinding issues a template-based connect from a node
// that does not host the source translator: the request is forwarded and
// the dynamic path lives on the source's node, binding as devices
// appear anywhere in the space.
func TestRemoteDynamicBinding(t *testing.T) {
	w := newWorld(t)
	h1 := w.addRuntime("h1")
	h2 := w.addRuntime("h2")

	camera := trigger("h1", "camera", "image/jpeg")
	h1.Register(camera)
	camProfile := w.waitLookup(h2, core.Query{NameContains: "camera"}, 1)[0]

	// Template connect from h2 for an h1-hosted source.
	id, err := h2.ConnectQuery(
		core.PortRef{Translator: camProfile.ID, Port: "out"},
		core.QueryAccepting("image/jpeg", ""),
	)
	if err != nil {
		t.Fatalf("remote ConnectQuery: %v", err)
	}
	if !strings.HasPrefix(string(id), "h1#") {
		t.Fatalf("path owner = %q, want h1", id)
	}

	// A matching device appears later on h2: it binds automatically.
	tv := newCollector("h2", "late-tv", "image/jpeg")
	h2.Register(tv)
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, ok := h1.Transport().PathStats(id)
		if ok && stats.Bound == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("remote dynamic path never bound")
		}
		time.Sleep(20 * time.Millisecond)
	}
	camera.Emit("out", core.NewMessage("image/jpeg", []byte("late-bound")))
	got := tv.wait(t, 5*time.Second)
	if string(got.Payload) != "late-bound" {
		t.Fatalf("payload = %q", got.Payload)
	}
}

// TestDeviceChurnUnderDynamicPath stresses the dynamic-binding machinery:
// devices appear and disappear while a template path routes traffic. No
// deadlocks, no panics, and the path ends bound to exactly the surviving
// population.
func TestDeviceChurnUnderDynamicPath(t *testing.T) {
	w := newWorld(t)
	rt := w.addRuntime("h1")
	src := trigger("h1", "src", "image/jpeg")
	rt.Register(src)
	id, err := rt.ConnectQuery(ref(src, "out"), core.QueryAccepting("image/jpeg", ""))
	if err != nil {
		t.Fatalf("ConnectQuery: %v", err)
	}

	stop := make(chan struct{})
	var emitWG sync.WaitGroup
	emitWG.Add(1)
	go func() {
		defer emitWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			src.Emit("out", core.NewMessage("image/jpeg", []byte("x")))
			time.Sleep(time.Millisecond)
		}
	}()

	// Churn: register and unregister sinks while traffic flows.
	const rounds = 15
	for i := 0; i < rounds; i++ {
		sink := newCollector("h1", fmt.Sprintf("churn-%d", i), "image/jpeg")
		if err := rt.Register(sink); err != nil {
			t.Fatalf("Register: %v", err)
		}
		if i%2 == 0 {
			if err := rt.RemoveTranslator(sink.Profile().ID); err != nil {
				t.Fatalf("RemoveTranslator: %v", err)
			}
		}
	}
	close(stop)
	emitWG.Wait()

	// Survivors: the odd-numbered sinks (8 of 15).
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, ok := rt.Transport().PathStats(id)
		if ok && stats.Bound == 7 {
			break
		}
		if time.Now().After(deadline) {
			stats, _ := rt.Transport().PathStats(id)
			t.Fatalf("bound = %d, want 7 survivors", stats.Bound)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestViewVsPrintShapeSelection reproduces the paper's Section 3.3
// narrative: "If a user wishes to view a document in one way or another,
// the application can select a device with an input port of the
// document's MIME-type and physical output port of visible/*. If the
// user wants to print it, the application specifies visible/paper."
func TestViewVsPrintShapeSelection(t *testing.T) {
	w := newWorld(t)
	rt := w.addRuntime("h1")
	fastUPnPMapper(w, rt)

	tv := upnp.NewMediaRenderer(w.net.MustAddHost("tv-dev"), "tv-1", "TV", upnp.DeviceOptions{})
	if err := tv.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	defer tv.Unpublish()
	printer := upnp.NewPrinter(w.net.MustAddHost("printer-dev"), "pr-1", "Laser Printer", upnp.DeviceOptions{})
	if err := printer.Publish(); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	defer printer.Unpublish()
	w.waitLookup(rt, core.Query{Platform: "upnp"}, 2)

	// "View it somewhere visible": both the TV and the printer qualify
	// for a jpeg.
	view := rt.Lookup(core.QueryAccepting("image/jpeg", "visible/*"))
	if len(view) != 2 {
		t.Fatalf("visible/* matched %d devices, want 2 (TV + printer)", len(view))
	}
	// "Print it": only the printer renders on paper.
	print := rt.Lookup(core.QueryAccepting("image/jpeg", "visible/paper"))
	if len(print) != 1 || print[0].DeviceType != upnp.DeviceTypePrinter {
		t.Fatalf("visible/paper matched %v", print)
	}
	// And a PostScript document can only go to the printer at all.
	ps := rt.Lookup(core.QueryAccepting("text/ps", ""))
	if len(ps) != 1 || ps[0].DeviceType != upnp.DeviceTypePrinter {
		t.Fatalf("text/ps matched %v", ps)
	}

	// Deliver a document through uMiddle; the printer's native Print
	// action runs.
	tr, ok := rt.Directory().Local(print[0].ID)
	if !ok {
		t.Fatal("printer translator not local")
	}
	if err := tr.Deliver(context.Background(), "doc-in",
		core.NewMessage("text/ps", []byte("%!PS hello"))); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if err := printer.WaitPrinted(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	docs := printer.Printed()
	if string(docs[0]) != "%!PS hello" {
		t.Fatalf("printed = %q", docs[0])
	}
}

// TestRemappedBindingEndToEnd exercises namespace remapping across the
// full stack: node h2 mounts h1's namespace under "studio", discovers
// the camera by its remapped name, and connects through it. The
// transport must cross the boundary in wire form — h1 has never heard
// of "studio/..." — and payloads must flow end to end.
func TestRemappedBindingEndToEnd(t *testing.T) {
	w := newWorld(t)
	h1 := w.addRuntime("h1")
	h2 := w.addRuntimeOpts("h2", directory.Options{
		AnnounceInterval: 30 * time.Millisecond,
		Remap:            []directory.RemapRule{{Node: "h1", Mount: "studio"}},
	}, transport.Options{DeliverTimeout: 5 * time.Second})

	camera := trigger("h1", "camera", "image/jpeg")
	if err := h1.Register(camera); err != nil {
		t.Fatalf("Register(camera): %v", err)
	}
	tv := newCollector("h2", "tv", "image/jpeg")
	if err := h2.Register(tv); err != nil {
		t.Fatalf("Register(tv): %v", err)
	}

	// h2 sees the camera under the mount, with the real owning node.
	p := w.waitLookup(h2, core.Query{NameContains: "camera"}, 1)[0]
	wantID := core.TranslatorID("studio/umiddle/camera")
	if p.ID != wantID {
		t.Fatalf("remapped camera ID = %s, want %s", p.ID, wantID)
	}
	if p.Node != "h1" {
		t.Fatalf("remapped profile node = %q, want h1", p.Node)
	}

	// Static connect through the remapped name. The path lands on h1
	// (the source's owner), which only knows the wire ID.
	id, err := h2.Connect(core.PortRef{Translator: p.ID, Port: "out"}, ref(tv, "in"))
	if err != nil {
		t.Fatalf("Connect through remapped name: %v", err)
	}
	if !strings.HasPrefix(string(id), "h1#") {
		t.Fatalf("path owner = %q, want h1", id)
	}

	camera.Emit("out", core.NewMessage("image/jpeg", []byte("through the mount")))
	got := tv.wait(t, 5*time.Second)
	if string(got.Payload) != "through the mount" {
		t.Fatalf("payload = %q", got.Payload)
	}

	// Dynamic binding resolves through the mount too.
	qid, err := h2.ConnectQuery(
		core.PortRef{Translator: p.ID, Port: "out"},
		core.QueryAccepting("image/jpeg", ""),
	)
	if err != nil {
		t.Fatalf("ConnectQuery through remapped name: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		stats, ok := h1.Transport().PathStats(qid)
		if ok && stats.Bound >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dynamic path through remapped source never bound")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestInterestFilteredRuntimeBindsEndToEnd: a runtime with interest
// filtering enabled sees only the population it registered interest in,
// yet binds and receives payloads through it exactly like an unfiltered
// node — selective propagation must be invisible to applications.
func TestInterestFilteredRuntimeBindsEndToEnd(t *testing.T) {
	w := newWorld(t)
	h1 := w.addRuntime("h1")
	h2 := w.addRuntimeOpts("h2", directory.Options{
		AnnounceInterval: 30 * time.Millisecond,
		Interest:         true,
	}, transport.Options{DeliverTimeout: 5 * time.Second})

	cancel := h2.Directory().RegisterInterest(core.Query{NameContains: "camera"})
	defer cancel()

	camera := trigger("h1", "camera", "image/jpeg")
	if err := h1.Register(camera); err != nil {
		t.Fatalf("Register(camera): %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := h1.Register(trigger("h1", fmt.Sprintf("sensor-%d", i), "text/plain")); err != nil {
			t.Fatalf("Register(sensor): %v", err)
		}
	}
	tv := newCollector("h2", "tv", "image/jpeg")
	if err := h2.Register(tv); err != nil {
		t.Fatalf("Register(tv): %v", err)
	}

	p := w.waitLookup(h2, core.Query{NameContains: "camera"}, 1)[0]
	// The sensors fall outside h2's interest and must stay invisible.
	time.Sleep(200 * time.Millisecond)
	if got := h2.Lookup(core.Query{Node: "h1"}); len(got) != 1 {
		t.Fatalf("filtered runtime sees %d h1 profiles, want 1 (camera only)", len(got))
	}

	if _, err := h2.Connect(core.PortRef{Translator: p.ID, Port: "out"}, ref(tv, "in")); err != nil {
		t.Fatalf("Connect under interest filtering: %v", err)
	}
	camera.Emit("out", core.NewMessage("image/jpeg", []byte("selective")))
	if got := tv.wait(t, 5*time.Second); string(got.Payload) != "selective" {
		t.Fatalf("payload = %q", got.Payload)
	}
}
