package btmap

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/mapper/mappertest"
	"repro/internal/netemu"
	"repro/internal/platform/bluetooth"
)

func newBTWorld(t *testing.T) *netemu.Network {
	t.Helper()
	net := netemu.NewNetwork(netemu.Ethernet10Mbps())
	t.Cleanup(func() { net.Close() })
	return net
}

func startMapper(t *testing.T, net *netemu.Network, rec *mapper.Recorder) (*Mapper, *mappertest.Importer) {
	t.Helper()
	adapter, err := bluetooth.NewAdapter(net.MustAddHost("mapper-host"), "mapper-bt", bluetooth.AdapterOptions{
		ScanInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewAdapter: %v", err)
	}
	t.Cleanup(func() { adapter.Close() })
	imp := mappertest.New("mapper-host")
	m := New(adapter, Options{
		InquiryInterval: 100 * time.Millisecond,
		InquiryWindow:   60 * time.Millisecond,
		MissThreshold:   2,
		Recorder:        rec,
	})
	if err := m.Start(context.Background(), imp); err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m, imp
}

func newCamera(t *testing.T, net *netemu.Network, hostName string) (*bluetooth.Adapter, *bluetooth.BIPCamera) {
	t.Helper()
	adapter, err := bluetooth.NewAdapter(net.MustAddHost(hostName), hostName, bluetooth.AdapterOptions{
		ScanInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewAdapter: %v", err)
	}
	cam, err := bluetooth.NewBIPCamera(adapter, "Cam "+hostName)
	if err != nil {
		adapter.Close()
		t.Fatalf("NewBIPCamera: %v", err)
	}
	t.Cleanup(func() {
		cam.Close()
		adapter.Close()
	})
	return adapter, cam
}

func TestMapsCameraViaInquiryAndSDP(t *testing.T) {
	net := newBTWorld(t)
	rec := mapper.NewRecorder()
	m, imp := startMapper(t, net, rec)
	_, cam := newCamera(t, net, "cam-dev")
	cam.Capture("a.jpg", []byte("pic"))

	if err := imp.WaitCount(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	p := imp.Profiles()[0]
	if p.DeviceType != "BIP-Camera" || p.Attr("addr") != "cam-dev" {
		t.Fatalf("profile = %v", p)
	}
	if m.MappedCount() != 1 {
		t.Fatalf("MappedCount = %d", m.MappedCount())
	}
	if len(rec.Samples()) != 1 {
		t.Fatalf("samples = %v", rec.Samples())
	}

	// The capture port pulls the image over OBEX and emits it.
	tr, _ := imp.Translator(core.Query{})
	if err := tr.Deliver(context.Background(), "capture", core.Message{}); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	e, err := imp.WaitEmission("image-out", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(e.Msg.Payload) != "pic" {
		t.Fatalf("image = %q", e.Msg.Payload)
	}
}

func TestMapsMouseAndTranslatesToVML(t *testing.T) {
	net := newBTWorld(t)
	_, imp := startMapper(t, net, nil)

	adapter, err := bluetooth.NewAdapter(net.MustAddHost("mouse-dev"), "mouse-dev", bluetooth.AdapterOptions{
		ScanInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("NewAdapter: %v", err)
	}
	defer adapter.Close()
	mouse, err := bluetooth.NewHIDMouse(adapter, "Mouse")
	if err != nil {
		t.Fatalf("NewHIDMouse: %v", err)
	}
	defer mouse.Close()

	if err := imp.WaitCount(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // HID connection settles
	mouse.Click(1)
	e, err := imp.WaitEmission("click-out", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if e.Msg.Type != "text/vml" || !strings.Contains(string(e.Msg.Payload), "v:oval") {
		t.Fatalf("click emission = %v %q", e.Msg.Type, e.Msg.Payload)
	}
	mouse.Move(3, -4)
	e, err = imp.WaitEmission("motion-out", 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(e.Msg.Payload), "v:line") {
		t.Fatalf("motion emission = %q", e.Msg.Payload)
	}
}

func TestReportToVML(t *testing.T) {
	click := reportToVML(bluetooth.HIDReport{Buttons: 1})
	if !strings.Contains(click, `button="1"`) {
		t.Fatalf("click VML = %q", click)
	}
	motion := reportToVML(bluetooth.HIDReport{DX: -2, DY: 9})
	if !strings.Contains(motion, `to="-2,9"`) {
		t.Fatalf("motion VML = %q", motion)
	}
}
