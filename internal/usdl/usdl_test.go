package usdl

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestParseLightDocument(t *testing.T) {
	doc, err := ParseString(UPnPLightUSDL)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	if len(doc.Services) != 1 {
		t.Fatalf("services = %d, want 1", len(doc.Services))
	}
	svc := doc.Services[0]
	if svc.Platform != "upnp" {
		t.Errorf("platform = %q", svc.Platform)
	}
	if svc.Match.DeviceType != "urn:schemas-upnp-org:device:BinaryLight:1" {
		t.Errorf("match = %+v", svc.Match)
	}
	shape, err := svc.Shape()
	if err != nil {
		t.Fatalf("Shape: %v", err)
	}
	if shape.Len() != 4 {
		t.Errorf("light has %d ports, want 4", shape.Len())
	}
	// The paper's SetPower example: power-on binds SetPower with "1".
	on, ok := svc.PortDef("power-on")
	if !ok || on.Bind == nil || on.Bind.Action != "SetPower" {
		t.Fatalf("power-on def = %+v", on)
	}
	if len(on.Bind.Args) != 1 || on.Bind.Args[0].Value != "1" {
		t.Fatalf("power-on args = %+v", on.Bind.Args)
	}
}

func TestClockHasFourteenPorts(t *testing.T) {
	// Figure 10's shape depends on the clock translator containing
	// fourteen ports (paper Section 5.1).
	doc, err := ParseString(UPnPClockUSDL)
	if err != nil {
		t.Fatalf("ParseString: %v", err)
	}
	shape, err := doc.Services[0].Shape()
	if err != nil {
		t.Fatalf("Shape: %v", err)
	}
	if shape.Len() != 14 {
		t.Fatalf("clock has %d ports, want 14", shape.Len())
	}
}

func TestAllBuiltinsValid(t *testing.T) {
	for i, text := range BuiltinDocuments() {
		if _, err := ParseString(text); err != nil {
			t.Errorf("builtin %d invalid: %v", i, err)
		}
	}
}

func TestEncodeRoundTrip(t *testing.T) {
	for _, text := range BuiltinDocuments() {
		doc, err := ParseString(text)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		var buf bytes.Buffer
		if err := doc.Encode(&buf); err != nil {
			t.Fatalf("encode: %v", err)
		}
		doc2, err := ParseString(buf.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", doc.Services[0].Name, err)
		}
		if len(doc2.Services) != len(doc.Services) {
			t.Fatalf("round trip lost services")
		}
		s1, s2 := doc.Services[0], doc2.Services[0]
		if s1.Name != s2.Name || s1.Platform != s2.Platform || s1.Match != s2.Match {
			t.Fatalf("round trip changed service header: %+v vs %+v", s1, s2)
		}
		if len(s1.Ports) != len(s2.Ports) || len(s1.Events) != len(s2.Events) {
			t.Fatalf("round trip changed port/event counts")
		}
	}
}

func TestValidateRejects(t *testing.T) {
	tests := []struct {
		name string
		xml  string
		want string
	}{
		{
			"no version",
			`<usdl><service name="s" platform="p"><match kind="k"/><port name="a" kind="digital" direction="input" type="a/b"/></service></usdl>`,
			"missing version",
		},
		{
			"no services",
			`<usdl version="1.0"></usdl>`,
			"no services",
		},
		{
			"no platform",
			`<usdl version="1.0"><service name="s"><match kind="k"/><port name="a" kind="digital" direction="input" type="a/b"/></service></usdl>`,
			"missing platform",
		},
		{
			"empty match",
			`<usdl version="1.0"><service name="s" platform="p"><match/><port name="a" kind="digital" direction="input" type="a/b"/></service></usdl>`,
			"empty match",
		},
		{
			"no ports",
			`<usdl version="1.0"><service name="s" platform="p"><match kind="k"/></service></usdl>`,
			"no ports",
		},
		{
			"bad kind",
			`<usdl version="1.0"><service name="s" platform="p"><match kind="k"/><port name="a" kind="quantum" direction="input" type="a/b"/></service></usdl>`,
			"unknown port kind",
		},
		{
			"bind on output",
			`<usdl version="1.0"><service name="s" platform="p"><match kind="k"/><port name="a" kind="digital" direction="output" type="a/b"><bind action="X"/></port></service></usdl>`,
			"bind on non-digital-input",
		},
		{
			"bind on physical",
			`<usdl version="1.0"><service name="s" platform="p"><match kind="k"/><port name="a" kind="physical" direction="input" type="visible/x"><bind action="X"/></port></service></usdl>`,
			"bind on non-digital-input",
		},
		{
			"bind missing action",
			`<usdl version="1.0"><service name="s" platform="p"><match kind="k"/><port name="a" kind="digital" direction="input" type="a/b"><bind/></port></service></usdl>`,
			"missing action",
		},
		{
			"bad result port",
			`<usdl version="1.0"><service name="s" platform="p"><match kind="k"/><port name="a" kind="digital" direction="input" type="a/b"><bind action="X" result="nope"/></port></service></usdl>`,
			"not a digital output",
		},
		{
			"arg both value and from",
			`<usdl version="1.0"><service name="s" platform="p"><match kind="k"/><port name="a" kind="digital" direction="input" type="a/b"><bind action="X"><arg name="n" value="v" from="payload"/></bind></port></service></usdl>`,
			"both value and from",
		},
		{
			"event unknown port",
			`<usdl version="1.0"><service name="s" platform="p"><match kind="k"/><port name="a" kind="digital" direction="input" type="a/b"/><event native="E" port="nope"/></service></usdl>`,
			"unknown port",
		},
		{
			"event on input port",
			`<usdl version="1.0"><service name="s" platform="p"><match kind="k"/><port name="a" kind="digital" direction="input" type="a/b"/><event native="E" port="a"/></service></usdl>`,
			"non-output port",
		},
		{
			"duplicate ports",
			`<usdl version="1.0"><service name="s" platform="p"><match kind="k"/><port name="a" kind="digital" direction="input" type="a/b"/><port name="a" kind="digital" direction="output" type="a/b"/></service></usdl>`,
			"duplicate",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ParseString(tt.xml)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Fatalf("err = %v, want containing %q", err, tt.want)
			}
		})
	}
}

func TestArgResolve(t *testing.T) {
	msg := core.NewMessage("text/plain", []byte("22.5")).WithHeader("unit", "C")
	tests := []struct {
		arg     Arg
		want    string
		wantErr bool
	}{
		{Arg{Name: "a", Value: "1"}, "1", false},
		{Arg{Name: "a", From: "payload"}, "22.5", false},
		{Arg{Name: "a", From: "header:unit"}, "C", false},
		{Arg{Name: "a", From: "header:missing"}, "", false},
		{Arg{Name: "a", From: "bogus"}, "", true},
	}
	for _, tt := range tests {
		got, err := tt.arg.Resolve(msg)
		if (err != nil) != tt.wantErr {
			t.Errorf("Resolve(%+v) err = %v", tt.arg, err)
			continue
		}
		if got != tt.want {
			t.Errorf("Resolve(%+v) = %q, want %q", tt.arg, got, tt.want)
		}
	}
}

func TestRegistryFind(t *testing.T) {
	r := MustDefaultRegistry()
	if r.Len() == 0 {
		t.Fatal("default registry empty")
	}
	svc, ok := r.Find("upnp", "urn:schemas-upnp-org:device:BinaryLight:1")
	if !ok || svc.Name != "UPnP Binary Light" {
		t.Fatalf("Find light = %v, %v", svc, ok)
	}
	if _, ok := r.Find("bluetooth", "BIP-Camera"); !ok {
		t.Fatal("BIP camera not found by profile")
	}
	if _, ok := r.Find("rmi", "EchoService"); !ok {
		t.Fatal("echo service not found by interface")
	}
	if _, ok := r.Find("motes", "sensor-mote"); !ok {
		t.Fatal("mote not found by kind")
	}
	if _, ok := r.Find("upnp", "urn:unknown:device"); ok {
		t.Fatal("unknown device type found")
	}
	if _, ok := r.Find("zigbee", "anything"); ok {
		t.Fatal("unknown platform found")
	}
}

func TestRegistryVersionFallback(t *testing.T) {
	// Future evolution (paper Section 2.1 point 4): a BinaryLight:2
	// device falls back to the :1 description.
	r := MustDefaultRegistry()
	svc, ok := r.Find("upnp", "urn:schemas-upnp-org:device:BinaryLight:2")
	if !ok {
		t.Fatal("version fallback failed")
	}
	if svc.Name != "UPnP Binary Light" {
		t.Fatalf("fallback found %q", svc.Name)
	}
}

func TestRegistryFindReturnsCopy(t *testing.T) {
	r := MustDefaultRegistry()
	svc, _ := r.Find("upnp", "urn:schemas-upnp-org:device:BinaryLight:1")
	svc.Name = "mutated"
	svc2, _ := r.Find("upnp", "urn:schemas-upnp-org:device:BinaryLight:1")
	if svc2.Name != "UPnP Binary Light" {
		t.Fatal("Find aliases registry state")
	}
}

func TestStripVersion(t *testing.T) {
	tests := []struct{ in, want string }{
		{"urn:x:device:Light:1", "urn:x:device:Light"},
		{"urn:x:device:Light", "urn:x:device:Light"},
		{"noversion", "noversion"},
		{"trailing:", "trailing:"},
		{"a:12", "a"},
	}
	for _, tt := range tests {
		if got := stripVersion(tt.in); got != tt.want {
			t.Errorf("stripVersion(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestGenericTranslatorInvokesDriver(t *testing.T) {
	r := MustDefaultRegistry()
	svc := r.MustFind("upnp", "urn:schemas-upnp-org:device:BinaryLight:1")

	var gotAction string
	var gotArgs map[string]string
	driver := DriverFunc(func(_ context.Context, action string, args map[string]string, _ []byte) ([]byte, error) {
		gotAction = action
		gotArgs = args
		time.Sleep(time.Millisecond)
		return nil, nil
	})
	profile := core.Profile{
		ID:       core.MakeTranslatorID("h1", "upnp", "light-1"),
		Platform: "upnp",
		Node:     "h1",
	}
	g, err := NewGenericTranslator(profile, svc, driver)
	if err != nil {
		t.Fatalf("NewGenericTranslator: %v", err)
	}
	defer g.Close()

	if err := g.Deliver(context.Background(), "power-on", core.Message{}); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if gotAction != "SetPower" || gotArgs["Power"] != "1" {
		t.Fatalf("driver got %q %v", gotAction, gotArgs)
	}
	if err := g.Deliver(context.Background(), "power-off", core.Message{}); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if gotArgs["Power"] != "0" {
		t.Fatalf("power-off args = %v", gotArgs)
	}
	// Each action sleeps 1ms inside the driver; InvokeTime counts it.
	if s := g.Stats(); s.Invoked != 2 || s.Delivered != 2 || s.InvokeTime < 2*time.Millisecond {
		t.Fatalf("stats = %+v", s)
	}
}

func TestGenericTranslatorResultEmission(t *testing.T) {
	r := MustDefaultRegistry()
	svc := r.MustFind("rmi", "EchoService")
	driver := DriverFunc(func(_ context.Context, action string, _ map[string]string, payload []byte) ([]byte, error) {
		if action != "echo" {
			t.Errorf("action = %q", action)
		}
		return payload, nil
	})
	profile := core.Profile{
		ID:       core.MakeTranslatorID("h1", "rmi", "echo-1"),
		Platform: "rmi",
		Node:     "h1",
	}
	g, err := NewGenericTranslator(profile, svc, driver)
	if err != nil {
		t.Fatalf("NewGenericTranslator: %v", err)
	}
	defer g.Close()

	var emitted core.Message
	g.Bind(core.SinkFunc(func(src core.PortRef, msg core.Message) {
		if src.Port == "echo-out" {
			emitted = msg
		}
	}))
	if err := g.Deliver(context.Background(), "echo-in", core.NewMessage("application/octet-stream", []byte("ping"))); err != nil {
		t.Fatalf("Deliver: %v", err)
	}
	if string(emitted.Payload) != "ping" {
		t.Fatalf("emitted = %v", emitted)
	}
}

func TestGenericTranslatorNativeEvent(t *testing.T) {
	r := MustDefaultRegistry()
	svc := r.MustFind("bluetooth", "HID-Mouse")
	profile := core.Profile{
		ID:       core.MakeTranslatorID("h1", "bluetooth", "mouse-1"),
		Platform: "bluetooth",
		Node:     "h1",
	}
	g, err := NewGenericTranslator(profile, svc, DriverFunc(nil))
	if err != nil {
		t.Fatalf("NewGenericTranslator: %v", err)
	}
	defer g.Close()

	var got []core.Message
	g.Bind(core.SinkFunc(func(_ core.PortRef, msg core.Message) { got = append(got, msg) }))
	g.NativeEvent("Click", core.Message{Payload: []byte("<vml><click/></vml>")})
	g.NativeEvent("Unknown", core.Message{}) // dropped: semantic loss
	if len(got) != 1 {
		t.Fatalf("emissions = %d, want 1", len(got))
	}
	if got[0].Type != "text/vml" {
		t.Fatalf("emitted type = %q, want text/vml (paper 5.2)", got[0].Type)
	}
	if s := g.Stats(); s.Events != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestGenericTranslatorConstructorErrors(t *testing.T) {
	r := MustDefaultRegistry()
	svc := r.MustFind("rmi", "EchoService")
	profile := core.Profile{ID: "x", Platform: "rmi", Node: "h1"}
	if _, err := NewGenericTranslator(profile, nil, DriverFunc(nil)); err == nil {
		t.Error("nil service accepted")
	}
	if _, err := NewGenericTranslator(profile, svc, nil); err == nil {
		t.Error("nil driver accepted")
	}
	if _, err := NewGenericTranslator(core.Profile{}, svc, DriverFunc(nil)); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestGenericTranslatorDriverError(t *testing.T) {
	r := MustDefaultRegistry()
	svc := r.MustFind("rmi", "EchoService")
	driver := DriverFunc(func(context.Context, string, map[string]string, []byte) ([]byte, error) {
		return nil, context.DeadlineExceeded
	})
	profile := core.Profile{ID: "x", Platform: "rmi", Node: "h1"}
	g, err := NewGenericTranslator(profile, svc, driver)
	if err != nil {
		t.Fatalf("NewGenericTranslator: %v", err)
	}
	defer g.Close()
	err = g.Deliver(context.Background(), "echo-in", core.Message{})
	if err == nil || !strings.Contains(err.Error(), "echo") {
		t.Fatalf("err = %v, want wrapped driver error", err)
	}
}
