package bench

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mappers/btmap"
	"repro/internal/mappers/upnpmap"
	"repro/internal/netemu"
	"repro/internal/platform/bluetooth"
	"repro/internal/platform/upnp"
	"repro/internal/usdl"
)

// Sec52Row is one device-level bridging measurement from the paper's
// Section 5.2 text.
type Sec52Row struct {
	// Case labels the measurement.
	Case string
	// PaperTotal is the end-to-end latency the paper reports.
	PaperTotal time.Duration
	// PaperNative is the portion the paper attributes to the native
	// domain (only reported for the UPnP case).
	PaperNative time.Duration
	// MeasuredTotal is the measured mean end-to-end latency.
	MeasuredTotal time.Duration
	// MeasuredNative is the measured mean native-domain latency (direct
	// control-point invocation, bypassing uMiddle), where applicable.
	MeasuredNative time.Duration
	// MeasuredUMiddle is the infrastructure's own mean contribution.
	// For UPnP it is each action's Deliver time minus the native call
	// inside it, as the translator's driver timed that call.
	MeasuredUMiddle time.Duration
	// Iterations is the number of operations averaged (the paper uses
	// one hundred).
	Iterations int
}

// UPnPActuationDelay is the simulated physical actuation latency used
// for the Section 5.2 reproduction. The paper measures ~150 ms inside
// the UPnP domain for its light switch; most of that is device-side
// work, which the emulated device models with this delay (see
// EXPERIMENTS.md for the substitution note).
const UPnPActuationDelay = 140 * time.Millisecond

// RunSec52UPnP reproduces the UPnP half of Section 5.2: the average
// time to control a UPnP light switch through uMiddle (paper: 160 ms
// total, 150 ms of it in the UPnP domain), over iters actions.
func RunSec52UPnP(iters int) (Sec52Row, error) {
	if iters <= 0 {
		iters = 100
	}
	row := Sec52Row{
		Case:        "UPnP light switch action",
		PaperTotal:  160 * time.Millisecond,
		PaperNative: 150 * time.Millisecond,
		Iterations:  iters,
	}

	net := netemu.NewNetwork(netemu.Ethernet10Mbps())
	defer net.Close()
	rt, err := newRuntime(net, "bench-node")
	if err != nil {
		return row, err
	}
	defer rt.Close()
	if err := rt.AddMapper(upnpmap.New(rt.Host(), upnpmap.Options{
		SearchInterval: 100 * time.Millisecond,
	})); err != nil {
		return row, err
	}

	devHost, err := net.AddHost("light-dev")
	if err != nil {
		return row, err
	}
	light := upnp.NewBinaryLight(devHost, "bench-light", "Bench Light", upnp.DeviceOptions{
		ActuationDelay: UPnPActuationDelay,
	})
	if err := light.Publish(); err != nil {
		return row, err
	}
	defer light.Unpublish()

	var profile core.Profile
	if err := waitCond(10*time.Second, func() bool {
		got := rt.Lookup(core.Query{Platform: "upnp"})
		if len(got) == 1 {
			profile = got[0]
			return true
		}
		return false
	}); err != nil {
		return row, err
	}

	// Native baseline: direct control-point invocation from the same
	// node, bypassing uMiddle — the "UPnP domain" cost.
	cp := upnp.NewControlPoint(rt.Host(), 5998)
	if err := cp.Start(); err != nil {
		return row, err
	}
	defer cp.Close()
	location := profile.Attr("location")
	desc, err := cp.FetchDescription(context.Background(), location)
	if err != nil {
		return row, err
	}
	svcInfo := desc.Device.Services[0]
	// Through uMiddle: deliver to the translator's port, as an
	// application's control request would arrive.
	local, _ := rt.Directory().Local(profile.ID)
	tr, ok := local.(*usdl.GenericTranslator)
	if !ok {
		return row, fmt.Errorf("bench: translator %s is not a local generic translator", profile.ID)
	}
	// The two are timed in one loop, a native invocation then a uMiddle
	// one, so a load spike on the machine lands in both sums instead of
	// in whichever loop it happened to hit. Native switches the light on
	// and uMiddle switches it off, so every invocation of either kind
	// changes the device's state. uMiddle's share of an action is its
	// Deliver time minus the native call the driver made inside it.
	var native, total, share time.Duration
	for i := 0; i < iters; i++ {
		start := time.Now()
		if _, err := cp.Invoke(context.Background(), location, svcInfo.ControlURL, upnp.ActionCall{
			ServiceType: svcInfo.ServiceType,
			Action:      "SetPower",
			Args:        map[string]string{"Power": "1"},
		}); err != nil {
			return row, fmt.Errorf("bench: native invoke: %w", err)
		}
		invoked := tr.Stats().InvokeTime
		mid := time.Now()
		if err := tr.Deliver(context.Background(), "power-off", core.Message{}); err != nil {
			return row, fmt.Errorf("bench: deliver: %w", err)
		}
		deliver := time.Since(mid)
		native += mid.Sub(start)
		total += deliver
		share += deliver - (tr.Stats().InvokeTime - invoked)
	}
	row.MeasuredNative = native / time.Duration(iters)
	row.MeasuredTotal = total / time.Duration(iters)
	row.MeasuredUMiddle = share / time.Duration(iters)
	return row, nil
}

// RunSec52Bluetooth reproduces the Bluetooth half of Section 5.2: the
// average overhead of translating a mouse click into a VML document and
// delivering it to another uMiddle device (paper: 23 ms).
func RunSec52Bluetooth(iters int) (Sec52Row, error) {
	if iters <= 0 {
		iters = 100
	}
	row := Sec52Row{
		Case:       "Bluetooth mouse click translation",
		PaperTotal: 23 * time.Millisecond,
		Iterations: iters,
	}

	net := netemu.NewNetwork(netemu.Ethernet10Mbps())
	defer net.Close()
	rt, err := newRuntime(net, "bench-node")
	if err != nil {
		return row, err
	}
	defer rt.Close()
	hostAdapter, err := bluetooth.NewAdapter(rt.Host(), "bench-bt", bluetooth.AdapterOptions{})
	if err != nil {
		return row, err
	}
	defer hostAdapter.Close()
	if err := rt.AddMapper(btmap.New(hostAdapter, btmap.Options{
		InquiryInterval: 150 * time.Millisecond,
		InquiryWindow:   100 * time.Millisecond,
	})); err != nil {
		return row, err
	}

	mouseHost, err := net.AddHost("mouse-dev")
	if err != nil {
		return row, err
	}
	net.SetLink("bench-node", "mouse-dev", netemu.Bluetooth1_2())
	adapter, err := bluetooth.NewAdapter(mouseHost, "mouse-dev", bluetooth.AdapterOptions{})
	if err != nil {
		return row, err
	}
	defer adapter.Close()
	mouse, err := bluetooth.NewHIDMouse(adapter, "Bench Mouse")
	if err != nil {
		return row, err
	}
	defer mouse.Close()

	var profile core.Profile
	if err := waitCond(15*time.Second, func() bool {
		got := rt.Lookup(core.Query{Platform: "bluetooth"})
		if len(got) == 1 {
			profile = got[0]
			return true
		}
		return false
	}); err != nil {
		return row, err
	}

	// Receive VML documents on another uMiddle device, as in the paper
	// ("receiving mouse click signals ... and then sending them out to
	// another uMiddle device").
	received := make(chan struct{}, 1)
	sink := core.MustBase(core.Profile{
		ID:       core.MakeTranslatorID("bench-node", "umiddle", "click-sink"),
		Name:     "click sink",
		Platform: "umiddle",
		Node:     "bench-node",
		Shape: core.MustShape(
			core.Port{Name: "in", Kind: core.Digital, Direction: core.Input, Type: "text/vml"},
		),
	})
	var sinkMu sync.Mutex
	sinkCount := 0
	sink.MustHandle("in", func(context.Context, core.Message) error {
		sinkMu.Lock()
		sinkCount++
		sinkMu.Unlock()
		select {
		case received <- struct{}{}:
		default:
		}
		return nil
	})
	if err := rt.Register(sink); err != nil {
		return row, err
	}
	if _, err := rt.Connect(
		core.PortRef{Translator: profile.ID, Port: "click-out"},
		core.PortRef{Translator: sink.ID(), Port: "in"},
	); err != nil {
		return row, err
	}
	// Let the mapper's HID connection settle.
	time.Sleep(200 * time.Millisecond)

	start := time.Now()
	for i := 0; i < iters; i++ {
		mouse.Click(1)
		select {
		case <-received:
		case <-time.After(5 * time.Second):
			return row, fmt.Errorf("bench: click %d never arrived", i)
		}
	}
	row.MeasuredTotal = time.Since(start) / time.Duration(iters)
	row.MeasuredUMiddle = row.MeasuredTotal // the whole path is bridge work
	return row, nil
}
