package bench

import (
	"fmt"
	"time"

	"repro/internal/mapper"
	"repro/internal/mappers/btmap"
	"repro/internal/mappers/upnpmap"
	"repro/internal/netemu"
	"repro/internal/platform/bluetooth"
	"repro/internal/platform/upnp"
)

// Figure10Row is one bar of the paper's Figure 10: the time a mapper
// needs to generate a translator for one device type after native
// discovery.
type Figure10Row struct {
	// Device is the device label used in the paper.
	Device string
	// Platform is the native platform.
	Platform string
	// Ports is the translator's port count.
	Ports int
	// PaperInstancesPerSec is the instantiation rate the paper reports
	// (approximate readings of Figure 10 and its discussion).
	PaperInstancesPerSec float64
	// MeasuredMean is the measured mean mapping time.
	MeasuredMean time.Duration
	// MeasuredInstancesPerSec is the measured rate.
	MeasuredInstancesPerSec float64
	// Samples is the number of mapping operations measured.
	Samples int
}

// upnpDeviceFactory publishes one emulated UPnP device and returns its
// unpublish function.
type upnpDeviceFactory func(host *netemu.Host, uuid string) (interface{ Unpublish() error }, error)

// RunFigure10 reproduces Figure 10: it repeatedly maps and unmaps each
// device type, recording discovery-to-translator-ready times. iters is
// the number of mapping operations per device type.
func RunFigure10(iters int) ([]Figure10Row, error) {
	if iters <= 0 {
		iters = 5
	}
	var rows []Figure10Row

	upnpDevices := []struct {
		label   string
		paper   float64
		factory upnpDeviceFactory
	}{
		{"UPnP Clock", 0.7, func(h *netemu.Host, uuid string) (interface{ Unpublish() error }, error) {
			d := upnp.NewClock(h, uuid, "Bench Clock", upnp.DeviceOptions{})
			return d, d.Publish()
		}},
		{"UPnP Air Conditioner", 4.0, func(h *netemu.Host, uuid string) (interface{ Unpublish() error }, error) {
			d := upnp.NewAirConditioner(h, uuid, "Bench AC", upnp.DeviceOptions{})
			return d, d.Publish()
		}},
		{"UPnP Light", 4.0, func(h *netemu.Host, uuid string) (interface{ Unpublish() error }, error) {
			d := upnp.NewBinaryLight(h, uuid, "Bench Light", upnp.DeviceOptions{})
			return d, d.Publish()
		}},
	}

	for _, dev := range upnpDevices {
		row, err := runFigure10UPnP(dev.label, dev.paper, iters, dev.factory)
		if err != nil {
			return nil, fmt.Errorf("bench: figure 10 %s: %w", dev.label, err)
		}
		rows = append(rows, row)
	}

	btRow, err := runFigure10Bluetooth(iters)
	if err != nil {
		return nil, fmt.Errorf("bench: figure 10 bluetooth: %w", err)
	}
	rows = append(rows, btRow)
	return rows, nil
}

func runFigure10UPnP(label string, paper float64, iters int, factory upnpDeviceFactory) (Figure10Row, error) {
	net := netemu.NewNetwork(netemu.Ethernet10Mbps())
	defer net.Close()
	rt, err := newRuntime(net, "bench-node")
	if err != nil {
		return Figure10Row{}, err
	}
	defer rt.Close()
	rec := mapper.NewRecorder()
	m := upnpmap.New(rt.Host(), upnpmap.Options{
		SearchInterval: 100 * time.Millisecond,
		Recorder:       rec,
	})
	if err := rt.AddMapper(m); err != nil {
		return Figure10Row{}, err
	}
	devHost, err := net.AddHost("dev-host")
	if err != nil {
		return Figure10Row{}, err
	}

	for i := 0; i < iters; i++ {
		uuid := fmt.Sprintf("bench-%d", i)
		dev, err := factory(devHost, uuid)
		if err != nil {
			return Figure10Row{}, err
		}
		if err := waitCond(10*time.Second, func() bool {
			return len(rec.Samples()) == i+1
		}); err != nil {
			dev.Unpublish()
			return Figure10Row{}, err
		}
		dev.Unpublish()
		if err := waitCond(10*time.Second, func() bool {
			return m.MappedCount() == 0
		}); err != nil {
			return Figure10Row{}, err
		}
	}
	return summarizeFig10(label, "upnp", paper, rec.Samples()), nil
}

func runFigure10Bluetooth(iters int) (Figure10Row, error) {
	net := netemu.NewNetwork(netemu.Ethernet10Mbps())
	defer net.Close()
	rt, err := newRuntime(net, "bench-node")
	if err != nil {
		return Figure10Row{}, err
	}
	defer rt.Close()

	hostAdapter, err := bluetooth.NewAdapter(rt.Host(), "bench-bt", bluetooth.AdapterOptions{})
	if err != nil {
		return Figure10Row{}, err
	}
	defer hostAdapter.Close()
	rec := mapper.NewRecorder()
	m := btmap.New(hostAdapter, btmap.Options{
		InquiryInterval: 150 * time.Millisecond,
		InquiryWindow:   100 * time.Millisecond,
		MissThreshold:   2,
		Recorder:        rec,
	})
	if err := rt.AddMapper(m); err != nil {
		return Figure10Row{}, err
	}

	for i := 0; i < iters; i++ {
		devHost, err := net.AddHost(fmt.Sprintf("mouse-dev-%d", i))
		if err != nil {
			return Figure10Row{}, err
		}
		// Shape the radio link like Bluetooth 1.2.
		net.SetLink("bench-node", devHost.Name(), netemu.Bluetooth1_2())
		adapter, err := bluetooth.NewAdapter(devHost, devHost.Name(), bluetooth.AdapterOptions{})
		if err != nil {
			return Figure10Row{}, err
		}
		mouse, err := bluetooth.NewHIDMouse(adapter, "Bench Mouse")
		if err != nil {
			adapter.Close()
			return Figure10Row{}, err
		}
		if err := waitCond(15*time.Second, func() bool {
			return len(rec.Samples()) == i+1
		}); err != nil {
			mouse.Close()
			adapter.Close()
			return Figure10Row{}, err
		}
		mouse.Close()
		adapter.Close()
		if err := waitCond(15*time.Second, func() bool {
			return m.MappedCount() == 0
		}); err != nil {
			return Figure10Row{}, err
		}
	}
	return summarizeFig10("Bluetooth HID Mouse", "bluetooth", 5.0, rec.Samples()), nil
}

func summarizeFig10(label, platform string, paper float64, samples []mapper.Sample) Figure10Row {
	row := Figure10Row{Device: label, Platform: platform, PaperInstancesPerSec: paper}
	if len(samples) == 0 {
		return row
	}
	var total time.Duration
	for _, s := range samples {
		total += s.Duration
		row.Ports = s.Ports
	}
	row.Samples = len(samples)
	row.MeasuredMean = total / time.Duration(len(samples))
	if row.MeasuredMean > 0 {
		row.MeasuredInstancesPerSec = float64(time.Second) / float64(row.MeasuredMean)
	}
	return row
}
