// Package btmap implements uMiddle's Bluetooth mapper: periodic inquiry
// discovers nearby devices, SDP queries fetch their service records, and
// each record with a matching USDL document is imported as a generic
// translator. BIP responders get an OBEX driver; HID devices get a
// report-reader goroutine that translates mouse signals into Vector
// Markup Language documents, exactly the translation the paper's
// Section 5.2 measures (23 ms per signal on their hardware).
//
// The paper built this mapper on the Linux BlueZ library; here it is
// built on the emulated stack in internal/platform/bluetooth.
package btmap

import (
	"context"
	"fmt"
	"log/slog"
	"time"

	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/platform/bluetooth"
	"repro/internal/usdl"
)

// Platform is the platform name this mapper bridges.
const Platform = "bluetooth"

// Options configures the mapper.
type Options struct {
	// InquiryInterval is the pause between inquiry sweeps (default 1s).
	InquiryInterval time.Duration
	// InquiryWindow is how long each inquiry listens (default 300ms;
	// real inquiry takes ~10s, scaled down for the emulated radio).
	InquiryWindow time.Duration
	// MissThreshold is how many consecutive sweeps may miss a device
	// before it is unmapped (default 3).
	MissThreshold int
	// Recorder receives service-level bridging samples for Figure 10.
	Recorder *mapper.Recorder
	// Logger receives diagnostics; nil disables logging.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.InquiryInterval <= 0 {
		o.InquiryInterval = time.Second
	}
	if o.InquiryWindow <= 0 {
		o.InquiryWindow = 300 * time.Millisecond
	}
	if o.MissThreshold <= 0 {
		o.MissThreshold = 3
	}
	return o
}

// Mapper is the Bluetooth platform mapper.
type Mapper struct {
	adapter *bluetooth.Adapter
	opts    Options
	r       *mapper.Reconciler[record] // keyed by addr/profile
}

// record is one SDP service record of a discovered device.
type record struct {
	dev bluetooth.DeviceInfo
	rec bluetooth.Record
}

var _ mapper.Mapper = (*Mapper)(nil)

// New creates a Bluetooth mapper using the given (already powered)
// adapter.
func New(adapter *bluetooth.Adapter, opts Options) *Mapper {
	m := &Mapper{adapter: adapter, opts: opts.withDefaults()}
	m.r = mapper.NewReconciler(mapper.Adapter[record]{
		Platform:      Platform,
		IDPrefix:      "dev",
		Interval:      m.opts.InquiryInterval,
		MissThreshold: m.opts.MissThreshold,
		Poll:          m.inquire,
		Describe:      m.describe,
		Recorder:      m.opts.Recorder,
		Logger:        m.opts.Logger,
	})
	return m
}

// Platform implements mapper.Mapper.
func (m *Mapper) Platform() string { return Platform }

// Start implements mapper.Mapper.
func (m *Mapper) Start(ctx context.Context, imp mapper.Importer) error {
	return m.r.Start(ctx, imp)
}

// Close implements mapper.Mapper.
func (m *Mapper) Close() error {
	m.r.Close()
	return nil
}

// MappedCount returns the number of currently mapped services.
func (m *Mapper) MappedCount() int { return m.r.MappedCount() }

// inquire runs one inquiry and lists every service record of every
// device found. A failed SDP query fails the pass, so the device's
// services are not charged a miss.
func (m *Mapper) inquire(ctx context.Context) ([]mapper.Sighting[record], error) {
	found, err := m.adapter.Inquiry(ctx, m.opts.InquiryWindow)
	if err != nil {
		return nil, err
	}
	var out []mapper.Sighting[record]
	for _, dev := range found {
		records, sdpErr := m.adapter.SDPQuery(ctx, dev.Addr, "")
		if sdpErr != nil {
			err = fmt.Errorf("btmap: sdp query %s: %w", dev.Addr, sdpErr)
			continue
		}
		for _, rec := range records {
			out = append(out, mapper.Sighting[record]{Key: dev.Addr + "/" + rec.ProfileName, Native: record{dev, rec}})
		}
	}
	return out, err
}

// describe builds the description for one SDP record. HID devices stream
// input reports: the mapper connects and pumps each report, translated
// to a VML document, into the translator as a native event.
func (m *Mapper) describe(ctx context.Context, _ string, r record) (mapper.Desc, error) {
	dev, rec := r.dev, r.rec
	d := mapper.Desc{
		Profile: core.Profile{
			Name:       rec.ServiceName,
			DeviceType: rec.ProfileName,
			Attributes: map[string]string{
				"addr":    dev.Addr,
				"class":   fmt.Sprintf("0x%04x", dev.Class),
				"channel": fmt.Sprintf("%d", rec.RFCOMMChannel),
			},
		},
		Driver: m.driverFor(dev, rec),
	}
	if rec.HasClass(bluetooth.UUIDHID) {
		host, err := bluetooth.ConnectHID(ctx, m.adapter, dev.Addr, rec.RFCOMMChannel)
		if err != nil {
			return mapper.Desc{}, fmt.Errorf("btmap: hid connect: %w", err)
		}
		d.Cleanup = func() { host.Close() }
		d.Pump = func(gt *usdl.GenericTranslator) { hidLoop(host, gt) }
	}
	return d, nil
}

// driverFor builds the OBEX-backed native driver for BIP records.
func (m *Mapper) driverFor(dev bluetooth.DeviceInfo, rec bluetooth.Record) usdl.Driver {
	adapter := m.adapter
	return usdl.DriverFunc(func(ctx context.Context, action string, args map[string]string, payload []byte) ([]byte, error) {
		switch action {
		case "GetImage":
			name := args["Name"]
			if name == "" {
				name = "latest.jpg"
			}
			return bluetooth.FetchImage(ctx, adapter, dev.Addr, rec.RFCOMMChannel, name)
		case "PutImage":
			name := args["Name"]
			if name == "" {
				name = "push.jpg"
			}
			return nil, bluetooth.PushImage(ctx, adapter, dev.Addr, rec.RFCOMMChannel, name, payload)
		default:
			return nil, fmt.Errorf("btmap: profile %q has no action %q", rec.ProfileName, action)
		}
	})
}

// hidLoop translates HID reports into VML-document native events — the
// paper's device-level bridging path for the Bluetooth mouse.
func hidLoop(host *bluetooth.HIDHost, gt *usdl.GenericTranslator) {
	for {
		report, err := host.ReadReport()
		if err != nil {
			return
		}
		vml := reportToVML(report)
		native := "Motion"
		if report.IsClick() {
			native = "Click"
		}
		gt.NativeEvent(native, core.Message{Type: "text/vml", Payload: []byte(vml)})
	}
}

// reportToVML renders a HID report as a Vector Markup Language fragment,
// the common representation the paper uses for mouse signals.
func reportToVML(r bluetooth.HIDReport) string {
	if r.IsClick() {
		return fmt.Sprintf(`<v:vml xmlns:v="urn:schemas-microsoft-com:vml"><v:oval style="click" button="%d"/></v:vml>`, r.Buttons)
	}
	return fmt.Sprintf(`<v:vml xmlns:v="urn:schemas-microsoft-com:vml"><v:line from="0,0" to="%d,%d"/></v:vml>`, r.DX, r.DY)
}
