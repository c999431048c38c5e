// Package upnpmap implements uMiddle's UPnP mapper: it discovers native
// UPnP devices over SSDP, fetches their descriptions and SCPDs, locates
// the USDL document matching the device type, and imports a
// USDL-parameterized generic translator whose driver speaks SOAP and
// whose GENA subscriptions feed native events into the intermediary
// semantic space.
//
// The paper built this mapper on the CyberLink Java library; here it is
// built on the emulated UPnP stack in internal/platform/upnp, consuming
// only the wire protocols.
package upnpmap

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/netemu"
	"repro/internal/platform/upnp"
	"repro/internal/usdl"
)

// Platform is the platform name this mapper bridges.
const Platform = "upnp"

// Options configures the mapper.
type Options struct {
	// SearchInterval is how often an M-SEARCH sweep runs (default 2s).
	SearchInterval time.Duration
	// EventPort is the control point's GENA callback port (0 = default).
	EventPort int
	// Recorder receives service-level bridging samples for Figure 10.
	Recorder *mapper.Recorder
	// Logger receives diagnostics; nil disables logging.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.SearchInterval <= 0 {
		o.SearchInterval = 2 * time.Second
	}
	return o
}

// Mapper is the UPnP platform mapper.
type Mapper struct {
	host *netemu.Host
	opts Options
	cp   *upnp.ControlPoint
	r    *mapper.Reconciler[string] // keyed by USN; native is the location
}

var _ mapper.Mapper = (*Mapper)(nil)

// New creates a UPnP mapper on the given host (normally the runtime's
// host).
func New(host *netemu.Host, opts Options) *Mapper {
	m := &Mapper{host: host, opts: opts.withDefaults()}
	m.r = mapper.NewReconciler(mapper.Adapter[string]{
		Platform: Platform,
		IDPrefix: "dev",
		Interval: m.opts.SearchInterval,
		// Periodic M-SEARCH sweeps pick up devices that predate the
		// mapper; the responses arrive as advertisements.
		Poll: func(context.Context) ([]mapper.Sighting[string], error) {
			m.cp.Search(upnp.SSDPAll, 2) //nolint:errcheck // best effort
			return nil, nil
		},
		Describe: m.describe,
		Recorder: m.opts.Recorder,
		Logger:   m.opts.Logger,
	})
	return m
}

// Platform implements mapper.Mapper.
func (m *Mapper) Platform() string { return Platform }

// Start implements mapper.Mapper: it begins SSDP discovery and imports
// translators for every device found.
func (m *Mapper) Start(ctx context.Context, imp mapper.Importer) error {
	cp := upnp.NewControlPoint(m.host, m.opts.EventPort)
	if err := cp.Start(); err != nil {
		return fmt.Errorf("upnpmap: %w", err)
	}
	m.cp = cp
	if err := m.r.Start(ctx, imp); err != nil {
		cp.Close()
		return err
	}
	cp.OnAdvertisement(func(msg upnp.SSDPMessage) {
		usn, location := msg.USN(), msg.Location()
		switch {
		case (msg.IsAlive() || msg.Method == upnp.MethodResponse) && usn != "" && location != "":
			m.r.Go(func() { m.r.Seen(usn, location) })
		case msg.IsByeBye():
			// byebye USNs may use the bare uuid form; match by prefix.
			m.r.Guard(func() {
				m.r.Bye(func(known string) bool {
					return known == usn || strings.HasPrefix(known, usn) || strings.HasPrefix(usn, uuidOf(known))
				})
			})
		}
	})
	return nil
}

// Close implements mapper.Mapper.
func (m *Mapper) Close() error {
	m.r.Close()
	if m.cp != nil {
		m.cp.Close()
	}
	return nil
}

// describe fetches a device's description and SCPDs and builds its SOAP
// driver; GENA subscriptions attach the translator to native events.
// This is the service-level bridging operation Figure 10 benchmarks.
func (m *Mapper) describe(ctx context.Context, usn, location string) (mapper.Desc, error) {
	fetchCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	desc, err := m.cp.FetchDescription(fetchCtx, location)
	if err != nil {
		return mapper.Desc{}, err
	}
	deviceType := desc.Device.DeviceType

	// The action table: action name -> the service that declares it.
	actions := make(map[string]upnp.ServiceInfo)
	for _, info := range desc.Device.Services {
		scpd, err := m.cp.FetchSCPD(fetchCtx, location, info.SCPDURL)
		if err != nil {
			return mapper.Desc{}, err
		}
		for _, a := range scpd.Actions {
			actions[a.Name] = info
		}
	}

	cp := m.cp
	driver := usdl.DriverFunc(func(ctx context.Context, action string, args map[string]string, _ []byte) ([]byte, error) {
		info, ok := actions[action]
		if !ok {
			return nil, fmt.Errorf("upnpmap: device %s has no action %q", deviceType, action)
		}
		out, err := cp.Invoke(ctx, location, info.ControlURL, upnp.ActionCall{
			ServiceType: info.ServiceType,
			Action:      action,
			Args:        args,
		})
		if err != nil {
			return nil, err
		}
		// Single out-argument becomes the result payload.
		if len(out) == 1 {
			for _, v := range out {
				return []byte(v), nil
			}
		}
		return nil, nil
	})

	// GENA subscriptions: state-variable changes become native events
	// "<Var>Changed" routed by the USDL event table.
	attach := func(gt *usdl.GenericTranslator) error {
		subCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		for _, info := range desc.Device.Services {
			_, err := cp.Subscribe(subCtx, location, info.EventSubURL, func(variable, value string) {
				m.r.Guard(func() {
					gt.NativeEvent(variable+"Changed", core.Message{
						Type:    "text/event",
						Payload: []byte(value),
						Headers: map[string]string{"variable": variable, "service": info.ServiceID},
					})
				})
			})
			if err != nil {
				return fmt.Errorf("upnpmap: subscribe %s: %w", info.ServiceID, err)
			}
		}
		return nil
	}

	return mapper.Desc{
		Profile: core.Profile{
			Name:       desc.Device.FriendlyName,
			DeviceType: deviceType,
			Attributes: map[string]string{"usn": usn, "location": location},
		},
		Driver: driver,
		Attach: attach,
	}, nil
}

// uuidOf extracts the uuid component of a USN ("uuid:x::type" -> "uuid:x").
func uuidOf(usn string) string {
	if i := strings.Index(usn, "::"); i >= 0 {
		return usn[:i]
	}
	return usn
}

// MappedCount returns the number of currently mapped devices.
func (m *Mapper) MappedCount() int { return m.r.MappedCount() }
