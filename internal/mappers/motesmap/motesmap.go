// Package motesmap implements uMiddle's Berkeley Motes mapper: it hosts
// the sensor network's base station and imports a translator per mote
// the moment its first packet arrives. Sensor readings become native
// events on the translator's light-out and temp-out ports; motes silent
// beyond a liveness window are unmapped.
package motesmap

import (
	"context"
	"fmt"
	"log/slog"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/netemu"
	"repro/internal/platform/motes"
	"repro/internal/usdl"
)

// Platform is the platform name this mapper bridges.
const Platform = "motes"

// Options configures the mapper.
type Options struct {
	// LivenessWindow is how long a mote may stay silent before being
	// unmapped (default 3s).
	LivenessWindow time.Duration
	// Recorder receives service-level bridging samples.
	Recorder *mapper.Recorder
	// Logger receives diagnostics; nil disables logging.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.LivenessWindow <= 0 {
		o.LivenessWindow = 3 * time.Second
	}
	return o
}

// Mapper is the Motes platform mapper.
type Mapper struct {
	host *netemu.Host
	opts Options
	base *motes.BaseStation
	r    *mapper.Reconciler[uint16] // keyed by decimal mote ID
}

var _ mapper.Mapper = (*Mapper)(nil)

// New creates a Motes mapper; the base station it hosts listens on the
// runtime's host.
func New(host *netemu.Host, opts Options) *Mapper {
	m := &Mapper{host: host, opts: opts.withDefaults()}
	// A mote is unmapped after two silent half-windows: silence of
	// between one and one and a half liveness windows.
	m.r = mapper.NewReconciler(mapper.Adapter[uint16]{
		Platform:      Platform,
		Interval:      m.opts.LivenessWindow / 2,
		MissThreshold: 2,
		Describe:      describe,
		Recorder:      m.opts.Recorder,
		Logger:        m.opts.Logger,
	})
	return m
}

// Platform implements mapper.Mapper.
func (m *Mapper) Platform() string { return Platform }

// Start implements mapper.Mapper: it boots the base station and begins
// importing motes as they report.
func (m *Mapper) Start(ctx context.Context, imp mapper.Importer) error {
	base, err := motes.NewBaseStation(m.host)
	if err != nil {
		return fmt.Errorf("motesmap: %w", err)
	}
	m.base = base
	if err := m.r.Start(ctx, imp); err != nil {
		base.Close()
		return err
	}
	base.OnPacket(func(p motes.Packet) {
		m.r.Guard(func() { m.handlePacket(p) })
	})
	return nil
}

// Close implements mapper.Mapper.
func (m *Mapper) Close() error {
	m.r.Close()
	if m.base != nil {
		m.base.Close()
	}
	return nil
}

// MappedCount returns the number of currently mapped motes.
func (m *Mapper) MappedCount() int { return m.r.MappedCount() }

// handlePacket maps a mote on its first packet and turns every reading
// into a native event.
func (m *Mapper) handlePacket(p motes.Packet) {
	gt := m.r.Seen(strconv.Itoa(int(p.MoteID)), p.MoteID)
	if gt == nil {
		return // mapping failed or in progress on another goroutine
	}
	native := "Light"
	if p.Sensor == motes.SensorTemperature {
		native = "Temperature"
	}
	gt.NativeEvent(native, core.Message{
		Payload: []byte(strconv.Itoa(int(p.Value))),
		Headers: map[string]string{
			"mote":   strconv.Itoa(int(p.MoteID)),
			"sensor": p.Sensor.String(),
			"seq":    strconv.Itoa(int(p.Seq)),
		},
	})
}

func describe(_ context.Context, key string, id uint16) (mapper.Desc, error) {
	return mapper.Desc{
		Profile: core.Profile{
			Name:       fmt.Sprintf("Mote %d", id),
			DeviceType: "sensor-mote",
			Attributes: map[string]string{"moteId": key},
		},
		LocalID: "mote-" + key,
		// Motes are sense-only: no actions, so the driver is never invoked.
		Driver: usdl.DriverFunc(nil),
	}, nil
}
