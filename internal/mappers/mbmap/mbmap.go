// Package mbmap implements uMiddle's MediaBroker mapper: it polls a
// broker's stream table and imports a translator per stream. The
// translator consumes the native stream and emits each frame on its
// media-out port; deliveries to media-in are published back through the
// broker on a companion "<stream>-return" stream, which is how echoed
// or transformed media reaches the native MediaBroker service (the MB
// and RMI-MB tests of the paper's Figure 11).
package mbmap

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/netemu"
	"repro/internal/platform/mediabroker"
	"repro/internal/usdl"
)

// Platform is the platform name this mapper bridges.
const Platform = "mediabroker"

// ReturnSuffix names the companion stream used for media flowing back
// into the native platform.
const ReturnSuffix = "-return"

// Options configures the mapper.
type Options struct {
	// BrokerHost names the host running the broker.
	BrokerHost string
	// PollInterval is the stream-table poll cadence (default 500ms).
	PollInterval time.Duration
	// Recorder receives service-level bridging samples.
	Recorder *mapper.Recorder
	// Logger receives diagnostics; nil disables logging.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.PollInterval <= 0 {
		o.PollInterval = 500 * time.Millisecond
	}
	return o
}

// Mapper is the MediaBroker platform mapper.
type Mapper struct {
	host *netemu.Host
	opts Options
	r    *mapper.Reconciler[mediabroker.StreamInfo] // keyed by stream name
}

var _ mapper.Mapper = (*Mapper)(nil)

// New creates a MediaBroker mapper on the given host.
func New(host *netemu.Host, opts Options) *Mapper {
	m := &Mapper{host: host, opts: opts.withDefaults()}
	m.r = mapper.NewReconciler(mapper.Adapter[mediabroker.StreamInfo]{
		Platform:      Platform,
		IDPrefix:      "stream",
		Interval:      m.opts.PollInterval,
		MissThreshold: 1,
		Poll:          m.poll,
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

// MappedCount returns the number of currently mapped streams.
func (m *Mapper) MappedCount() int { return m.r.MappedCount() }

// poll lists the broker's streams, leaving out uMiddle's own return
// streams so they are never mapped back.
func (m *Mapper) poll(ctx context.Context) ([]mapper.Sighting[mediabroker.StreamInfo], error) {
	streams, err := mediabroker.ListStreams(ctx, m.host, m.opts.BrokerHost)
	if err != nil {
		return nil, err
	}
	var out []mapper.Sighting[mediabroker.StreamInfo]
	for _, info := range streams {
		if !strings.HasSuffix(info.Name, ReturnSuffix) {
			out = append(out, mapper.Sighting[mediabroker.StreamInfo]{Key: info.Name, Native: info})
		}
	}
	return out, nil
}

// returnStream is the lazily dialled producer of a stream's companion
// return stream.
type returnStream struct {
	mu       sync.Mutex
	producer *mediabroker.Producer
}

// describe subscribes to the stream; the pump relays each native frame
// to the translator, and publish actions go out on the return stream.
func (m *Mapper) describe(ctx context.Context, name string, info mediabroker.StreamInfo) (mapper.Desc, error) {
	consumer, err := mediabroker.NewConsumer(ctx, m.host, m.opts.BrokerHost, name)
	if err != nil {
		return mapper.Desc{}, fmt.Errorf("mbmap: consume %s: %w", name, err)
	}
	ret := &returnStream{}
	host, brokerHost := m.host, m.opts.BrokerHost
	driver := usdl.DriverFunc(func(ctx context.Context, action string, _ map[string]string, payload []byte) ([]byte, error) {
		if action != "publish" {
			return nil, fmt.Errorf("mbmap: unknown action %q", action)
		}
		ret.mu.Lock()
		defer ret.mu.Unlock()
		if ret.producer == nil {
			p, err := mediabroker.NewProducer(ctx, host, brokerHost, name+ReturnSuffix, info.MediaType)
			if err != nil {
				return nil, err
			}
			ret.producer = p
		}
		if err := ret.producer.Send(payload); err != nil {
			ret.producer.Close()
			ret.producer = nil
			return nil, err
		}
		return nil, nil
	})
	return mapper.Desc{
		Profile: core.Profile{
			Name:       name,
			DeviceType: "stream",
			Attributes: map[string]string{
				"broker":    brokerHost,
				"mediaType": info.MediaType,
				"producer":  info.Producer,
			},
		},
		Driver: driver,
		Pump: func(gt *usdl.GenericTranslator) {
			for {
				frame, err := consumer.Recv()
				if err != nil {
					return
				}
				// The port's declared type is used for the emission; the
				// native media type travels as a header so it survives
				// translation without breaking port-type checks.
				gt.NativeEvent("Frame", core.Message{
					Payload: frame,
					Headers: map[string]string{"mediaType": info.MediaType},
				})
			}
		},
		Cleanup: func() {
			consumer.Close()
			ret.mu.Lock()
			defer ret.mu.Unlock()
			if ret.producer != nil {
				ret.producer.Close()
				ret.producer = nil
			}
		},
	}, nil
}
