// Package rmimap implements uMiddle's RMI mapper: it polls an RMI
// registry for bound names and imports a generic translator per remote
// object whose interface has a USDL document. Deliveries to the
// translator's input ports become synchronous remote invocations — the
// transport-level bridge benchmarked in the paper's Figure 11 (RMI and
// RMI-MB tests).
package rmimap

import (
	"context"
	"log/slog"
	"time"

	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/netemu"
	"repro/internal/platform/rmi"
	"repro/internal/usdl"
)

// Platform is the platform name this mapper bridges.
const Platform = "rmi"

// Options configures the mapper.
type Options struct {
	// RegistryHost names the host running the RMI registry.
	RegistryHost string
	// PollInterval is the registry poll cadence (default 500ms).
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

// Mapper is the RMI platform mapper.
type Mapper struct {
	opts     Options
	client   *rmi.Client
	registry *rmi.RegistryClient
	r        *mapper.Reconciler[struct{}] // keyed by registry name
}

var _ mapper.Mapper = (*Mapper)(nil)

// New creates an RMI mapper on the given host.
func New(host *netemu.Host, opts Options) *Mapper {
	opts = opts.withDefaults()
	m := &Mapper{
		opts:     opts,
		client:   rmi.NewClient(host),
		registry: rmi.NewRegistryClient(host, opts.RegistryHost),
	}
	m.r = mapper.NewReconciler(mapper.Adapter[struct{}]{
		Platform:      Platform,
		IDPrefix:      "obj",
		Interval:      opts.PollInterval,
		MissThreshold: 1,
		Poll:          m.poll,
		Describe:      m.describe,
		Recorder:      opts.Recorder,
		Logger:        opts.Logger,
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
	return m.client.Close()
}

// MappedCount returns the number of currently mapped objects.
func (m *Mapper) MappedCount() int { return m.r.MappedCount() }

// poll lists the registry's bound names.
func (m *Mapper) poll(ctx context.Context) ([]mapper.Sighting[struct{}], error) {
	names, err := m.registry.List(ctx)
	out := make([]mapper.Sighting[struct{}], len(names))
	for i, name := range names {
		out[i].Key = name
	}
	return out, err
}

// describe resolves a bound name; the driver turns each action into a
// synchronous remote invocation on the object.
func (m *Mapper) describe(ctx context.Context, name string, _ struct{}) (mapper.Desc, error) {
	ref, err := m.registry.Lookup(ctx, name)
	if err != nil {
		return mapper.Desc{}, err
	}
	client := m.client
	return mapper.Desc{
		Profile: core.Profile{
			Name:       name,
			DeviceType: ref.Interface,
			Attributes: map[string]string{
				"registry": m.opts.RegistryHost,
				"host":     ref.Host,
			},
		},
		Driver: usdl.DriverFunc(func(ctx context.Context, action string, _ map[string]string, payload []byte) ([]byte, error) {
			results, err := client.Call(ctx, ref, action, [][]byte{payload})
			if err != nil {
				return nil, err
			}
			if len(results) > 0 {
				return results[0], nil
			}
			return nil, nil
		}),
	}, nil
}
