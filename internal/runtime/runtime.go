// Package runtime assembles a uMiddle runtime node: the directory and
// transport modules, the USDL registry, and the set of platform mappers.
// Multiple runtimes on a network form one intermediary semantic space
// (paper Section 3.6): "these intermediary nodes communicate with one
// another through the directory and transport modules in our framework
// to form the common intermediary semantic space."
package runtime

import (
	"context"
	"fmt"
	"log/slog"
	"sync"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/mapper"
	"repro/internal/netemu"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/transport"
	"repro/internal/usdl"
)

// Config configures a runtime node.
type Config struct {
	// Node is this runtime's name; it must be unique on the network and,
	// when Host is set, equal to the host's name.
	Node string
	// Host is the emulated network endpoint; nil for a standalone
	// single-node runtime.
	Host *netemu.Host
	// USDL is the service-description registry; nil selects the built-in
	// documents.
	USDL *usdl.Registry
	// Directory tunes the directory module.
	Directory directory.Options
	// Transport tunes the transport module.
	Transport transport.Options
	// Logger receives diagnostics; nil disables logging.
	Logger *slog.Logger
	// Obs is the metrics and event-trace registry shared by the node's
	// modules. nil creates a private registry; passing one registry to
	// several runtimes aggregates a whole emulated network on a single
	// /metrics endpoint (series carry a node label).
	Obs *obs.Registry
	// MapperRetry is the backoff budget the supervisor spends restarting
	// a panicked mapper before declaring it degraded. Zero fields take
	// qos defaults.
	MapperRetry qos.RetryPolicy
}

// Runtime is one uMiddle node.
type Runtime struct {
	node   string
	host   *netemu.Host
	reg    *usdl.Registry
	dir    *directory.Directory
	mod    *transport.Module
	log    *slog.Logger
	obs    *obs.Registry
	trace  *obs.Trace
	mretry qos.RetryPolicy

	metPanics        *obs.Counter
	metRestarts      *obs.Counter
	metConfigApplies *obs.Counter
	metConfigErrors  *obs.Counter

	ctx    context.Context
	cancel context.CancelFunc
	supWG  sync.WaitGroup

	mu           sync.Mutex
	sup          []*supEntry
	hotInterests map[string]func()
	started      bool
	closed       bool
}

var _ mapper.Importer = (*Runtime)(nil)

// New creates a runtime node.
func New(cfg Config) (*Runtime, error) {
	if cfg.Node == "" {
		return nil, fmt.Errorf("runtime: empty node name")
	}
	if cfg.Host != nil && cfg.Host.Name() != cfg.Node {
		return nil, fmt.Errorf("runtime: node %q does not match host %q", cfg.Node, cfg.Host.Name())
	}
	if err := cfg.Directory.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	reg := cfg.USDL
	if reg == nil {
		var err error
		reg, err = usdl.DefaultRegistry()
		if err != nil {
			return nil, err
		}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	if cfg.Directory.Logger == nil {
		cfg.Directory.Logger = logger
	}
	if cfg.Transport.Logger == nil {
		cfg.Transport.Logger = logger
	}
	registry := cfg.Obs
	if registry == nil {
		registry = obs.NewRegistry()
	}
	if cfg.Directory.Obs == nil {
		cfg.Directory.Obs = registry
	}
	if cfg.Transport.Obs == nil {
		cfg.Transport.Obs = registry
	}
	registry.Describe("umiddle_mapper_map_latency_seconds", "Native discovery to translator-mapped latency.")
	registry.Describe("umiddle_supervisor_mapper_state", "Supervised mapper state (0 running, 1 restarting, 2 degraded, 3 disabled).")
	registry.Describe("umiddle_supervisor_panics_total", "Mapper panics recovered by the supervisor.")
	registry.Describe("umiddle_supervisor_restarts_total", "Successful supervised mapper restarts.")
	registry.Describe("umiddle_config_applies_total", "Hot-reload config documents applied.")
	registry.Describe("umiddle_config_errors_total", "Hot-reload config documents rejected.")
	dir := directory.New(cfg.Node, cfg.Host, cfg.Directory)
	mod := transport.New(cfg.Node, cfg.Host, dir, cfg.Transport)
	ctx, cancel := context.WithCancel(context.Background())
	nl := obs.Labels{"node": cfg.Node}
	return &Runtime{
		node:             cfg.Node,
		host:             cfg.Host,
		reg:              reg,
		dir:              dir,
		mod:              mod,
		log:              logger,
		obs:              registry,
		trace:            registry.Trace(),
		mretry:           cfg.MapperRetry.WithDefaults(),
		metPanics:        registry.Counter("umiddle_supervisor_panics_total", nl),
		metRestarts:      registry.Counter("umiddle_supervisor_restarts_total", nl),
		metConfigApplies: registry.Counter("umiddle_config_applies_total", nl),
		metConfigErrors:  registry.Counter("umiddle_config_errors_total", nl),
		hotInterests:     make(map[string]func()),
		ctx:              ctx,
		cancel:           cancel,
	}, nil
}

// Start brings up the directory and transport modules.
func (r *Runtime) Start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("runtime: closed")
	}
	if r.started {
		return nil
	}
	if err := r.dir.Start(); err != nil {
		return err
	}
	if err := r.mod.Start(); err != nil {
		return err
	}
	r.started = true
	return nil
}

// Close shuts down mappers, transport, and directory, in that order.
func (r *Runtime) Close() error { return r.close(false) }

// CloseForRestart shuts the node down for a planned restart: mappers and
// transport close as usual, but the directory snapshots its durable log
// and says farewell with a "restarting" advert, so peers grant the
// restart grace instead of letting the lease lapse. Meaningful only when
// the directory was built over a WAL; without one it degrades to Close.
func (r *Runtime) CloseForRestart() error { return r.close(true) }

func (r *Runtime) close(restart bool) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	entries := r.sup
	r.sup = nil
	r.mu.Unlock()

	r.cancel()
	// In-flight supervisor restarts observe the cancellation and exit
	// before the mapper set is torn down, so a restart can never revive
	// an incarnation behind Close's back.
	r.supWG.Wait()
	var firstErr error
	for _, e := range entries {
		e.mu.Lock()
		m := e.cur
		e.cur = nil
		e.mu.Unlock()
		if m == nil {
			continue
		}
		if err := m.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := r.mod.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	dirClose := r.dir.Close
	if restart {
		dirClose = r.dir.CloseForRestart
	}
	if err := dirClose(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Node implements mapper.Importer.
func (r *Runtime) Node() string { return r.node }

// USDL implements mapper.Importer.
func (r *Runtime) USDL() *usdl.Registry { return r.reg }

// Host returns the runtime's network endpoint (nil when standalone).
func (r *Runtime) Host() *netemu.Host { return r.host }

// Obs returns the node's metrics registry. Mappers reach it through
// mapper.RegistryOf, and the umiddle facade re-exports its snapshots.
func (r *Runtime) Obs() *obs.Registry { return r.obs }

// Directory returns the directory module.
func (r *Runtime) Directory() *directory.Directory { return r.dir }

// Transport returns the transport module.
func (r *Runtime) Transport() *transport.Module { return r.mod }

// ImportTranslator implements mapper.Importer: the translator is bound
// to the transport sink and announced through the directory.
func (r *Runtime) ImportTranslator(tr core.Translator) error {
	tr.Bind(r.mod)
	return r.dir.AddLocal(tr)
}

// RemoveTranslator implements mapper.Importer.
func (r *Runtime) RemoveTranslator(id core.TranslatorID) error {
	tr, err := r.dir.RemoveLocal(id)
	if err != nil {
		return err
	}
	return tr.Close()
}

// Register maps a native uMiddle service (a translator implemented
// directly against uMiddle, with no native platform behind it).
func (r *Runtime) Register(tr core.Translator) error {
	return r.ImportTranslator(tr)
}

// AddMapper attaches a platform mapper and starts its discovery loop.
// The mapper is supervised — panics in its goroutines and callbacks are
// recovered and reported — but having only the instance, the supervisor
// cannot restart it: a panic degrades the platform. Use AddMapperFunc for
// restartable mappers.
func (r *Runtime) AddMapper(m mapper.Mapper) error {
	e, err := r.newSupEntry(m.Platform(), nil)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.cur = m
	e.mu.Unlock()
	if err := r.startSupervised(m, e); err != nil {
		e.mu.Lock()
		e.lastErr = err.Error()
		e.setState(MapperDegraded)
		e.mu.Unlock()
		return fmt.Errorf("runtime: start %s mapper: %w", m.Platform(), err)
	}
	r.log.Info("runtime: mapper started", "platform", m.Platform())
	return nil
}

// AddMapperFunc attaches a platform mapper built by factory and starts
// it. The factory is retained: when an incarnation panics, the supervisor
// closes it, unmaps everything it imported, and brings up a fresh
// instance under Config.MapperRetry's backoff, degrading the platform
// only once the budget is spent.
func (r *Runtime) AddMapperFunc(platform string, factory func() (mapper.Mapper, error)) error {
	if factory == nil {
		return fmt.Errorf("runtime: nil %s mapper factory", platform)
	}
	m, err := factory()
	if err != nil {
		return fmt.Errorf("runtime: build %s mapper: %w", platform, err)
	}
	e, err := r.newSupEntry(platform, factory)
	if err != nil {
		m.Close() //nolint:errcheck
		return err
	}
	e.mu.Lock()
	e.cur = m
	e.mu.Unlock()
	if err := r.startSupervised(m, e); err != nil {
		e.mu.Lock()
		e.lastErr = err.Error()
		e.setState(MapperDegraded)
		e.mu.Unlock()
		return fmt.Errorf("runtime: start %s mapper: %w", platform, err)
	}
	r.log.Info("runtime: mapper started", "platform", platform)
	return nil
}

// Lookup is a convenience passthrough to the directory (paper Figure 6).
// The returned profiles are shared with the directory and read-only:
// Clone one before mutating it (see directory.Directory.Lookup).
func (r *Runtime) Lookup(q core.Query) []core.Profile { return r.dir.Lookup(q) }

// Connect is a convenience passthrough to the transport module (paper
// Figure 7-(1)).
func (r *Runtime) Connect(src, dst core.PortRef) (transport.PathID, error) {
	return r.mod.Connect(src, dst)
}

// ConnectQuery is a convenience passthrough to the transport module
// (paper Figure 7-(2)).
func (r *Runtime) ConnectQuery(src core.PortRef, q core.Query) (transport.PathID, error) {
	return r.mod.ConnectQuery(src, q)
}

// Disconnect tears down a path.
func (r *Runtime) Disconnect(id transport.PathID) error { return r.mod.Disconnect(id) }
