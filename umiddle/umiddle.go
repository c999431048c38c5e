// Package umiddle is the public API of this uMiddle reproduction: a
// bridging framework for universal interoperability in pervasive
// systems (Nakazawa, Edwards, Tokuda, Ramachandran — ICDCS 2006).
//
// A uMiddle deployment is a set of Runtime nodes on a network. Each
// runtime hosts platform Mappers that discover native devices (UPnP,
// Bluetooth, RMI, MediaBroker, Berkeley motes, web services) and import
// them into a common intermediary semantic space as Translators — sets
// of typed ports (Service Shaping). Applications are written against
// that space only: they look devices up by shape (Lookup), wire them
// together by port or by template (Connect / ConnectQuery), and never
// touch a native protocol.
//
// Minimal use:
//
//	net := umiddle.NewEmulatedNetwork()
//	rt, _ := umiddle.NewRuntime(umiddle.RuntimeConfig{Node: "h1", Network: net})
//	defer rt.Close()
//	rt.AddUPnPMapper(umiddle.UPnPMapperConfig{})
//	... publish or discover devices ...
//	tvs := rt.Lookup(umiddle.QueryAccepting("image/jpeg", "visible/*"))
//	rt.ConnectQuery(cameraPort, umiddle.QueryAccepting("image/jpeg", ""))
//
// The package re-exports the core model types so applications need no
// internal imports.
package umiddle

import (
	"fmt"
	"log/slog"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/export"
	"repro/internal/mapper"
	"repro/internal/mappers/btmap"
	"repro/internal/mappers/mbmap"
	"repro/internal/mappers/motesmap"
	"repro/internal/mappers/rmimap"
	"repro/internal/mappers/upnpmap"
	"repro/internal/mappers/wsmap"
	"repro/internal/netemu"
	"repro/internal/obs"
	"repro/internal/platform/bluetooth"
	"repro/internal/qos"
	"repro/internal/runtime"
	"repro/internal/transport"
	"repro/internal/usdl"
	"repro/internal/wal"
)

// Re-exported model types: the intermediary semantic space.
type (
	// DataType is a port's type tag (MIME or perception/media pair).
	DataType = core.DataType
	// Port is one typed communication endpoint.
	Port = core.Port
	// Shape is a translator's full port set.
	Shape = core.Shape
	// Profile is a translator's advertised description.
	Profile = core.Profile
	// PortRef names one port of one translator.
	PortRef = core.PortRef
	// TranslatorID identifies a translator.
	TranslatorID = core.TranslatorID
	// Query selects translators by shape and metadata.
	Query = core.Query
	// PortTemplate is one shape requirement inside a Query.
	PortTemplate = core.PortTemplate
	// Message is the unit of communication between ports.
	Message = core.Message
	// Translator is the device-level bridge interface.
	Translator = core.Translator
	// PathID identifies an established message path.
	PathID = transport.PathID
	// PathState names a path's binding state (searching, bound,
	// failing-over, degraded).
	PathState = transport.PathState
	// PathInfo describes one path, including its binding state and
	// failover counters.
	PathInfo = transport.PathInfo
	// Health is a node's self-healing snapshot: supervised mapper
	// states, live peer nodes, and paths by binding state.
	Health = runtime.Health
	// MapperHealth is one supervised mapper's health entry.
	MapperHealth = runtime.MapperHealth
	// QoSClass bundles per-path buffering and rate-limit parameters.
	QoSClass = qos.Class
	// PathStats reports per-path delivery statistics, including the
	// fault-tolerance counters (Retries, Redials, Dropped).
	PathStats = transport.PathStats
	// TransportOptions tunes the node's transport module: dial and
	// delivery timeouts plus the Retry/Redial policies governing
	// fault-tolerant delivery.
	TransportOptions = transport.Options
	// RetryPolicy is an exponential-backoff-with-jitter retry budget.
	RetryPolicy = qos.RetryPolicy
	// MapperRecorder collects service-level bridging samples.
	MapperRecorder = mapper.Recorder
	// RemapRule mounts a remote node's translator namespace under a
	// local prefix at the directory boundary (DESIGN.md §11).
	RemapRule = directory.RemapRule
	// ACLRule admits or rejects directory advert ingress per boundary;
	// rules apply in order, first match wins, default allow.
	ACLRule = directory.ACLRule
	// ACLAction is an ACLRule verdict (ACLAllow or ACLDeny).
	ACLAction = directory.ACLAction
	// InterestSummary is a node's compiled interest set, as gossiped to
	// peers under interest filtering.
	InterestSummary = directory.InterestSummary
	// ZoneSummary is one zone of the federated directory namespace as a
	// node holds it (DESIGN.md §12).
	ZoneSummary = directory.ZoneSummary
	// Topology declares a segmented network: link name to member hosts.
	Topology = netemu.Topology
	// ObsRegistry is the metrics and event-trace registry; share one
	// across runtimes to aggregate a deployment on a single endpoint.
	ObsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time copy of every metric series.
	MetricsSnapshot = obs.Snapshot
	// TraceEvent is one entry of the event-trace ring (translator
	// mapped/unmapped, path connect/disconnect, redial, drop, expiry).
	TraceEvent = obs.Event
	// HotConfig is the hot-reloadable runtime configuration document:
	// mapper enablement, transport retry policies, boundary rules, and
	// interest registrations, applied as deltas without dropping bound
	// paths (DESIGN.md §14).
	HotConfig = runtime.HotConfig
	// HotRetry is a HotConfig retry policy (delays in milliseconds).
	HotRetry = runtime.HotRetry
	// BoundaryConfig is a HotConfig remap/ACL rule section.
	BoundaryConfig = runtime.BoundaryConfig
	// LeasePolicy tunes liveness-lease derivation, including the grace
	// peers grant a cleanly restarting node (DESIGN.md §14).
	LeasePolicy = qos.LeasePolicy
	// WALStats reports the durability log's size, record counts, replay
	// and torn-tail statistics, and fsync cadence.
	WALStats = wal.Stats
	// ReplayStats summarizes a warm restart: the restart epoch and how
	// many locals, remotes, and node leases the log rebuilt.
	ReplayStats = directory.ReplayStats
)

// ParseHotConfig parses and validates a hot-reload config document.
var ParseHotConfig = runtime.ParseHotConfig

// NewObsRegistry creates an empty metrics registry, typically passed to
// several RuntimeConfigs so one /metrics endpoint covers all nodes.
func NewObsRegistry() *ObsRegistry { return obs.NewRegistry() }

// Re-exported enum values.
const (
	Digital  = core.Digital
	Physical = core.Physical
	Input    = core.Input
	Output   = core.Output
)

// Path binding states (see internal/transport and DESIGN.md §9).
const (
	PathSearching   = transport.PathSearching
	PathBound       = transport.PathBound
	PathFailingOver = transport.PathFailingOver
	PathDegraded    = transport.PathDegraded
)

// Boundary ACL verdicts.
const (
	ACLAllow = directory.Allow
	ACLDeny  = directory.Deny
)

// ErrDestinationLost is returned by deliveries on a static path whose
// destination translator has been unmapped (device removed or node
// down). Dynamic (ConnectQuery) paths fail over instead.
var ErrDestinationLost = transport.ErrDestinationLost

// QoS buffer overflow policies (see internal/qos).
const (
	// QoSBlock applies backpressure when a translation buffer is full.
	QoSBlock = qos.Block
	// QoSDropOldest discards the oldest buffered message.
	QoSDropOldest = qos.DropOldest
	// QoSDropNewest discards the incoming message.
	QoSDropNewest = qos.DropNewest
	// QoSLatestOnly keeps only the newest message.
	QoSLatestOnly = qos.LatestOnly
)

// Query constructors (paper Section 3.3's examples).
var (
	// QueryAccepting selects devices that accept a digital type and
	// optionally render it physically ("view this jpeg somewhere
	// visible").
	QueryAccepting = core.QueryAccepting
	// QueryProducing selects devices producing a digital type.
	QueryProducing = core.QueryProducing
	// NewMessage builds a typed message.
	NewMessage = core.NewMessage
	// NewShape builds a validated shape.
	NewShape = core.NewShape
)

// Network is an emulated network hosting uMiddle nodes and native
// devices.
type Network = netemu.Network

// NewEmulatedNetwork creates a network with the paper's 10 Mbps
// Ethernet characteristics.
func NewEmulatedNetwork() *Network {
	return netemu.NewNetwork(netemu.Ethernet10Mbps())
}

// NewEmulatedMesh creates a segmented network: each topology entry is a
// broadcast domain and only hosts sharing a link can exchange traffic.
// Nodes on several links relay directory adverts and forward deliver
// frames across segments (DESIGN.md §12). ChainTopology and
// StarTopology build common shapes.
func NewEmulatedMesh(topo Topology) (*Network, error) {
	return netemu.NewMesh(netemu.Ethernet10Mbps(), topo)
}

// Topology constructors for common mesh shapes.
var (
	// ChainTopology links the given hosts pairwise into a line.
	ChainTopology = netemu.ChainTopology
	// StarTopology gives each leaf a private link to the hub.
	StarTopology = netemu.StarTopology
)

// RuntimeConfig configures one uMiddle node.
type RuntimeConfig struct {
	// Node is the node name; it doubles as the emulated host name.
	Node string
	// Network is the emulated network; required.
	Network *Network
	// AnnounceInterval tunes directory advertisement (0 = default).
	AnnounceInterval time.Duration
	// Transport tunes the transport module (zero value = defaults):
	// timeouts and the Retry/Redial fault-tolerance policies.
	Transport TransportOptions
	// Logger receives diagnostics; nil disables logging.
	Logger *slog.Logger
	// Obs is the node's metrics registry; nil creates a private one.
	Obs *ObsRegistry
	// MapperRetry bounds the supervisor's restart backoff for panicked
	// mappers before a platform is declared degraded (zero = defaults).
	MapperRetry RetryPolicy
	// InterestFiltering enables interest-driven selective propagation:
	// the node gossips the interests its bindings and RegisterInterest
	// calls declare, integrates only matching remote profiles, and
	// peers stop shipping it the rest of the population (DESIGN.md §11).
	InterestFiltering bool
	// Remap mounts remote nodes' translator namespaces under local
	// prefixes (e.g. everything from node "k1" appearing as
	// "kitchen/..."); bindings through remapped names are translated
	// back at the boundary.
	Remap []RemapRule
	// ACL admits or rejects directory advert ingress per boundary
	// (first match wins, default allow) — the federation's first
	// security control.
	ACL []ACLRule
	// Zone names the directory namespace zone this node owns in a
	// federated mesh; empty selects the node name, which preserves the
	// flat single-zone-per-node namespace.
	Zone string
	// Links lists the network segments this node joins (created if
	// absent). With no links the node sits on the network-wide bus. A
	// node on several links automatically relays directory adverts and
	// forwards deliver frames between its segments.
	Links []string
	// PersistPath names a durability log on the node's emulated disk
	// (netemu per-host non-volatile storage). When set, the directory
	// journals its state and replays it at construction: after
	// CloseForRestart and a RestartNode, the node rejoins warm — local
	// profiles resolvable, remote population and version vector intact —
	// instead of rediscovering from scratch. Empty disables persistence.
	PersistPath string
	// Lease tunes liveness-lease derivation, including the restart
	// grace peers grant on a clean "restarting" farewell (zero fields
	// take defaults).
	Lease LeasePolicy
	// ConfigPath names a hot-reload JSON document on the local
	// filesystem; when set it is applied at startup and watched for
	// changes (see HotConfig). Empty disables watching.
	ConfigPath string
	// ConfigPoll is the watch interval for ConfigPath (0 = 1s).
	ConfigPoll time.Duration
}

// Runtime is one uMiddle node.
type Runtime struct {
	rt   *runtime.Runtime
	host *netemu.Host
	wal  *wal.Log
}

// NewRuntime creates and starts a runtime node.
func NewRuntime(cfg RuntimeConfig) (*Runtime, error) {
	if cfg.Network == nil {
		return nil, fmt.Errorf("umiddle: RuntimeConfig.Network is required")
	}
	host := cfg.Network.Host(cfg.Node)
	if host == nil {
		var err error
		host, err = cfg.Network.AddHost(cfg.Node)
		if err != nil {
			return nil, err
		}
	}
	for _, link := range cfg.Links {
		if err := cfg.Network.JoinLink(cfg.Node, link); err != nil {
			return nil, err
		}
	}
	// A node on several segments is a bridge: it relays adverts (and
	// forwards routed deliver frames) between them.
	relay := len(cfg.Network.HostLinks(cfg.Node)) > 1
	var dlog *wal.Log
	if cfg.PersistPath != "" {
		f := cfg.Network.Disk(cfg.Node).Open(cfg.PersistPath)
		var err error
		dlog, err = wal.OpenFile(f, cfg.Node+":"+cfg.PersistPath)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("umiddle: open durability log: %w", err)
		}
	}
	rt, err := runtime.New(runtime.Config{
		Node: cfg.Node,
		Host: host,
		Directory: directory.Options{
			AnnounceInterval: cfg.AnnounceInterval,
			Interest:         cfg.InterestFiltering,
			Remap:            cfg.Remap,
			ACL:              cfg.ACL,
			Zone:             cfg.Zone,
			Relay:            relay,
			WAL:              dlog,
			Lease:            cfg.Lease,
		},
		Transport:   cfg.Transport,
		Logger:      cfg.Logger,
		Obs:         cfg.Obs,
		MapperRetry: cfg.MapperRetry,
	})
	if err != nil {
		if dlog != nil {
			dlog.Close()
		}
		return nil, err
	}
	if err := rt.Start(); err != nil {
		rt.Close() //nolint:errcheck
		if dlog != nil {
			dlog.Close()
		}
		return nil, err
	}
	r := &Runtime{rt: rt, host: host, wal: dlog}
	if cfg.ConfigPath != "" {
		if err := rt.WatchConfig(cfg.ConfigPath, cfg.ConfigPoll); err != nil {
			r.Close() //nolint:errcheck
			return nil, err
		}
	}
	return r, nil
}

// Close shuts the node down.
func (r *Runtime) Close() error { return r.closeWith(r.rt.Close) }

// CloseForRestart shuts the node down for a planned restart: the
// directory snapshots its durability log and bids peers a "restarting"
// farewell, so they hold its entries under the restart grace instead of
// expiring them. Pair with netemu's RestartNode and a NewRuntime over
// the same PersistPath to rejoin warm in milliseconds.
func (r *Runtime) CloseForRestart() error { return r.closeWith(r.rt.CloseForRestart) }

func (r *Runtime) closeWith(fn func() error) error {
	err := fn()
	if r.wal != nil {
		if werr := r.wal.Close(); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// RestartEpoch returns the directory's restart epoch: 0 without durable
// state, 1 on a fresh log, incremented by each warm replay. Peers use
// epoch bumps to tell a returned restart from a reordered advert.
func (r *Runtime) RestartEpoch() uint64 { return r.rt.Directory().Epoch() }

// ReplayedState summarizes what the durability log rebuilt at startup;
// zero values mean a cold start.
func (r *Runtime) ReplayedState() ReplayStats { return r.rt.Directory().ReplayedState() }

// PersistStats reports the durability log's size, record counts, and
// fsync cadence; ok is false when the node runs without persistence.
func (r *Runtime) PersistStats() (stats WALStats, ok bool) {
	return r.rt.Directory().PersistStats()
}

// ApplyConfig applies a hot-reload document to the live node — the
// programmatic twin of ConfigPath. Bound paths survive every section.
func (r *Runtime) ApplyConfig(hc *HotConfig) error { return r.rt.ApplyConfig(hc) }

// SetMapperEnabled toggles a supervised mapper administratively.
// Disabling closes the incarnation and unmaps its translators;
// re-enabling mints a fresh one from the mapper's factory.
func (r *Runtime) SetMapperEnabled(platform string, enabled bool) error {
	return r.rt.SetMapperEnabled(platform, enabled)
}

// SetBoundary replaces the directory's remap and ACL rule sets at
// runtime. Already-integrated entries keep their stored wire identity,
// so bound paths survive the swap; invalid rules are rejected with no
// change.
func (r *Runtime) SetBoundary(remap []RemapRule, acl []ACLRule) error {
	return r.rt.Directory().SetBoundary(remap, acl)
}

// Node returns the node name.
func (r *Runtime) Node() string { return r.rt.Node() }

// Host returns the node's network endpoint.
func (r *Runtime) Host() *netemu.Host { return r.host }

// Internal returns the underlying runtime for advanced use (Pads and G2
// attach here).
func (r *Runtime) Internal() *runtime.Runtime { return r.rt }

// Lookup returns profiles of translators matching the query — the
// directory API of paper Figure 6-(1). The slice is the caller's, but
// the profiles in it are shared with the directory and read-only: never
// write their Attributes or ports; Clone a profile before mutating it.
func (r *Runtime) Lookup(q Query) []Profile { return r.rt.Lookup(q) }

// WaitFor polls Lookup until at least n profiles match or the timeout
// expires; it returns the matches found, read-only as with Lookup.
func (r *Runtime) WaitFor(q Query, n int, timeout time.Duration) ([]Profile, error) {
	deadline := time.Now().Add(timeout)
	for {
		got := r.rt.Lookup(q)
		if len(got) >= n {
			return got, nil
		}
		if time.Now().After(deadline) {
			return got, fmt.Errorf("umiddle: %v matched %d translators, want %d", q, len(got), n)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// OnMapped registers a callback for translator arrivals — the listener
// API of paper Figure 6-(2). The callback immediately replays currently
// known translators.
func (r *Runtime) OnMapped(fn func(Profile)) {
	r.rt.Directory().AddListener(directory.ListenerFuncs{Mapped: fn})
}

// OnUnmapped registers a callback for translator departures.
func (r *Runtime) OnUnmapped(fn func(TranslatorID)) {
	r.rt.Directory().AddListener(directory.ListenerFuncs{Unmapped: fn})
}

// RegisterInterest declares a standing interest in translators matching
// the query, returning a cancel function. Bindings declare their own
// interests automatically; use this for populations an application
// plans to Lookup without connecting yet. Only meaningful with
// RuntimeConfig.InterestFiltering (without it the node hears everything
// anyway, and the registration only shapes what peers may filter).
func (r *Runtime) RegisterInterest(q Query) func() {
	return r.rt.Directory().RegisterInterest(q)
}

// InterestSummary returns the node's current compiled interest summary.
func (r *Runtime) InterestSummary() *InterestSummary {
	return r.rt.Directory().InterestSummary()
}

// Zone returns the directory namespace zone this node owns.
func (r *Runtime) Zone() string { return r.rt.Directory().Zone() }

// Zones summarizes the federated directory namespace as this node holds
// it: its own zone authoritatively plus one digest-refreshed summary
// per live peer, each with the relay path its adverts travel.
func (r *Runtime) Zones() []ZoneSummary { return r.rt.Directory().Zones() }

// Connect establishes a path between two specific ports — paper Figure
// 7-(1).
func (r *Runtime) Connect(src, dst PortRef) (PathID, error) { return r.rt.Connect(src, dst) }

// ConnectQuery establishes a dynamic path from a port to every matching
// device — paper Figure 7-(2).
func (r *Runtime) ConnectQuery(src PortRef, q Query) (PathID, error) {
	return r.rt.ConnectQuery(src, q)
}

// ConnectClass is Connect with an explicit QoS class (bounded
// translation buffer, overflow policy, rate limits).
func (r *Runtime) ConnectClass(src, dst PortRef, class QoSClass) (PathID, error) {
	return r.rt.Transport().ConnectClass(src, dst, class)
}

// ConnectQueryClass is ConnectQuery with an explicit QoS class.
func (r *Runtime) ConnectQueryClass(src PortRef, q Query, class QoSClass) (PathID, error) {
	return r.rt.Transport().ConnectQueryClass(src, q, class)
}

// Disconnect tears a path down.
func (r *Runtime) Disconnect(id PathID) error { return r.rt.Disconnect(id) }

// PathStats returns delivery statistics for a path hosted on this node.
func (r *Runtime) PathStats(id PathID) (transport.PathStats, bool) {
	return r.rt.Transport().PathStats(id)
}

// Obs returns the node's metrics registry (RuntimeConfig.Obs, or the
// private registry created when none was supplied).
func (r *Runtime) Obs() *ObsRegistry { return r.rt.Obs() }

// MetricsSnapshot returns a point-in-time copy of every metric series
// the node's modules maintain: directory advert counters, transport
// delivery counters and latency histograms, mapper mapping latencies.
func (r *Runtime) MetricsSnapshot() MetricsSnapshot { return r.rt.Obs().Snapshot() }

// TraceEvents returns the node's recent state transitions, oldest
// first: translator mapped/unmapped, path connect/disconnect, redial,
// drop, expiry, node up/down, mapper panic/restart, failover.
func (r *Runtime) TraceEvents() []TraceEvent { return r.rt.Obs().Trace().Events() }

// Health returns the node's self-healing snapshot: supervised mapper
// states, remote nodes holding a liveness lease, and every local path
// with its binding state (the pads `health` command renders this).
func (r *Runtime) Health() Health { return r.rt.Health() }

// Register maps a native uMiddle service: a translator implemented
// directly against the intermediary space. Use NewService to build one.
func (r *Runtime) Register(tr Translator) error { return r.rt.Register(tr) }

// Unregister unmaps a translator hosted on this node.
func (r *Runtime) Unregister(id TranslatorID) error {
	return r.rt.RemoveTranslator(id)
}

// UPnPMapperConfig tunes the UPnP mapper.
type UPnPMapperConfig struct {
	SearchInterval time.Duration
	Recorder       *MapperRecorder
}

// AddUPnPMapper attaches a supervised UPnP mapper to the node: a panic
// in the mapper restarts it from a fresh instance under the node's
// MapperRetry budget.
func (r *Runtime) AddUPnPMapper(cfg UPnPMapperConfig) error {
	return r.rt.AddMapperFunc(upnpmap.Platform, func() (mapper.Mapper, error) {
		return upnpmap.New(r.host, upnpmap.Options{
			SearchInterval: cfg.SearchInterval,
			Recorder:       cfg.Recorder,
		}), nil
	})
}

// BluetoothMapperConfig tunes the Bluetooth mapper.
type BluetoothMapperConfig struct {
	InquiryInterval time.Duration
	InquiryWindow   time.Duration
	Recorder        *MapperRecorder
}

// AddBluetoothMapper attaches a supervised Bluetooth mapper; it powers
// an adapter on the node's host. The adapter is the radio: it outlives
// mapper incarnations, so supervisor restarts reuse it.
func (r *Runtime) AddBluetoothMapper(cfg BluetoothMapperConfig) error {
	adapter, err := bluetooth.NewAdapter(r.host, r.Node()+"-bt", bluetooth.AdapterOptions{})
	if err != nil {
		return err
	}
	return r.rt.AddMapperFunc(btmap.Platform, func() (mapper.Mapper, error) {
		return btmap.New(adapter, btmap.Options{
			InquiryInterval: cfg.InquiryInterval,
			InquiryWindow:   cfg.InquiryWindow,
			Recorder:        cfg.Recorder,
		}), nil
	})
}

// RMIMapperConfig tunes the RMI mapper.
type RMIMapperConfig struct {
	RegistryHost string
	PollInterval time.Duration
	Recorder     *MapperRecorder
}

// AddRMIMapper attaches a supervised RMI mapper watching the given
// registry.
func (r *Runtime) AddRMIMapper(cfg RMIMapperConfig) error {
	return r.rt.AddMapperFunc(rmimap.Platform, func() (mapper.Mapper, error) {
		return rmimap.New(r.host, rmimap.Options{
			RegistryHost: cfg.RegistryHost,
			PollInterval: cfg.PollInterval,
			Recorder:     cfg.Recorder,
		}), nil
	})
}

// MediaBrokerMapperConfig tunes the MediaBroker mapper.
type MediaBrokerMapperConfig struct {
	BrokerHost   string
	PollInterval time.Duration
	Recorder     *MapperRecorder
}

// AddMediaBrokerMapper attaches a supervised MediaBroker mapper
// watching the given broker.
func (r *Runtime) AddMediaBrokerMapper(cfg MediaBrokerMapperConfig) error {
	return r.rt.AddMapperFunc(mbmap.Platform, func() (mapper.Mapper, error) {
		return mbmap.New(r.host, mbmap.Options{
			BrokerHost:   cfg.BrokerHost,
			PollInterval: cfg.PollInterval,
			Recorder:     cfg.Recorder,
		}), nil
	})
}

// MotesMapperConfig tunes the Motes mapper.
type MotesMapperConfig struct {
	LivenessWindow time.Duration
	Recorder       *MapperRecorder
}

// AddMotesMapper attaches a supervised Motes mapper; the node hosts the
// sensor network's base station.
func (r *Runtime) AddMotesMapper(cfg MotesMapperConfig) error {
	return r.rt.AddMapperFunc(motesmap.Platform, func() (mapper.Mapper, error) {
		return motesmap.New(r.host, motesmap.Options{
			LivenessWindow: cfg.LivenessWindow,
			Recorder:       cfg.Recorder,
		}), nil
	})
}

// WebServiceMapperConfig tunes the web-services mapper.
type WebServiceMapperConfig struct {
	BaseURLs     []string
	PollInterval time.Duration
	Recorder     *MapperRecorder
}

// AddWebServiceMapper attaches a supervised web-services mapper
// watching the given hosts.
func (r *Runtime) AddWebServiceMapper(cfg WebServiceMapperConfig) error {
	return r.rt.AddMapperFunc(wsmap.Platform, func() (mapper.Mapper, error) {
		return wsmap.New(r.host, wsmap.Options{
			BaseURLs:     cfg.BaseURLs,
			PollInterval: cfg.PollInterval,
			Recorder:     cfg.Recorder,
		}), nil
	})
}

// LoadUSDL registers an additional USDL document (XML text) with the
// node's registry, extending the device vocabulary at runtime — the
// paper's first extensibility dimension.
func (r *Runtime) LoadUSDL(xmlText string) error {
	return r.rt.USDL().AddString(xmlText)
}

// USDLServices returns the registered USDL service definitions.
func (r *Runtime) USDLServices() []usdl.Service { return r.rt.USDL().Services() }

// ExportUPnP projects a translator back out as a native UPnP device —
// scattered visibility (the paper's design choice 2-a) as an opt-in
// extension. hostName is the emulated host the projection is published
// on (created if absent); port 0 selects the default device port. Stock
// UPnP control points can then discover and drive the device.
func (r *Runtime) ExportUPnP(id TranslatorID, hostName string, port int) (*export.UPnPExport, error) {
	net := r.host.Network()
	host := net.Host(hostName)
	if host == nil {
		var err error
		host, err = net.AddHost(hostName)
		if err != nil {
			return nil, err
		}
	}
	return export.ExportUPnP(r.rt, id, host, port)
}
