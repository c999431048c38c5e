// Package transport implements uMiddle's transport module: it "serves to
// allow communication among translators situated in different nodes"
// (paper Section 3.2) and provides the dynamic device binding mechanism
// of Section 3.5 — connections between translators established either by
// specific port instance or by a template shape evaluated adaptively as
// translators appear and disappear (paper Figure 7 APIs).
//
// Every message path owns a translation buffer with a QoS class (bounded
// capacity, overflow policy, optional rate limits) — the QoS control the
// paper's Section 5.3 calls for.
package transport

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netemu"
	"repro/internal/obs"
	"repro/internal/qos"
)

// DefaultPort is the inter-node transport port.
const DefaultPort = 7788

// Errors returned by the transport module.
var (
	// ErrPathNotFound is returned when disconnecting an unknown path.
	ErrPathNotFound = errors.New("transport: path not found")
	// ErrIncompatible is returned when connecting ports whose data types
	// cannot interoperate.
	ErrIncompatible = errors.New("transport: incompatible port types")
	// ErrClosed is returned when using a closed module.
	ErrClosed = errors.New("transport: closed")
	// ErrDestinationLost is returned when a static path's destination
	// translator has been unmapped (device removed or its node down):
	// deliveries fail with this typed error instead of draining the retry
	// budget into network attempts against a corpse.
	ErrDestinationLost = errors.New("transport: destination lost")
)

// PathState names a path's binding state — the state machine DESIGN.md §9
// documents: searching → bound → failing-over → degraded.
type PathState string

// Path binding states.
const (
	// PathSearching: a dynamic path with no binding yet (no compatible
	// candidate has appeared).
	PathSearching PathState = "searching"
	// PathBound: at least one live destination (static paths whose
	// destination is mapped are always bound).
	PathBound PathState = "bound"
	// PathFailingOver: a dynamic path that lost its bound destinations
	// and is re-running its query for a replacement.
	PathFailingOver PathState = "failing-over"
	// PathDegraded: a static path whose destination is unmapped, or a
	// dynamic path that dropped a message because no candidate appeared
	// within the retry budget. Cleared when the destination (or any
	// compatible candidate) is mapped again.
	PathDegraded PathState = "degraded"
)

// PathID identifies a message path; the prefix before '#' names the node
// hosting the path (always the node of the source translator).
type PathID string

// node returns the hosting node of the path.
func (id PathID) node() string {
	if i := strings.IndexByte(string(id), '#'); i >= 0 {
		return string(id)[:i]
	}
	return ""
}

// PathStats reports per-path activity. The values are a point-in-time
// view over the module's obs registry: the same numbers appear as
// umiddle_transport_path_*_total series on /metrics.
type PathStats struct {
	// Delivered counts messages successfully delivered to all current
	// destinations.
	Delivered uint64
	// Bytes counts payload bytes delivered.
	Bytes uint64
	// Errors counts deliveries that failed after exhausting retries.
	Errors uint64
	// Retries counts delivery attempts beyond the first (each retried
	// message contributes one per extra attempt).
	Retries uint64
	// Redials counts peer connections re-established while delivering
	// on this path — a dropped link that recovered.
	Redials uint64
	// Dropped counts messages abandoned for a destination after the
	// retry budget was exhausted.
	Dropped uint64
	// Failovers counts bound destinations lost (unmapped, node down, or
	// retry-exhausted) that triggered a query re-run on this path.
	Failovers uint64
	// Buffer reports translation-buffer statistics.
	Buffer qos.BufferStats
	// Bound is the number of currently bound destinations.
	Bound int
}

// PathInfo describes a path for inspection (Pads renders these).
type PathInfo struct {
	ID    PathID
	Src   core.PortRef
	Dst   *core.PortRef // static destination, nil for dynamic paths
	Query *core.Query   // dynamic template, nil for static paths
	Bound []core.PortRef
	Class qos.Class
	State PathState
	Stats PathStats
}

// pathMetrics holds one path's registry series, resolved once at path
// creation so the delivery hot path never takes the registry lock.
type pathMetrics struct {
	delivered *obs.Counter
	bytes     *obs.Counter
	errors    *obs.Counter
	retries   *obs.Counter
	redials   *obs.Counter
	dropped   *obs.Counter
	failovers *obs.Counter
	latency   *obs.Histogram
}

// path is one message path hosted by this node.
type path struct {
	id      PathID
	src     core.PortRef
	srcType core.DataType
	static  *core.PortRef
	query   *core.Query
	class   qos.Class
	buf     *qos.Buffer[core.Message]
	bytesRL *qos.RateLimiter
	msgRL   *qos.RateLimiter
	met     pathMetrics
	// stripe pins this path's outbound frames to one striped write
	// connection per destination node (round-robin assigned at path
	// creation), sharding the group-commit leader across paths while
	// keeping any one path's frames on a single ordered stream.
	stripe uint64
	// skNode, skKey and fcCache pin the established connection to the
	// path's last destination node and its peer-map key, so the steady
	// state skips the module-mutex peer lookup, the stripe-key
	// concatenation (a per-message allocation on every striped path)
	// and the redial bookkeeping; a failed write invalidates fcCache and
	// the next attempt does the full lookup. Touched only by the path's
	// worker goroutine (deliver runs there).
	skNode  string
	skKey   string
	fcCache *frameConn
	// interestCancel withdraws the directory interest this path
	// registered (its query, or its static destination); nil when the
	// path registered none.
	interestCancel func()

	mu      sync.Mutex
	bound   map[core.TranslatorID]core.PortRef
	dstSnap []core.PortRef // cached destinations() snapshot; nil = rebuild
	seq     uint64
	peerGen map[string]uint64 // last peer-connection generation seen per node
	// lostAt stamps when a dynamic path lost its last bound destination;
	// zero while bound (or never bound). The failover latency histogram
	// observes lostAt → first rebind.
	lostAt time.Time
	// degraded marks a static path whose destination is unmapped, or a
	// dynamic path that dropped a message with no candidate in sight.
	degraded bool
}

// state derives the binding state from the path's current fields.
func (p *path) state() PathState {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.static != nil {
		if p.degraded {
			return PathDegraded
		}
		return PathBound
	}
	switch {
	case len(p.bound) > 0:
		return PathBound
	case p.degraded:
		return PathDegraded
	case !p.lostAt.IsZero():
		return PathFailingOver
	default:
		return PathSearching
	}
}

// failingOver reports whether a dynamic path has lost destinations it
// once had (as opposed to never having bound any).
func (p *path) failingOver() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.query != nil && (!p.lostAt.IsZero() || p.degraded)
}

// notePeerGen records the connection generation used to reach a node; a
// generation bump means the connection was re-established since this
// path last delivered there.
func (p *path) notePeerGen(node string, gen uint64) {
	p.mu.Lock()
	var bumps uint64
	if prev, ok := p.peerGen[node]; ok && gen > prev {
		bumps = gen - prev
	}
	p.peerGen[node] = gen
	p.mu.Unlock()
	if bumps > 0 {
		p.met.redials.Add(bumps)
	}
}

// destinations returns the path's current destination set as a shared
// immutable snapshot: rebuilt only when the bound set changes (tryBind,
// failDestination invalidate it), not per call — the path worker calls
// this once per message. Callers must not mutate the returned slice.
func (p *path) destinations() []core.PortRef {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dstSnap == nil {
		if p.static != nil {
			p.dstSnap = []core.PortRef{*p.static}
		} else {
			out := make([]core.PortRef, 0, len(p.bound))
			for _, ref := range p.bound {
				out = append(out, ref)
			}
			p.dstSnap = out
		}
	}
	return p.dstSnap
}

// Options configures a Module.
type Options struct {
	// Port overrides DefaultPort.
	Port int
	// DeliverTimeout bounds one delivery attempt (default 10s).
	DeliverTimeout time.Duration
	// DialTimeout bounds one peer connection attempt, and how long a
	// delivery waits for an in-progress redial cycle (default 5s).
	DialTimeout time.Duration
	// Retry bounds per-message delivery retries: a failed delivery is
	// reattempted with exponential backoff until the policy is
	// exhausted, then the message is dropped for that destination and
	// counted in PathStats.Dropped.
	Retry qos.RetryPolicy
	// Redial bounds one peer reconnection cycle: after a connection
	// drops, the module redials with exponential backoff and jitter.
	// When a cycle exhausts, waiting deliveries fail (and consume one
	// Retry attempt); a later delivery starts a fresh cycle.
	Redial qos.RetryPolicy
	// RelayTTL bounds the hops a deliver frame may be forwarded through
	// when the destination shares no link and the directory supplies a
	// relay route (default 8).
	RelayTTL int
	// WriteShards sets how many striped connections this module opens
	// toward each peer node (default: GOMAXPROCS, capped at 16). Each
	// outbound path is pinned to one stripe, so per-path frame order is
	// preserved while the group-commit leader — a single convoy point
	// per connection — is sharded across stripes and cores. Stripe 0
	// doubles as the control-frame connection.
	WriteShards int
	// DisablePathMetrics makes every path share one aggregate set of
	// registry series instead of resolving eight per-path series. At
	// load-harness scale (100k+ concurrent paths) per-path cardinality
	// would swamp the registry; with this set, PathStats reports
	// module-wide aggregates rather than per-path numbers.
	DisablePathMetrics bool
	// Logger receives diagnostics; nil disables logging.
	Logger *slog.Logger
	// Obs receives metrics and trace events. When nil the module keeps a
	// private registry so PathStats always has live counters behind it.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Port <= 0 {
		o.Port = DefaultPort
	}
	if o.DeliverTimeout <= 0 {
		o.DeliverTimeout = 10 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.RelayTTL <= 0 {
		o.RelayTTL = 8
	}
	if o.WriteShards <= 0 {
		o.WriteShards = runtime.GOMAXPROCS(0)
	}
	if o.WriteShards > 16 {
		o.WriteShards = 16
	}
	o.Retry = o.Retry.WithDefaults()
	o.Redial = o.Redial.WithDefaults()
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry()
	}
	return o
}

// peer is the connection state for one remote node. The connection is
// re-established by a background redial cycle with exponential backoff;
// deliveries wait for the cycle in progress (up to DialTimeout) instead
// of failing outright the moment a link drops.
type peer struct {
	node string

	mu      sync.Mutex
	fc      *frameConn    // current connection; nil while down
	gen     uint64        // count of successful (re)connections
	ready   chan struct{} // closed when the current dial cycle resolves
	dialing bool          // a redial cycle is in progress
	lastErr error         // why the last cycle gave up
}

// closedChan is a pre-closed channel for peers in a resolved state.
var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()

// Module is the transport module of one uMiddle runtime. It implements
// core.Sink: the runtime binds every local translator's emissions to it.
//
// Lock order: a path's mu before the module's mu. tryBind, failDestination
// and removeLocalPath edit a path's bound set and the byID index in one
// path-mu section; nothing takes a path's mu while holding the module's.
type Module struct {
	node string
	host *netemu.Host
	dir  *directory.Directory
	opts Options

	// Module-wide metric handles (per-path handles live on each path).
	latency     *obs.Histogram // aggregate delivery latency across paths
	queueDepth  *obs.Gauge     // inbound deliveries dispatched, not yet handled
	failovers   *obs.Counter   // destinations lost across all dynamic paths
	failoverLat *obs.Histogram // destination lost → path rebound latency
	trace       *obs.Trace
	codecMet    *connMetrics // pool hit rate + write batch sizes

	// Relay metric handles and state (multi-hop forwarding, relay.go).
	relayed        *obs.Counter
	relayedBytes   *obs.Counter
	relayDupDrop   *obs.Counter
	relayTTLDrop   *obs.Counter
	relayRouteFail *obs.Counter
	relayID        atomic.Uint64 // per-origin frame ids for relay dedup

	// dispatch fans inbound deliveries out per destination port.
	dispatch *dispatcher
	// quar is the tracked-ownership quarantine ring (ownership.go).
	quar       *quarantine
	violations *obs.Counter
	// sharedPathMet is the single aggregate metric set every path uses
	// when DisablePathMetrics is set; nil otherwise.
	sharedPathMet *pathMetrics

	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	listener *netemu.Listener
	peers    map[string]*peer
	conns    map[*frameConn]struct{} // every connection with a live read loop
	paths    map[PathID]*path
	bySrc    map[core.PortRef][]*path
	// byID and byType are the directory-event fan-out indexes: an event
	// visits only the paths they list for its translators, not the whole
	// table. byID lists a path once under each distinct translator it
	// involves: its source, its static destination, every destination it
	// has bound. byType lists dynamic paths under their query's
	// DeviceType, an exact-match criterion ("" holds the queries that
	// name none). Readers copy what they need out under mu.
	byID    map[core.TranslatorID]*pathList
	byType  map[string]*pathList
	pending map[uint64]chan frame
	// policies holds the live retry/redial policies. They start as
	// Options.Retry/Redial and can be replaced atomically at runtime
	// (SetRetryPolicies, the hot-reload path) without touching any bound
	// path: delivery and redial loops load the pointer per cycle.
	policies atomic.Pointer[retryPolicies]
	// relaySeen holds one duplicate-suppression window per origin whose
	// frames we forward (guarded by mu like the other maps).
	relaySeen map[string]*relayWindow
	nextPath  uint64
	nextReq   uint64
	started   bool
	closed    bool
	wg        sync.WaitGroup
}

var _ core.Sink = (*Module)(nil)

// retryPolicies bundles the two backoff policies so a hot reload swaps
// both in one atomic pointer store.
type retryPolicies struct {
	Retry  qos.RetryPolicy
	Redial qos.RetryPolicy
}

// RetryPolicies returns the policies currently in force.
func (m *Module) RetryPolicies() (retry, redial qos.RetryPolicy) {
	p := m.policies.Load()
	return p.Retry, p.Redial
}

// SetRetryPolicies replaces the delivery-retry and peer-redial policies
// at runtime. In-flight retry and redial cycles finish under the policy
// they started with; the next cycle picks up the new one. Bound paths,
// connections, and queued messages are untouched — this is the
// hot-reload contract: tuning backoff must never drop a path.
func (m *Module) SetRetryPolicies(retry, redial qos.RetryPolicy) {
	m.policies.Store(&retryPolicies{
		Retry:  retry.WithDefaults(),
		Redial: redial.WithDefaults(),
	})
	m.trace.Event("retry_policies_updated", m.node, "")
}

// New creates a transport module. host may be nil for a standalone
// single-node module (local paths only).
func New(node string, host *netemu.Host, dir *directory.Directory, opts Options) *Module {
	ctx, cancel := context.WithCancel(context.Background())
	m := &Module{
		node:      node,
		host:      host,
		dir:       dir,
		opts:      opts.withDefaults(),
		ctx:       ctx,
		cancel:    cancel,
		peers:     make(map[string]*peer),
		conns:     make(map[*frameConn]struct{}),
		paths:     make(map[PathID]*path),
		bySrc:     make(map[core.PortRef][]*path),
		byID:      make(map[core.TranslatorID]*pathList),
		byType:    make(map[string]*pathList),
		pending:   make(map[uint64]chan frame),
		relaySeen: make(map[string]*relayWindow),
	}
	// Seed relay ids from the clock so a restarted node's ids land above
	// anything its previous incarnation left in peer dedup windows.
	m.relayID.Store(uint64(time.Now().UnixNano()))
	m.policies.Store(&retryPolicies{Retry: m.opts.Retry, Redial: m.opts.Redial})
	reg := m.opts.Obs
	reg.Describe("umiddle_transport_delivery_latency_seconds", "End-to-end delivery latency per message destination.")
	reg.Describe("umiddle_transport_delivery_queue_depth", "Inbound deliveries dispatched off read loops but not yet handed to a translator.")
	reg.Describe("umiddle_transport_path_delivered_total", "Messages successfully delivered per path.")
	reg.Describe("umiddle_transport_path_bytes_total", "Payload bytes delivered per path.")
	reg.Describe("umiddle_transport_path_errors_total", "Deliveries failed after exhausting retries per path.")
	reg.Describe("umiddle_transport_path_retries_total", "Delivery attempts beyond the first per path.")
	reg.Describe("umiddle_transport_path_redials_total", "Peer connections re-established while delivering per path.")
	reg.Describe("umiddle_transport_path_dropped_total", "Messages abandoned after the retry budget per path.")
	reg.Describe("umiddle_transport_path_failovers_total", "Bound destinations lost that triggered a query re-run per path.")
	reg.Describe("umiddle_transport_failovers_total", "Bound destinations lost across all dynamic paths.")
	reg.Describe("umiddle_transport_failover_latency_seconds", "Destination lost to path rebound latency.")
	reg.Describe("umiddle_transport_frame_pool_gets_total", "Pooled frame-buffer requests (hit rate = 1 - misses/gets).")
	reg.Describe("umiddle_transport_frame_pool_misses_total", "Pooled frame-buffer requests that fell through to a fresh allocation.")
	reg.Describe("umiddle_transport_write_batch_frames", "Deliver frames coalesced into each connection write.")
	reg.Describe("umiddle_transport_frames_relayed_total", "Deliver frames forwarded toward their next hop on behalf of other nodes.")
	reg.Describe("umiddle_transport_relay_bytes_total", "Payload bytes of forwarded deliver frames.")
	reg.Describe("umiddle_transport_relay_dup_dropped_total", "Relayed deliver frames dropped as duplicates of an already-forwarded (origin, id).")
	reg.Describe("umiddle_transport_relay_ttl_dropped_total", "Relayed deliver frames dropped with an exhausted hop budget.")
	reg.Describe("umiddle_transport_relay_route_failed_total", "Relayed deliver frames dropped because the next hop was unreachable.")
	reg.Describe("umiddle_transport_ownership_violations_total", "Delivered payload buffers found mutated after Deliver returned (tracked zero-copy contract violations).")
	// Resolved eagerly so /metrics shows the latency family (and the
	// queue-depth gauge) even before the first message flows.
	labels := obs.Labels{"node": node}
	m.latency = reg.Histogram("umiddle_transport_delivery_latency_seconds", labels, nil)
	m.queueDepth = reg.Gauge("umiddle_transport_delivery_queue_depth", labels)
	m.failovers = reg.Counter("umiddle_transport_failovers_total", labels)
	m.failoverLat = reg.Histogram("umiddle_transport_failover_latency_seconds", labels, nil)
	m.trace = reg.Trace()
	m.relayed = reg.Counter("umiddle_transport_frames_relayed_total", labels)
	m.relayedBytes = reg.Counter("umiddle_transport_relay_bytes_total", labels)
	m.relayDupDrop = reg.Counter("umiddle_transport_relay_dup_dropped_total", labels)
	m.relayTTLDrop = reg.Counter("umiddle_transport_relay_ttl_dropped_total", labels)
	m.relayRouteFail = reg.Counter("umiddle_transport_relay_route_failed_total", labels)
	m.codecMet = &connMetrics{
		poolGets:   reg.Counter("umiddle_transport_frame_pool_gets_total", labels),
		poolMisses: reg.Counter("umiddle_transport_frame_pool_misses_total", labels),
		batchFrames: reg.Histogram("umiddle_transport_write_batch_frames", labels,
			[]float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}),
	}
	m.violations = reg.Counter("umiddle_transport_ownership_violations_total", labels)
	m.quar = newQuarantine(node, m.violations, m.trace)
	if m.opts.DisablePathMetrics {
		met := m.newPathMetricsFor(PathID("_aggregate"))
		m.sharedPathMet = &met
	}
	m.dispatch = newDispatcher(m)
	return m
}

// Node returns the owning runtime's node name.
func (m *Module) Node() string { return m.node }

// Obs returns the module's metrics registry (the one from Options.Obs,
// or the private registry created when none was supplied).
func (m *Module) Obs() *obs.Registry { return m.opts.Obs }

// Start begins accepting inter-node connections and watching the
// directory for dynamic-binding updates.
func (m *Module) Start() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if m.started {
		m.mu.Unlock()
		return nil
	}
	m.started = true
	m.mu.Unlock()

	m.dir.AddListener(dirListener{m})

	if m.host == nil {
		return nil
	}
	l, err := m.host.Listen(m.opts.Port)
	if err != nil {
		return fmt.Errorf("transport: listen: %w", err)
	}
	m.mu.Lock()
	m.listener = l
	m.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.acceptLoop(l)
	}()
	return nil
}

// Close shuts the module down: paths, peers, listener.
func (m *Module) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	listener := m.listener
	peers := m.peers
	m.peers = make(map[string]*peer)
	conns := make([]*frameConn, 0, len(m.conns))
	for fc := range m.conns {
		conns = append(conns, fc)
	}
	m.conns = make(map[*frameConn]struct{})
	paths := m.paths
	m.paths = make(map[PathID]*path)
	m.bySrc = make(map[core.PortRef][]*path)
	m.byID = make(map[core.TranslatorID]*pathList)
	m.byType = make(map[string]*pathList)
	m.mu.Unlock()

	m.cancel()
	if listener != nil {
		listener.Close()
	}
	for _, p := range peers {
		p.mu.Lock()
		fc := p.fc
		p.mu.Unlock()
		if fc != nil {
			fc.close()
		}
	}
	// Close every remaining connection — including accepted duplicates
	// that never became (or stopped being) a peer's current link — so
	// their read loops unblock and the WaitGroup can drain.
	for _, fc := range conns {
		fc.close()
	}
	for _, p := range paths {
		p.buf.Close()
	}
	m.dispatch.close()
	m.wg.Wait()
	// Verify everything still quarantined so late mutations within the
	// final window are reported before the counters are read.
	m.quar.flush()
	return nil
}

// OwnershipViolations reports how many delivered payloads were found
// mutated after their Deliver returned.
func (m *Module) OwnershipViolations() uint64 { return m.violations.Value() }

func (m *Module) acceptLoop(l *netemu.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		fc := newFrameConn(conn)
		fc.setMetrics(m.codecMet)
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.readLoop(fc)
			// The connection may have been registered as a peer by a
			// hello frame; detach it so deliveries stop using it and a
			// redial cycle can replace it.
			m.forgetConn(fc)
		}()
	}
}

// deliverQueueDepth bounds per-connection deliveries dispatched off the
// read loop but not yet handed to their translator.
const deliverQueueDepth = 256

// readLoop processes inbound frames from one connection until error.
// Deliver frames are handed to the per-destination dispatcher so one
// slow Translator.Deliver can stall neither control frames — in
// particular the ack/error responses that request() waits on, which are
// handled inline here — nor deliveries bound for other destinations.
// A per-connection semaphore bounds this connection's outstanding
// deliveries, so a slow consumer backpressures its sender through the
// wire instead of ballooning dispatcher queues.
func (m *Module) readLoop(fc *frameConn) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		fc.close()
		return
	}
	m.conns[fc] = struct{}{}
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.conns, fc)
		m.mu.Unlock()
		fc.close()
	}()

	sem := make(chan struct{}, deliverQueueDepth)
	// One completion callback for every delivery of the connection: a
	// closure built per frame is a heap allocation per message.
	done := func() {
		m.queueDepth.Add(-1)
		<-sem
	}
	var f frame
	for {
		if err := fc.read(&f); err != nil {
			return
		}
		if f.header.Type == frameDeliver {
			// A slot is almost always free; the two-case select
			// (runtime.selectgo) is the slow path.
			select {
			case sem <- struct{}{}:
			default:
				select {
				case sem <- struct{}{}:
				case <-m.ctx.Done():
					f.release()
					return
				}
			}
			m.queueDepth.Add(1)
			m.dispatch.enqueue(&f, done)
			continue
		}
		m.handleFrame(fc, &f)
	}
}

func (m *Module) handleFrame(fc *frameConn, f *frame) {
	switch f.header.Type {
	case frameHello:
		m.registerPeer(f.header.From, fc)
	case frameConnect:
		id, err := m.installFromFrame(f)
		m.reply(fc, f, id, err)
	case frameDisconnect:
		err := m.removeLocalPath(f.header.PathID)
		m.reply(fc, f, f.header.PathID, err)
	case frameAck, frameError:
		m.mu.Lock()
		ch := m.pending[f.header.ID]
		delete(m.pending, f.header.ID)
		m.mu.Unlock()
		if ch != nil {
			ch <- *f
		}
	default:
		m.opts.Logger.Warn("transport: unknown frame", "type", f.header.Type)
	}
}

func (m *Module) reply(fc *frameConn, req *frame, id PathID, err error) {
	h := frameHeader{From: m.node, ID: req.header.ID, PathID: id}
	if err != nil {
		h.Type = frameError
		h.Err = err.Error()
	} else {
		h.Type = frameAck
	}
	if werr := fc.write(&frame{header: h}); werr != nil {
		m.opts.Logger.Warn("transport: reply failed", "err", werr)
	}
}

// registerPeer records an inbound connection as the peer link for a
// node (unless one is already established). A re-registration after a
// drop counts as a reconnection and triggers a prompt directory
// re-announce so the healed peer relearns our translators immediately.
func (m *Module) registerPeer(node string, fc *frameConn) {
	if node == "" {
		return
	}
	p := m.getOrCreatePeer(node, node)
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.fc != nil {
		p.mu.Unlock()
		return
	}
	p.fc = fc
	p.gen++
	gen := p.gen
	if p.dialing {
		// Resolve the in-flight dial cycle; its goroutine observes
		// p.fc != nil and exits without touching ready again.
		p.dialing = false
		close(p.ready)
	}
	p.mu.Unlock()
	if gen > 1 {
		m.opts.Logger.Info("transport: peer reconnected (inbound)", "node", node)
		m.trace.Event("redial", m.node, "peer "+node+" reconnected (inbound)")
		m.dir.AnnounceNow()
	}
}

// getOrCreatePeer returns the peer state stored under key, creating it
// if needed (node is the dial target — for write stripes the key and
// node differ). Returns nil when the module is closed.
func (m *Module) getOrCreatePeer(key, node string) *peer {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	p, ok := m.peers[key]
	if !ok {
		p = &peer{node: node, ready: closedChan}
		m.peers[key] = p
	}
	return p
}

// stripeSep joins node and stripe number into a peer-map key. NUL never
// appears in node names, so stripe keys cannot collide with them.
const stripeSep = "\x00w"

// stripeKey returns the peer-map key for one write stripe of a node.
// Stripe 0 is the node's primary (control) connection, keyed by name.
func stripeKey(node string, stripe int) string {
	if stripe == 0 {
		return node
	}
	return node + stripeSep + strconv.Itoa(stripe)
}

// peerConn returns an established connection to node on one of its
// striped write connections, with the connection's generation and its
// peer-map key, starting a redial cycle and waiting for it (bounded by
// DialTimeout) when the peer is down. Stripe 0 is the node's primary
// connection, which also carries control frames. Each outbound path is
// pinned to a stripe, so the group-commit leader convoy of a single
// shared connection is sharded across WriteShards connections while
// frames of any one path stay ordered on one stream.
func (m *Module) peerConn(node string, stripe uint64) (*frameConn, uint64, string, error) {
	key := stripeKey(node, int(stripe%uint64(m.opts.WriteShards)))
	if m.host == nil {
		return nil, 0, key, fmt.Errorf("transport: no network; cannot reach node %q", node)
	}
	p := m.getOrCreatePeer(key, node)
	if p == nil {
		return nil, 0, key, ErrClosed
	}

	p.mu.Lock()
	if p.fc != nil {
		fc, gen := p.fc, p.gen
		p.mu.Unlock()
		return fc, gen, key, nil
	}
	if !p.dialing {
		if !m.trackWorker() {
			p.mu.Unlock()
			return nil, 0, key, ErrClosed
		}
		p.dialing = true
		p.ready = make(chan struct{})
		p.lastErr = nil
		go m.redialLoop(p, p.ready)
	}
	ready := p.ready
	p.mu.Unlock()

	t := time.NewTimer(m.opts.DialTimeout)
	defer t.Stop()
	select {
	case <-ready:
	case <-t.C:
		return nil, 0, key, fmt.Errorf("transport: dial %q: timed out after %v", node, m.opts.DialTimeout)
	case <-m.ctx.Done():
		return nil, 0, key, ErrClosed
	}

	p.mu.Lock()
	fc, gen, err := p.fc, p.gen, p.lastErr
	p.mu.Unlock()
	if fc != nil {
		return fc, gen, key, nil
	}
	if err == nil {
		err = fmt.Errorf("transport: connection to %q lost", node)
	}
	return nil, 0, key, err
}

// pathConn is peerConn through the path's one-entry connection cache
// (see path.skNode): steady-state deliveries reuse the cached
// established conn without touching the module mutex or the peer-gen
// map. Redial accounting still works because every generation change
// passes through a cache miss — the old conn's writes fail, deliver
// invalidates the cache, and the re-lookup here observes (and notes)
// the new generation. Call only from the path's worker goroutine.
func (m *Module) pathConn(p *path, node string) (*frameConn, string, error) {
	if p.fcCache != nil && p.skNode == node {
		return p.fcCache, p.skKey, nil
	}
	fc, gen, key, err := m.peerConn(node, p.stripe)
	p.skNode, p.skKey, p.fcCache = node, key, fc
	if err != nil {
		return nil, key, err
	}
	p.notePeerGen(key, gen)
	return fc, key, nil
}

// dialPeer performs one connection attempt: dial plus hello.
func (m *Module) dialPeer(node string) (*frameConn, error) {
	ctx, cancel := context.WithTimeout(m.ctx, m.opts.DialTimeout)
	defer cancel()
	conn, err := m.host.Dial(ctx, node+":"+strconv.Itoa(m.opts.Port))
	if err != nil {
		return nil, fmt.Errorf("transport: dial %q: %w", node, err)
	}
	fc := newFrameConn(conn)
	fc.setMetrics(m.codecMet)
	if err := fc.write(&frame{header: frameHeader{Type: frameHello, From: m.node}}); err != nil {
		fc.close()
		return nil, fmt.Errorf("transport: hello to %q: %w", node, err)
	}
	return fc, nil
}

// redialLoop runs one reconnection cycle for a peer: bounded dial
// attempts with exponential backoff and jitter (Options.Redial). On
// success the connection is installed and a read loop started; on
// exhaustion the cycle resolves with an error and a later delivery
// starts a fresh cycle. myReady identifies the cycle: if the peer's
// ready channel changes (an inbound connection resolved it, or a
// subsequent drop superseded it), this cycle abandons quietly.
func (m *Module) redialLoop(p *peer, myReady chan struct{}) {
	defer m.wg.Done()
	policy := m.policies.Load().Redial
	var lastErr error
	for attempt := 1; attempt <= policy.MaxAttempts; attempt++ {
		if err := m.ctx.Err(); err != nil {
			lastErr = ErrClosed
			break
		}
		p.mu.Lock()
		if p.ready != myReady || p.fc != nil {
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()

		fc, err := m.dialPeer(p.node)
		if err == nil {
			p.mu.Lock()
			if p.ready != myReady || p.fc != nil {
				p.mu.Unlock()
				fc.close()
				return
			}
			p.fc = fc
			p.gen++
			gen := p.gen
			p.dialing = false
			close(myReady)
			p.mu.Unlock()
			m.wg.Add(1)
			go func() {
				defer m.wg.Done()
				m.readLoop(fc)
				m.peerDisconnected(p, fc)
			}()
			if gen > 1 {
				m.opts.Logger.Info("transport: peer reconnected", "node", p.node, "attempt", attempt)
				m.trace.Event("redial", m.node, "peer "+p.node+" reconnected")
				// Re-announce promptly so the healed peer rebinds
				// dynamic paths without waiting for the announce tick.
				m.dir.AnnounceNow()
			}
			return
		}
		lastErr = err
		if attempt < policy.MaxAttempts {
			if !sleepCtx(m.ctx, policy.Delay(attempt)) {
				lastErr = ErrClosed
				break
			}
		}
	}
	p.mu.Lock()
	if p.ready == myReady && p.fc == nil {
		p.lastErr = lastErr
		p.dialing = false
		close(myReady)
	}
	p.mu.Unlock()
}

// peerDisconnected detaches a dead connection from its peer state and,
// unless the module is closing, starts a proactive redial cycle so the
// link recovers before the next delivery needs it.
func (m *Module) peerDisconnected(p *peer, fc *frameConn) {
	p.mu.Lock()
	if p.fc != fc {
		p.mu.Unlock()
		fc.close()
		return
	}
	p.fc = nil
	spawn := false
	if !p.dialing {
		if m.trackWorker() {
			p.dialing = true
			p.ready = make(chan struct{})
			p.lastErr = nil
			spawn = true
		} else {
			p.ready = closedChan
			p.lastErr = ErrClosed
		}
	}
	ready := p.ready
	p.mu.Unlock()
	fc.close()
	if spawn {
		m.opts.Logger.Info("transport: peer connection lost; redialing", "node", p.node)
		m.trace.Event("peer_lost", m.node, p.node)
		go m.redialLoop(p, ready)
	}
}

// trackWorker adds one to the module WaitGroup unless the module is
// closed. Guarding the Add with m.closed (set before Close waits)
// keeps wg.Add from racing wg.Wait when the caller's goroutine is not
// itself tracked.
func (m *Module) trackWorker() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.wg.Add(1)
	return true
}

// forgetConn routes a dead, possibly-registered connection to
// peerDisconnected (accepted connections learn their node only from the
// hello frame, so the peer is found by connection identity).
func (m *Module) forgetConn(fc *frameConn) {
	m.mu.Lock()
	peers := make([]*peer, 0, len(m.peers))
	for _, p := range m.peers {
		peers = append(peers, p)
	}
	m.mu.Unlock()
	for _, p := range peers {
		p.mu.Lock()
		match := p.fc == fc
		p.mu.Unlock()
		if match {
			m.peerDisconnected(p, fc)
			return
		}
	}
}

// sleepCtx sleeps for d, returning false if ctx finished first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// request sends a frame to a node and waits for its ack/error.
func (m *Module) request(node string, f frame) (frame, error) {
	fc, _, _, err := m.peerConn(node, 0)
	if err != nil {
		return frame{}, err
	}
	m.mu.Lock()
	m.nextReq++
	id := m.nextReq
	ch := make(chan frame, 1)
	m.pending[id] = ch
	m.mu.Unlock()
	f.header.ID = id
	f.header.From = m.node

	if err := fc.write(&f); err != nil {
		m.mu.Lock()
		delete(m.pending, id)
		m.mu.Unlock()
		m.dropPeer(node, fc)
		return frame{}, fmt.Errorf("transport: send to %q: %w", node, err)
	}
	t := time.NewTimer(m.opts.DeliverTimeout)
	defer t.Stop()
	select {
	case resp := <-ch:
		if resp.header.Type == frameError {
			return resp, errors.New(resp.header.Err)
		}
		return resp, nil
	case <-t.C:
		m.mu.Lock()
		delete(m.pending, id)
		m.mu.Unlock()
		return frame{}, fmt.Errorf("transport: request to %q timed out", node)
	case <-m.ctx.Done():
		// Remove the pending entry here too, or the channel leaks in
		// m.pending for the life of the module.
		m.mu.Lock()
		delete(m.pending, id)
		m.mu.Unlock()
		return frame{}, ErrClosed
	}
}

// Connect establishes a communication path between a specific output
// port and a specific input port — the paper's Figure 7-(1) API.
func (m *Module) Connect(src, dst core.PortRef) (PathID, error) {
	return m.ConnectClass(src, dst, qos.Class{})
}

// ConnectClass is Connect with an explicit QoS class.
func (m *Module) ConnectClass(src, dst core.PortRef, class qos.Class) (PathID, error) {
	srcProfile, err := m.dir.Resolve(src.Translator)
	if err != nil {
		return "", err
	}
	if srcProfile.Node != m.node {
		// The owning node knows the endpoints by their wire IDs, not by
		// any remapped names local to this boundary.
		resp, err := m.request(srcProfile.Node, frame{header: frameHeader{
			Type: frameConnect, Src: m.wireRef(src), Dst: m.wireRef(dst), Class: &class,
		}})
		if err != nil {
			return "", err
		}
		return resp.header.PathID, nil
	}
	return m.installStatic(src, dst, class)
}

// wireRef rewrites a port reference's translator ID to wire form for
// frames that cross a remapped boundary (identity without remap rules).
func (m *Module) wireRef(ref core.PortRef) core.PortRef {
	ref.Translator = m.dir.WireID(ref.Translator)
	return ref
}

// ConnectQuery establishes a dynamic message path between a specific
// port and the ports matching a query — the paper's Figure 7-(2) API.
// As matching translators appear in the network they are bound to the
// path; as they disappear they are unbound.
func (m *Module) ConnectQuery(src core.PortRef, q core.Query) (PathID, error) {
	return m.ConnectQueryClass(src, q, qos.Class{})
}

// ConnectQueryClass is ConnectQuery with an explicit QoS class.
func (m *Module) ConnectQueryClass(src core.PortRef, q core.Query, class qos.Class) (PathID, error) {
	srcProfile, err := m.dir.Resolve(src.Translator)
	if err != nil {
		return "", err
	}
	if srcProfile.Node != m.node {
		wq := q
		wq.ExcludeID = m.dir.WireID(wq.ExcludeID)
		resp, err := m.request(srcProfile.Node, frame{header: frameHeader{
			Type: frameConnect, Src: m.wireRef(src), Query: &wq, Class: &class,
		}})
		if err != nil {
			return "", err
		}
		return resp.header.PathID, nil
	}
	return m.installDynamic(src, q, class)
}

// installFromFrame handles a forwarded connect request.
func (m *Module) installFromFrame(f *frame) (PathID, error) {
	class := qos.Class{}
	if f.header.Class != nil {
		class = *f.header.Class
	}
	if f.header.Query != nil {
		return m.installDynamic(f.header.Src, *f.header.Query, class)
	}
	return m.installStatic(f.header.Src, f.header.Dst, class)
}

// validateSrc checks that src is a digital output port of a local
// translator and returns its data type.
func (m *Module) validateSrc(src core.PortRef) (core.DataType, error) {
	profile, err := m.dir.Resolve(src.Translator)
	if err != nil {
		return "", err
	}
	if profile.Node != m.node {
		return "", fmt.Errorf("transport: source %s not hosted on %s", src, m.node)
	}
	port, ok := profile.Shape.Port(src.Port)
	if !ok {
		return "", fmt.Errorf("%w: %q on %s", core.ErrNoSuchPort, src.Port, src.Translator)
	}
	if port.Direction != core.Output || port.Kind != core.Digital {
		return "", fmt.Errorf("transport: source %s is not a digital output port", src)
	}
	return port.Type, nil
}

func (m *Module) installStatic(src, dst core.PortRef, class qos.Class) (PathID, error) {
	srcType, err := m.validateSrc(src)
	if err != nil {
		return "", err
	}
	dstProfile, err := m.dir.Resolve(dst.Translator)
	if err != nil {
		return "", err
	}
	dstPort, ok := dstProfile.Shape.Port(dst.Port)
	if !ok {
		return "", fmt.Errorf("%w: %q on %s", core.ErrNoSuchPort, dst.Port, dst.Translator)
	}
	if dstPort.Direction != core.Input || dstPort.Kind != core.Digital {
		return "", fmt.Errorf("transport: destination %s is not a digital input port", dst)
	}
	if !core.Compatible(srcType, dstPort.Type) {
		return "", fmt.Errorf("%w: %s -> %s", ErrIncompatible, srcType, dstPort.Type)
	}
	// A static binding is a live interest in its destination: under
	// interest filtering the peer's adverts for it must keep flowing.
	cancel := m.dir.RegisterIDInterest(dst.Translator)
	id, err := m.addPath(&path{src: src, srcType: srcType, static: &dst, class: class.WithDefaults(), interestCancel: cancel})
	if err != nil {
		cancel()
	}
	return id, err
}

func (m *Module) installDynamic(src core.PortRef, q core.Query, class qos.Class) (PathID, error) {
	srcType, err := m.validateSrc(src)
	if err != nil {
		return "", err
	}
	if q.ExcludeID == "" {
		q.ExcludeID = src.Translator
	}
	// The query is this path's standing interest: registering it makes
	// peers keep advertising matching profiles under interest filtering.
	cancel := m.dir.RegisterInterest(q)
	p := &path{
		src:            src,
		srcType:        srcType,
		query:          &q,
		class:          class.WithDefaults(),
		bound:          make(map[core.TranslatorID]core.PortRef),
		interestCancel: cancel,
	}
	// Publish before the first evaluation, so no translator mapped
	// meanwhile is missed: one mapped after the path entered the indexes
	// reaches it through onMappedBatch, one mapped before is in the view
	// Lookup reads. Binding one twice is harmless.
	id, err := m.addPath(p)
	if err != nil {
		cancel()
		return "", err
	}
	m.bindMatches(p)
	return id, nil
}

// bindMatches binds every translator the directory's Lookup returns for
// the path's query. The view may be stale by the time a candidate is
// listed in byID: an unmap whose handler read byID first has missed the
// binding. The directory drops a translator before it notifies, so
// resolving each newly listed candidate again sees that one gone.
func (m *Module) bindMatches(p *path) {
	for _, candidate := range m.dir.Lookup(*p.query) {
		if !m.tryBind(p, candidate) {
			continue
		}
		if _, err := m.dir.Resolve(candidate.ID); err != nil {
			m.failDestination(p, candidate.ID)
		}
	}
}

// tryBind binds the path to a matching input port of the candidate, if
// any — "bound to the port owned by the target translator, whose data
// type is equivalent to the source port" (paper Section 3.5). A newly
// bound destination is listed in byID, in the same p.mu section, unless
// the path has left the table (or is listed already, as its source).
// It reports whether it listed one.
func (m *Module) tryBind(p *path, candidate core.Profile) (listed bool) {
	for _, port := range candidate.Shape.Inputs(core.Digital) {
		if core.Compatible(p.srcType, port.Type) {
			p.mu.Lock()
			if _, had := p.bound[candidate.ID]; !had && candidate.ID != p.src.Translator {
				m.mu.Lock()
				if m.paths[p.id] == p {
					enlist(m.byID, candidate.ID, p)
					listed = true
				}
				m.mu.Unlock()
			}
			p.bound[candidate.ID] = core.PortRef{Translator: candidate.ID, Port: port.Name}
			p.dstSnap = nil
			p.mu.Unlock()
			return listed
		}
	}
	return false
}

// pathList is the list of paths under one key of a fan-out index. It is
// chained because most keys list a single path: a node per entry costs a
// third less than a slice per key.
type pathList struct {
	p    *path
	next *pathList
}

// enlist adds p to the list under key.
func enlist[K comparable](index map[K]*pathList, key K, p *path) {
	index[key] = &pathList{p: p, next: index[key]}
}

// unlist removes p from the list under key, if it is there.
func unlist[K comparable](index map[K]*pathList, key K, p *path) {
	var prev *pathList
	for n := index[key]; n != nil; prev, n = n, n.next {
		if n.p != p {
			continue
		}
		switch {
		case prev != nil:
			prev.next = n.next
		case n.next != nil:
			index[key] = n.next
		default:
			delete(index, key)
		}
		return
	}
}

func (m *Module) addPath(p *path) (PathID, error) {
	cls := p.class
	p.peerGen = make(map[string]uint64)
	p.buf = qos.NewBuffer[core.Message](cls.BufferCapacity, cls.Policy)
	if cls.RateBytesPerSec > 0 {
		p.bytesRL = qos.NewRateLimiter(cls.RateBytesPerSec, cls.RateBytesPerSec)
	}
	if cls.RateMessagesPerSec > 0 {
		p.msgRL = qos.NewRateLimiter(cls.RateMessagesPerSec, cls.RateMessagesPerSec)
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", ErrClosed
	}
	m.nextPath++
	p.stripe = m.nextPath
	p.id = PathID(m.node + "#" + strconv.FormatUint(m.nextPath, 10))
	// Resolve metric handles before the path is visible to PathStats.
	p.met = m.newPathMetrics(p.id)
	m.paths[p.id] = p
	// bySrc lists are immutable once published (Emit reads them outside
	// the lock): adding copies, as removing does.
	list := m.bySrc[p.src]
	m.bySrc[p.src] = append(list[:len(list):len(list)], p)
	enlist(m.byID, p.src.Translator, p)
	if p.static != nil && p.static.Translator != p.src.Translator {
		enlist(m.byID, p.static.Translator, p)
	}
	if p.query != nil {
		enlist(m.byType, p.query.DeviceType, p)
	}
	m.mu.Unlock()

	m.trace.Event("path_connect", m.node, string(p.id))

	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.pathWorker(p)
	}()
	return p.id, nil
}

// newPathMetrics resolves a path's registry series. The path label keeps
// one registry usable across many concurrent paths and nodes. Under
// DisablePathMetrics every path shares the one aggregate set instead.
func (m *Module) newPathMetrics(id PathID) pathMetrics {
	if m.sharedPathMet != nil {
		return *m.sharedPathMet
	}
	return m.newPathMetricsFor(id)
}

func (m *Module) newPathMetricsFor(id PathID) pathMetrics {
	reg := m.opts.Obs
	labels := obs.Labels{"node": m.node, "path": string(id)}
	return pathMetrics{
		delivered: reg.Counter("umiddle_transport_path_delivered_total", labels),
		bytes:     reg.Counter("umiddle_transport_path_bytes_total", labels),
		errors:    reg.Counter("umiddle_transport_path_errors_total", labels),
		retries:   reg.Counter("umiddle_transport_path_retries_total", labels),
		redials:   reg.Counter("umiddle_transport_path_redials_total", labels),
		dropped:   reg.Counter("umiddle_transport_path_dropped_total", labels),
		failovers: reg.Counter("umiddle_transport_path_failovers_total", labels),
		latency:   reg.Histogram("umiddle_transport_delivery_latency_seconds", labels, nil),
	}
}

// removePathMetrics drops a removed path's series so long-lived nodes
// don't accumulate unbounded per-path cardinality.
func (m *Module) removePathMetrics(id PathID) {
	if m.sharedPathMet != nil {
		return // aggregate series outlive individual paths
	}
	reg := m.opts.Obs
	labels := obs.Labels{"node": m.node, "path": string(id)}
	for _, name := range []string{
		"umiddle_transport_path_delivered_total",
		"umiddle_transport_path_bytes_total",
		"umiddle_transport_path_errors_total",
		"umiddle_transport_path_retries_total",
		"umiddle_transport_path_redials_total",
		"umiddle_transport_path_dropped_total",
		"umiddle_transport_path_failovers_total",
		"umiddle_transport_delivery_latency_seconds",
	} {
		reg.RemoveSeries(name, labels)
	}
}

// Disconnect tears down a path, local or remote.
func (m *Module) Disconnect(id PathID) error {
	owner := id.node()
	if owner != "" && owner != m.node {
		_, err := m.request(owner, frame{header: frameHeader{Type: frameDisconnect, PathID: id}})
		return err
	}
	return m.removeLocalPath(id)
}

func (m *Module) removeLocalPath(id PathID) error {
	m.mu.Lock()
	p := m.paths[id]
	m.mu.Unlock()
	if p == nil {
		return fmt.Errorf("%w: %q", ErrPathNotFound, id)
	}
	// p.mu first (the lock order): the bound set read here cannot gain a
	// destination that byID would then keep listing.
	p.mu.Lock()
	m.mu.Lock()
	if m.paths[id] != p {
		m.mu.Unlock()
		p.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrPathNotFound, id)
	}
	delete(m.paths, id)
	list := m.bySrc[p.src]
	for i, cand := range list {
		if cand == p {
			m.bySrc[p.src] = append(list[:i:i], list[i+1:]...)
			break
		}
	}
	if len(m.bySrc[p.src]) == 0 {
		delete(m.bySrc, p.src)
	}
	unlist(m.byID, p.src.Translator, p)
	if p.static != nil {
		unlist(m.byID, p.static.Translator, p)
	}
	for dst := range p.bound {
		unlist(m.byID, dst, p)
	}
	if p.query != nil {
		unlist(m.byType, p.query.DeviceType, p)
	}
	m.mu.Unlock()
	p.mu.Unlock()
	p.buf.Close()
	if p.interestCancel != nil {
		p.interestCancel()
	}
	m.removePathMetrics(id)
	m.trace.Event("path_disconnect", m.node, string(id))
	return nil
}

// Emit implements core.Sink: translator emissions enter the translation
// buffers of every path rooted at the emitting port. Ownership of the
// payload transfers to the transport (core.Sink contract), so fan-out
// shares one payload across paths instead of deep-copying per path —
// translators and local deliveries treat payloads as immutable, which
// the inbound quarantine verifies (ownership.go).
func (m *Module) Emit(src core.PortRef, msg core.Message) {
	m.mu.Lock()
	paths := m.bySrc[src] // immutable snapshot, see addPath
	m.mu.Unlock()
	msg.Source = src
	if msg.Time.IsZero() {
		msg.Time = time.Now()
	}
	for _, p := range paths {
		out := msg
		p.mu.Lock()
		p.seq++
		out.Seq = p.seq
		p.mu.Unlock()
		if _, err := p.buf.Push(m.ctx, out); err != nil {
			m.opts.Logger.Warn("transport: emit dropped", "path", p.id, "err", err)
		}
	}
}

// pathWorker drains one path's translation buffer, applying QoS and
// delivering to all bound destinations.
func (m *Module) pathWorker(p *path) {
	var tick uint64
	for {
		msg, err := p.buf.Pop(m.ctx)
		if err != nil {
			return
		}
		if p.msgRL != nil {
			if err := p.msgRL.Wait(m.ctx, 1); err != nil {
				return
			}
		}
		if p.bytesRL != nil {
			if err := p.bytesRL.Wait(m.ctx, float64(len(msg.Payload))); err != nil {
				return
			}
		}
		dsts := p.destinations()
		if len(dsts) == 0 && p.failingOver() {
			// The path had destinations and lost them all. Give the
			// failover the message's retry budget to find a replacement,
			// then drop-after-budget — the same contract a dead static
			// destination gets.
			if dsts = m.awaitFailover(p); len(dsts) == 0 {
				p.mu.Lock()
				p.degraded = true
				p.mu.Unlock()
				p.met.errors.Inc()
				p.met.dropped.Inc()
				m.trace.Event("drop", m.node, string(p.id)+": no candidate after failover budget")
				m.opts.Logger.Warn("transport: message dropped; no failover candidate", "path", p.id)
				continue
			}
		}
		for _, dst := range dsts {
			// Latency is sampled 1-in-8 (first delivery always): the
			// histograms feed metrics, whose quantiles survive sampling,
			// and the two clock reads per message otherwise show up in
			// hot-path CPU profiles.
			sample := tick&7 == 0
			tick++
			var start time.Time
			if sample {
				start = time.Now()
			}
			if err := m.deliverWithRetry(p, dst, msg); err != nil {
				p.met.errors.Inc()
				p.met.dropped.Inc()
				m.trace.Event("drop", m.node, string(p.id)+" -> "+dst.String()+": "+err.Error())
				m.opts.Logger.Warn("transport: message dropped after retries",
					"path", p.id, "dst", dst, "err", err)
				if p.query != nil && !errors.Is(err, ErrClosed) {
					// A destination that ate the whole retry budget is
					// treated as dead: unbind it and fail over instead of
					// feeding it the next message's budget too.
					m.failDestination(p, dst.Translator)
				}
				continue
			}
			p.met.delivered.Inc()
			p.met.bytes.Add(uint64(len(msg.Payload)))
			if sample {
				elapsed := time.Since(start)
				p.met.latency.ObserveDuration(elapsed)
				m.latency.ObserveDuration(elapsed)
			}
		}
	}
}

// deliverWithRetry attempts delivery to one destination under the
// path's retry budget (Options.Retry), backing off between attempts.
// Exhausting the budget returns the last error; the caller drops the
// message for this destination and moves on, so a permanently dead
// destination cannot stall the others on the path.
func (m *Module) deliverWithRetry(p *path, dst core.PortRef, msg core.Message) error {
	policy := m.policies.Load().Retry
	var lastErr error
	for attempt := 1; attempt <= policy.MaxAttempts; attempt++ {
		if attempt > 1 {
			p.met.retries.Inc()
			if !sleepCtx(m.ctx, policy.Delay(attempt-1)) {
				return ErrClosed
			}
		}
		// A degraded static path fails fast per attempt: no dial, no
		// network traffic toward the corpse — just a typed error. The
		// flag is re-checked each attempt so a destination that comes
		// back mid-budget (a healed partition's re-announce) still gets
		// the message.
		if p.static != nil {
			p.mu.Lock()
			dead := p.degraded
			p.mu.Unlock()
			if dead {
				lastErr = fmt.Errorf("%w: %s", ErrDestinationLost, dst)
				continue
			}
		}
		lastErr = m.deliver(p, dst, msg)
		if lastErr == nil {
			return nil
		}
		if errors.Is(lastErr, ErrClosed) {
			return lastErr
		}
	}
	return lastErr
}

// awaitFailover waits under the retry policy's backoff for a failing-over
// dynamic path to rebind, returning the destinations found (nil if the
// budget lapses first).
func (m *Module) awaitFailover(p *path) []core.PortRef {
	policy := m.policies.Load().Retry
	for attempt := 1; attempt < policy.MaxAttempts; attempt++ {
		if !sleepCtx(m.ctx, policy.Delay(attempt)) {
			return nil
		}
		if dsts := p.destinations(); len(dsts) > 0 {
			return dsts
		}
	}
	return nil
}

// deliver routes one message to a destination port, locally or across
// the network. A destination bound through a remapped name crosses the
// boundary in wire form: the owning node knows the translator only by
// its original ID, and that ID's node prefix is the real dial target.
func (m *Module) deliver(p *path, dst core.PortRef, msg core.Message) error {
	dst.Translator = m.dir.WireID(dst.Translator)
	node := dst.Translator.Node()
	if node == "" {
		if profile, err := m.dir.Resolve(dst.Translator); err == nil {
			node = profile.Node
		} else {
			return err
		}
	}
	if node == m.node {
		return m.deliverLocalErr(dst, msg)
	}
	// A node behind a segment boundary is reached through the relay
	// route the directory learned from its adverts: the frame carries
	// the remaining hops and intermediaries forward it (relay.go).
	f := deliverFrame(m.node, dst, msg)
	if first, route, ok := m.routeFor(node); ok {
		f.header.Route = route
		f.header.TTL = m.opts.RelayTTL
		f.header.RelayID = m.relayID.Add(1)
		node = first
	}
	fc, key, err := m.pathConn(p, node)
	if err != nil {
		return err
	}
	if err := fc.write(&f); err != nil {
		// A failed write may have left a partial frame on the stream,
		// desynchronizing the peer; discard the connection so the redial
		// cycle replaces it cleanly.
		p.fcCache = nil
		m.dropPeer(key, fc)
		return err
	}
	return nil
}

// dropPeer detaches a (possibly corrupted) connection from the peer
// stored under key if it is still the current one, kicking off a
// redial cycle.
func (m *Module) dropPeer(key string, fc *frameConn) {
	m.mu.Lock()
	p, ok := m.peers[key]
	m.mu.Unlock()
	if !ok {
		fc.close()
		return
	}
	m.peerDisconnected(p, fc)
}

func (m *Module) deliverLocal(dst core.PortRef, msg core.Message) {
	if err := m.deliverLocalErr(dst, msg); err != nil {
		m.opts.Logger.Warn("transport: local deliver failed", "dst", dst, "err", err)
	}
}

func (m *Module) deliverLocalErr(dst core.PortRef, msg core.Message) (err error) {
	tr, ok := m.dir.Local(dst.Translator)
	if !ok {
		return fmt.Errorf("%w: %q", directory.ErrNotFound, dst.Translator)
	}
	// A lazy deadline context: every delivery gets the DeliverTimeout
	// bound, but the clock is only read and the runtime timer only armed
	// if the handler actually observes the deadline. Fast handlers — the
	// hot path — never touch the clock or timer subsystem at all.
	lc := lazyTimeoutCtx{parent: m.ctx, timeout: m.opts.DeliverTimeout}
	defer lc.release()
	// A panicking translator handler becomes a per-delivery error: one
	// buggy device handler cannot take down the delivery worker (or, for
	// a local source, the emitting path's worker).
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("transport: translator %s panicked in Deliver: %v", dst.Translator, rec)
			m.trace.Event("deliver_panic", m.node, string(dst.Translator)+": "+fmt.Sprint(rec))
		}
	}()
	return tr.Deliver(&lc, dst.Port, msg)
}

// lazyTimeoutCtx is a context.Context with a timeout that defers both
// reading the clock and creating the underlying timer-backed context
// until a deadline-dependent method — Done(), Deadline(), or a
// could-be-expired Err() — is first observed. Fast handlers (the hot
// path) never touch the clock or the timer subsystem at all. release()
// cancels the timer if one was armed; afterwards the context reports
// Canceled, matching the WithTimeout+defer-cancel idiom it replaces.
type lazyTimeoutCtx struct {
	parent  context.Context
	timeout time.Duration

	mu       sync.Mutex
	deadline time.Time
	ctx      context.Context
	cancel   context.CancelFunc
	released bool
}

// deadlineLocked pins the deadline to timeout-from-first-observation.
// Caller holds c.mu.
func (c *lazyTimeoutCtx) deadlineLocked() time.Time {
	if c.deadline.IsZero() {
		c.deadline = time.Now().Add(c.timeout)
	}
	return c.deadline
}

func (c *lazyTimeoutCtx) materialize() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctx == nil {
		if c.released {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			c.ctx = ctx
		} else {
			c.ctx, c.cancel = context.WithDeadline(c.parent, c.deadlineLocked())
		}
	}
	return c.ctx
}

func (c *lazyTimeoutCtx) release() {
	c.mu.Lock()
	c.released = true
	cancel := c.cancel
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (c *lazyTimeoutCtx) Deadline() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadlineLocked(), true
}

func (c *lazyTimeoutCtx) Done() <-chan struct{} { return c.materialize().Done() }

func (c *lazyTimeoutCtx) Err() error {
	if err := c.parent.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	ctx, released := c.ctx, c.released
	deadline := c.deadline
	if ctx == nil && !released {
		deadline = c.deadlineLocked()
	}
	c.mu.Unlock()
	if ctx != nil {
		return ctx.Err()
	}
	if released {
		return context.Canceled
	}
	if !time.Now().Before(deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

func (c *lazyTimeoutCtx) Value(key any) any { return c.parent.Value(key) }

// dirListener routes directory notifications — translator mapped and
// unmapped, node up and down — into the module's binding maintenance.
type dirListener struct{ m *Module }

var _ directory.NodeListener = dirListener{}

func (l dirListener) TranslatorsMapped(ps []core.Profile)         { l.m.onMappedBatch(ps) }
func (l dirListener) TranslatorsUnmapped(ids []core.TranslatorID) { l.m.onUnmappedBatch(ids) }
func (l dirListener) NodeUp(string)                               {}
func (l dirListener) NodeDown(node string)                        { l.m.onNodeDown(node) }

// onMappedBatch re-evaluates dynamic paths when translators appear, and
// clears the degraded flag of static paths whose destination returned.
// It visits only the paths the indexes list for the profiles: dynamic
// paths under the profile's DeviceType or none, static paths under their
// destination. The cost is O(affected paths), not O(all paths).
func (m *Module) onMappedBatch(ps []core.Profile) {
	type candidate struct {
		pt *path
		p  int // index into ps
	}
	var dynamic []candidate
	var static []*path
	m.mu.Lock()
	for i := range ps {
		for n := m.byType[ps[i].DeviceType]; n != nil; n = n.next {
			dynamic = append(dynamic, candidate{n.p, i})
		}
		if ps[i].DeviceType != "" {
			for n := m.byType[""]; n != nil; n = n.next {
				dynamic = append(dynamic, candidate{n.p, i})
			}
		}
		for n := m.byID[ps[i].ID]; n != nil; n = n.next {
			if n.p.static != nil && n.p.static.Translator == ps[i].ID {
				static = append(static, n.p)
			}
		}
	}
	m.mu.Unlock()
	for _, c := range dynamic {
		if c.pt.query.Matches(ps[c.p]) {
			m.tryBind(c.pt, ps[c.p])
			m.noteRebound(c.pt)
		}
	}
	for _, pt := range static {
		pt.mu.Lock()
		was := pt.degraded
		pt.degraded = false
		pt.mu.Unlock()
		if was {
			m.trace.Event("path_recovered", m.node, string(pt.id)+": destination "+string(pt.static.Translator)+" mapped again")
		}
	}
}

// onUnmappedBatch handles disappeared translators across every path role
// they can play: paths rooted at one are torn down (their source is gone
// for good — deterministic teardown instead of delivery-retry discovery),
// static paths aimed at one degrade and fail fast, and dynamic paths
// bound to one fail over by re-running their query. The source role wins:
// a path whose source left is only torn down. byID names the paths; the
// cost is O(affected paths).
func (m *Module) onUnmappedBatch(ids []core.TranslatorID) {
	var srcDead []*path
	m.mu.Lock()
	for _, id := range ids {
		for n := m.byID[id]; n != nil; n = n.next {
			if n.p.src.Translator == id {
				srcDead = append(srcDead, n.p)
			}
		}
	}
	m.mu.Unlock()
	for _, pt := range srcDead {
		m.trace.Event("path_source_lost", m.node, string(pt.id)+": source "+string(pt.src.Translator)+" unmapped")
		m.removeLocalPath(pt.id) //nolint:errcheck
	}
	// The torn-down paths have left byID: what it lists now plays a
	// destination role.
	type loss struct {
		pt *path
		id core.TranslatorID
	}
	var static, dynamic []loss
	m.mu.Lock()
	for _, id := range ids {
		for n := m.byID[id]; n != nil; n = n.next {
			switch {
			case n.p.src.Translator == id:
				// installed after the teardown pass read byID
			case n.p.static != nil:
				static = append(static, loss{n.p, id})
			default:
				dynamic = append(dynamic, loss{n.p, id})
			}
		}
	}
	m.mu.Unlock()
	for _, l := range static {
		l.pt.mu.Lock()
		was := l.pt.degraded
		l.pt.degraded = true
		l.pt.mu.Unlock()
		if !was {
			m.trace.Event("path_degraded", m.node, string(l.pt.id)+": destination "+string(l.id)+" lost")
		}
	}
	for _, l := range dynamic {
		m.failDestination(l.pt, l.id)
	}
}

// onNodeDown is a safety net under onUnmappedBatch: the directory unmaps
// each of a dead node's translators before NodeDown fires, but a path may
// reference a destination the directory never integrated (a static
// connect by raw ID). Node identity is parsed from the translator ID. It
// is the one directory event that still scans the whole path table: node
// loss is rare, and a safety net should not lean on the indexes.
func (m *Module) onNodeDown(node string) {
	m.mu.Lock()
	var dynamic, static []*path
	for _, pt := range m.paths {
		switch {
		case pt.query != nil:
			dynamic = append(dynamic, pt)
		case pt.static != nil && pt.static.Translator.Node() == node:
			static = append(static, pt)
		}
	}
	m.mu.Unlock()
	for _, pt := range static {
		pt.mu.Lock()
		was := pt.degraded
		pt.degraded = true
		pt.mu.Unlock()
		if !was {
			m.trace.Event("path_degraded", m.node, string(pt.id)+": node "+node+" down")
		}
	}
	for _, pt := range dynamic {
		pt.mu.Lock()
		var lost []core.TranslatorID
		for id := range pt.bound {
			if id.Node() == node {
				lost = append(lost, id)
			}
		}
		pt.mu.Unlock()
		for _, id := range lost {
			m.failDestination(pt, id)
		}
	}
}

// failDestination unbinds a lost destination from a dynamic path and
// fails over: the query re-runs immediately and binds every compatible
// candidate in the directory's deterministic (node, ID) order. The path
// keeps delivering to whatever remains bound; the failover latency clock
// starts only when the last destination is gone.
func (m *Module) failDestination(pt *path, id core.TranslatorID) {
	pt.mu.Lock()
	if _, was := pt.bound[id]; !was {
		pt.mu.Unlock()
		return
	}
	delete(pt.bound, id)
	if id != pt.src.Translator {
		m.mu.Lock()
		unlist(m.byID, id, pt)
		m.mu.Unlock()
	}
	pt.dstSnap = nil
	if len(pt.bound) == 0 && pt.lostAt.IsZero() {
		pt.lostAt = time.Now()
	}
	pt.mu.Unlock()
	pt.met.failovers.Inc()
	m.failovers.Inc()
	m.trace.Event("failover", m.node, string(pt.id)+": destination "+string(id)+" lost; re-running query")
	m.rebind(pt)
}

// rebind re-runs a dynamic path's query against the directory and binds
// every compatible candidate. A node crash makes every dynamic path
// re-query at once; the directory serves the storm from its indexed
// snapshot, and all paths sharing a query template hit the same cached
// result set.
func (m *Module) rebind(pt *path) {
	if pt.query == nil {
		return
	}
	m.bindMatches(pt)
	m.noteRebound(pt)
}

// noteRebound closes out a failover on a dynamic path that has regained a
// destination: the lost → rebound latency is observed and the degraded
// flag cleared.
func (m *Module) noteRebound(pt *path) {
	pt.mu.Lock()
	rebound := len(pt.bound) > 0 && (!pt.lostAt.IsZero() || pt.degraded)
	var wait time.Duration
	if rebound {
		if !pt.lostAt.IsZero() {
			wait = time.Since(pt.lostAt)
		}
		pt.lostAt = time.Time{}
		pt.degraded = false
	}
	pt.mu.Unlock()
	if rebound {
		m.failoverLat.ObserveDuration(wait)
		m.trace.Event("path_rebound", m.node, string(pt.id))
	}
}

// PathStats returns statistics for one path.
func (m *Module) PathStats(id PathID) (PathStats, bool) {
	m.mu.Lock()
	p, ok := m.paths[id]
	m.mu.Unlock()
	if !ok {
		return PathStats{}, false
	}
	return p.snapshotStats(), true
}

func (p *path) snapshotStats() PathStats {
	s := PathStats{
		Delivered: p.met.delivered.Value(),
		Bytes:     p.met.bytes.Value(),
		Errors:    p.met.errors.Value(),
		Retries:   p.met.retries.Value(),
		Redials:   p.met.redials.Value(),
		Dropped:   p.met.dropped.Value(),
		Failovers: p.met.failovers.Value(),
	}
	p.mu.Lock()
	s.Bound = len(p.bound)
	if p.static != nil {
		s.Bound = 1
	}
	p.mu.Unlock()
	s.Buffer = p.buf.Stats()
	return s
}

// Paths lists every path hosted by this node.
func (m *Module) Paths() []PathInfo {
	m.mu.Lock()
	paths := make([]*path, 0, len(m.paths))
	for _, p := range m.paths {
		paths = append(paths, p)
	}
	m.mu.Unlock()

	out := make([]PathInfo, 0, len(paths))
	for _, p := range paths {
		info := PathInfo{
			ID:    p.id,
			Src:   p.src,
			Dst:   p.static,
			Query: p.query,
			Bound: p.destinations(),
			Class: p.class,
			State: p.state(),
			Stats: p.snapshotStats(),
		}
		out = append(out, info)
	}
	return out
}
