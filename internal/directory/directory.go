// Package directory implements uMiddle's directory module: "the exchange
// of device advertisements among hosts ... a discovery mechanism that
// allows notification about the presence of devices, across uMiddle
// runtimes, independent of the actual discovery protocols used by
// particular devices" (paper Section 3.2).
//
// Each runtime announces its local translators on a multicast group;
// peers integrate the announcements into their view of the intermediary
// semantic space. Anti-entropy is delta-based: registrations broadcast
// incremental "add" adverts, departures broadcast "remove", and the
// periodic tick shrinks to a constant-size "heartbeat" carrying a
// fingerprint of the sender's state. A receiver whose view diverges
// from the fingerprint requests a full "sync"; full-state broadcasts
// otherwise happen only on join and reconnect (AnnounceNow). A node
// that stays silent past its lease has its translators expired, which
// handles crashes and partitions. Every advert type has exactly one
// accepted form (DESIGN.md §10 lists the fields each one requires).
package directory

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/wal"
)

// Group is the multicast group used for advertisement exchange.
const Group = "umiddle-directory"

// Default timing parameters.
const (
	// DefaultAnnounceInterval is the heartbeat cadence.
	DefaultAnnounceInterval = 500 * time.Millisecond
	// DefaultRelayTTL bounds advert relay hops when no explicit RelayTTL
	// is configured.
	DefaultRelayTTL = 8
)

// ErrNotFound is returned when resolving an unknown translator.
var ErrNotFound = errors.New("directory: translator not found")

// Listener receives notifications when translators are mapped to or
// unmapped from the intermediary semantic space — the paper's
// DirectoryListener (Figure 6-(2)). Every notification is a batch: one
// advert, expiry sweep or interest change that maps or unmaps many
// translators at once (a full-state sync, a node death dropping
// hundreds of entries) is one call, and a single AddLocal or RemoveLocal
// is a one-element batch. The slices, and the profiles inside, are
// shared with the directory's internal state: they must be treated as
// read-only and are only valid for the duration of the call; listeners
// that need to retain a mutable copy must Clone it.
//
// Remote translators notify the net change each integrated advert makes,
// not every step on the owner: a remove and re-add notify Unmapped then
// Mapped only when the remove arrived first, and an add revoked before
// it went out notifies nothing. At quiescence the last notification per
// translator agrees with the owner's population.
type Listener interface {
	// TranslatorsMapped is called with every translator one change made
	// visible (or updated).
	TranslatorsMapped(ps []core.Profile)
	// TranslatorsUnmapped is called with every translator one change
	// removed.
	TranslatorsUnmapped(ids []core.TranslatorID)
}

// ListenerFuncs adapts per-translator functions to the Listener
// interface: each batch calls the function once per element, in batch
// order, on the notifying goroutine.
type ListenerFuncs struct {
	Mapped   func(p core.Profile)
	Unmapped func(id core.TranslatorID)
}

// TranslatorsMapped calls Mapped for each profile if Mapped is non-nil.
func (l ListenerFuncs) TranslatorsMapped(ps []core.Profile) {
	if l.Mapped == nil {
		return
	}
	for i := range ps {
		l.Mapped(ps[i])
	}
}

// TranslatorsUnmapped calls Unmapped for each ID if Unmapped is non-nil.
func (l ListenerFuncs) TranslatorsUnmapped(ids []core.TranslatorID) {
	if l.Unmapped == nil {
		return
	}
	for _, id := range ids {
		l.Unmapped(id)
	}
}

// NodeListener is an optional extension of Listener: registered listeners
// that also implement it are told when a peer node transitions between
// live and down. Liveness is tracked from announcement leases, so
// NodeDown fires promptly after a crash (lease lapse, not per-entry TTL
// drift) and immediately on a bye — once per transition either way.
type NodeListener interface {
	// NodeUp is called when a peer node is first heard from, or heard
	// again after having gone down.
	NodeUp(node string)
	// NodeDown is called when a peer node's lease lapses or it says bye.
	NodeDown(node string)
}

// advertTypes lists every advert type this directory emits for itself;
// metric series for all of them are registered up front so exposition
// is complete before the first broadcast. Zone bootstraps, sent on other
// nodes' behalf, have metrics of their own.
var advertTypes = []string{"announce", "heartbeat", "add", "remove", "sync", "sync_req", "bye", "restarting"}

// advert is the wire format of a directory announcement.
type advert struct {
	// Type is one of:
	//   "announce"  full local state, merge semantics (join, reconnect)
	//   "heartbeat" liveness + state fingerprint, no profiles
	//   "add"       incremental delta of newly registered translators
	//   "remove"    single/multiple translator unmapped
	//   "sync_req"  receiver's view of Target diverged; asks for a sync
	//   "sync"      full local state, reconcile semantics (entries of the
	//               sender missing from the advert are dropped)
	//   "bye"       node leaving
	//   "restarting" node shutting down cleanly with intent to return:
	//               receivers extend its lease to the advertised restart
	//               grace instead of dropping entries on the bye/lapse
	//               path. A node that never returns lapses at the end of
	//               the grace like any crash.
	//   "bootstrap" a relay replaying another node's zone to a new link
	//               neighbor on that owner's behalf: merge-only, carries
	//               no digest, never relayed (see bootstrapNeighbor)
	Type string `json:"type"`
	// Node is the announcing runtime.
	Node string `json:"node"`
	// Profiles carries the announced translators.
	Profiles []core.Profile `json:"profiles,omitempty"`
	// Removed carries unmapped translator IDs for "remove".
	Removed []core.TranslatorID `json:"removed,omitempty"`
	// LeaseMillis is the announcement's liveness lease in milliseconds:
	// the sender promises another advert within this window, and
	// receivers may declare the node down once it lapses. Zero (remove,
	// sync_req) keeps the receiver's current lease for the node, or its
	// own lease for a node it has not heard from.
	LeaseMillis int64 `json:"lease_ms,omitempty"`
	// Version counts the sender's local state changes.
	Version uint64 `json:"version,omitempty"`
	// Fp is the XOR of the sender's local profile fingerprints — a
	// content digest of its full local state. A receiver whose own
	// digest of the sender disagrees requests a sync.
	Fp uint64 `json:"fp,omitempty"`
	// Target names the node a "sync_req" is addressed to.
	Target string `json:"target,omitempty"`
	// Interest is the sender's interest summary, gossiped on heartbeats
	// and announces when interest filtering is enabled.
	Interest *InterestSummary `json:"interest,omitempty"`
	// Ifps carries the sender's per-interest state digests: for each
	// distinct peer interest summary the sender tracks (keyed by the
	// summary fingerprint in decimal), the XOR of the fingerprints of
	// the sender's local profiles matching it. A filtered receiver
	// compares its view against its own entry instead of Fp.
	Ifps map[string]uint64 `json:"ifps,omitempty"`
	// Filtered marks a profile-carrying advert whose list was restricted
	// to peer interests: receivers whose interest the sender provably
	// covered (their summary appears in Ifps) may still reconcile
	// against it; everyone else must treat it as merge-only.
	Filtered bool `json:"filtered,omitempty"`
	// Zone names the sender's own zone (the owner's, on a bootstrap).
	// Profile-carrying adverts without one are malformed.
	Zone string `json:"zone,omitempty"`
	// Seq numbers the origin's adverts monotonically so mesh relays can
	// suppress duplicates independent of delivery path.
	Seq uint64 `json:"aseq,omitempty"`
	// TTL bounds how many further relay hops the advert may take. Every
	// origin stamps its RelayTTL.
	TTL int `json:"ttl,omitempty"`
	// Via accumulates the relaying nodes, origin-side first. Receivers
	// reverse it into a next-hop route toward the origin.
	Via []string `json:"via,omitempty"`
	// Epoch is the sender's restart epoch: zero for nodes without durable
	// state, bumped once per warm restart otherwise. Receivers observing
	// a bump know the peer restarted cleanly (its warm state carried the
	// version vector across, so digests stay comparable).
	Epoch uint64 `json:"epoch,omitempty"`
}

// Options configures a Directory.
type Options struct {
	// AnnounceInterval overrides DefaultAnnounceInterval.
	AnnounceInterval time.Duration
	// Obs receives directory metrics and trace events; nil allocates a
	// private registry (readable via Obs()).
	Obs *obs.Registry
	// Logger receives diagnostics; nil disables logging.
	Logger *slog.Logger
	// Interest enables interest-driven selective propagation: the node
	// gossips its interest summary (registered queries and pinned
	// bindings; everything until the first registration), integrates
	// only matching remote profiles, and compares state digests scoped
	// to its interest. Senders filter regardless of this flag — it is
	// the receivers' declared interests that drive filtering.
	Interest bool
	// Remap mounts remote wire namespaces under local prefixes at advert
	// ingress; bindings are translated back at the boundary. Invalid
	// rule sets make New panic — validate with Options.Validate first.
	Remap []RemapRule
	// ACL admits or rejects advert ingress per boundary, first match
	// wins, default allow. Invalid rules make New panic.
	ACL []ACLRule
	// Zone names the namespace zone this node owns authoritatively.
	// Empty defaults to the node name — which is also the first path
	// segment of every local translator ID, so the default zone is
	// exactly the node's ID prefix.
	Zone string
	// Relay makes the node re-broadcast peer adverts onto its own
	// links, bridging mesh segments. Only useful on nodes that sit on
	// more than one link; duplicates are suppressed by per-origin
	// sequence windows and hops bounded by RelayTTL.
	Relay bool
	// RelayTTL bounds advert relay hops; zero selects DefaultRelayTTL.
	// It must exceed the mesh diameter for full advert coverage.
	RelayTTL int
	// WAL is an open durability log the directory replays at construction
	// (warm restart: local profiles, remote population, version vector)
	// and journals its state changes to. nil runs without persistence.
	// The directory does not close the log; its opener does, after Close.
	WAL *wal.Log
	// Lease tunes liveness-lease derivation, including the restart grace
	// peers grant on a clean "restarting" advert.
	Lease qos.LeasePolicy
}

// Validate checks the option set's remap and ACL rules. New panics on
// rules this rejects; front ends that take rule sets from configuration
// should call it and surface the error instead.
func (o Options) Validate() error {
	if _, err := newRemapper(o.Remap); err != nil {
		return err
	}
	_, err := newACLFilter(o.ACL)
	return err
}

func (o Options) withDefaults() Options {
	if o.AnnounceInterval <= 0 {
		o.AnnounceInterval = DefaultAnnounceInterval
	}
	o.Lease = o.Lease.WithDefaults()
	if o.RelayTTL <= 0 {
		o.RelayTTL = DefaultRelayTTL
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry()
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	return o
}

// localEntry pairs a sealed profile with its live translator and the
// profile's fingerprint (a term of the node's state digest).
type localEntry struct {
	profile    core.Profile
	translator core.Translator
	fp         uint64
}

// remoteEntry tracks a profile learned from another node. profile is
// the local view (ID possibly remapped); wireID is the ID as announced
// and fp the fingerprint of the announced profile — the anti-entropy
// digest is computed over wire state, so it stays comparable with the
// sender's regardless of local remapping.
type remoteEntry struct {
	profile core.Profile
	seen    time.Time
	fp      uint64
	wireID  core.TranslatorID
	// zone is the namespace zone the entry was announced under. Sync
	// reconciliation is scoped to it: a sync for one zone can only drop
	// ghosts labeled with that zone.
	zone string
}

// shadowEntry accounts for a profile denied by a local ACL rule: the
// sender counts it in its digests, so the receiver must fold its
// fingerprint into the node digest too or divergence detection would
// request syncs forever over an entry we refuse to hold.
type shadowEntry struct {
	node    string
	zone    string
	fp      uint64
	seen    time.Time
	profile core.Profile // wire profile, for re-evaluating interest
}

// nodeState tracks a remote node's liveness lease and the anti-entropy
// bookkeeping for it.
type nodeState struct {
	lastSeen time.Time
	lease    time.Duration
	// version is the node's last claimed state version.
	version uint64
	// lastSyncReq and syncReqWait rate-limit divergence-triggered sync
	// requests with exponential backoff. A bulk sync can take many
	// announce intervals to cross a slow wire and integrate; re-requesting
	// every interval while one is in flight makes the sender broadcast
	// another full sync per request — the amplification behind resync
	// storms on large populations. The wait starts at one announce
	// interval, doubles with every request (capped), and resets when a
	// sync from the node actually arrives.
	lastSyncReq time.Time
	syncReqWait time.Duration
	// lastBootstrap rate-limits zone bootstraps served to this node.
	lastBootstrap time.Time
	// epoch is the node's last claimed restart epoch (zero: no durable
	// state); a bump marks a clean warm restart.
	epoch uint64
}

// dirMetrics bundles the directory's metric handles, resolved once at
// construction so the hot paths never touch the registry map.
type dirMetrics struct {
	sent        map[string]*obs.Counter // advert type -> counter
	sentBytes   map[string]*obs.Counter // advert type -> payload bytes
	received    *obs.Counter
	malformed   *obs.Counter
	expired     *obs.Counter
	notifyLat   *obs.Histogram
	liveNodes   *obs.Gauge
	nodeDown    *obs.Counter
	indexSize   *obs.Gauge
	queryHits   *obs.Counter
	queryMisses *obs.Counter

	interestClauses *obs.Gauge
	ingressFiltered *obs.Counter
	egressFiltered  *obs.Counter
	aclDenied       *obs.Counter
	integratedBytes *obs.Counter

	relayed      *obs.Counter
	relayBytes   *obs.Counter
	relayDupDrop *obs.Counter
	relayTTLDrop *obs.Counter

	bootstrap      *obs.Counter
	bootstrapBytes *obs.Counter
}

// Directory is one runtime's view of the intermediary semantic space.
//
// Profiles are sealed on entry (cloned once, shape ports synced, never
// mutated again), so advert building, listener notification, and the
// read-path snapshot all share them without further copying.
type Directory struct {
	node  string
	zone  string
	host  *netemu.Host
	opts  Options
	met   dirMetrics
	trace *obs.Trace
	// advertSeq numbers this node's outgoing adverts for mesh duplicate
	// suppression. Seeded from the wall clock so a restarted node's
	// sequence restarts above anything peers have seen from its previous
	// incarnation.
	advertSeq atomic.Uint64
	// sendMu serializes advert emission against Close: the bye is sent
	// under it with closed already set, so any concurrent send that
	// re-checks closed under sendMu can no longer emit after the bye.
	// A heartbeat also reads its digest under it (sendHeartbeat).
	sendMu sync.Mutex
	// unsent counts state adverts (add, remove, announce, sync) whose
	// version and fingerprint were read under mu but which are not yet
	// on the wire. It rises under mu and falls after emission; a
	// heartbeat is held back while it is non-zero (see sendHeartbeat).
	unsent atomic.Int32
	// gen counts population mutations (bumped under mu); snap holds the
	// last published read-path view (see index.go). rebuildMu serializes
	// publishes and guards base, the indexed base they overlay.
	gen       atomic.Uint64
	snap      atomic.Pointer[view]
	rebuildMu sync.Mutex
	base      *snapshot

	mu        sync.RWMutex
	local     map[core.TranslatorID]localEntry
	remote    map[core.TranslatorID]remoteEntry
	nodes     map[string]*nodeState
	listeners []Listener
	// touched holds the IDs mutated since base was gathered. touchedAll
	// (touched nil) means too many, or no base yet: the next publish
	// rebuilds the base.
	touched      map[core.TranslatorID]struct{}
	touchedAll   bool
	started      bool
	closed       bool
	deltaPending bool
	syncPending  bool
	// syncWanted remembers a sync_req that arrived inside the rate-limit
	// window; the sync is scheduled when the window expires instead of
	// being dropped.
	syncWanted bool
	lastSync   time.Time
	// version counts local state changes; localFP is the XOR of local
	// profile fingerprints (this node's state digest on the wire).
	version uint64
	localFP uint64
	// nodeFP digests each remote node's entries as we hold them, compared
	// against the node's claimed Fp to detect divergence.
	nodeFP map[string]uint64
	// owners counts remote+shadow entries per owning node, so the expiry
	// tick can judge staleness over the handful of owner nodes instead of
	// sweeping the whole population (O(nodes) per tick, not O(entries)).
	owners map[string]int
	// pendingAdds names local translators registered since the last
	// broadcast (or removed again since: see RemoveLocal).
	pendingAdds map[core.TranslatorID]struct{}
	// timers tracks every outstanding AfterFunc handle (sync rate-limit,
	// warm-entry drop, neighbour bootstrap) so Close can stop them — an
	// untracked timer would fire into a closed directory and leak its
	// goroutine past wg.Wait.
	timers map[*time.Timer]struct{}
	// relaySeen holds a per-origin sliding sequence window for advert
	// duplicate suppression on meshes.
	relaySeen map[string]*seenWindow
	// routes maps remote nodes to the relay path (next hop first)
	// learned from advert Via hints; absent means directly reachable.
	routes map[string]*routeEntry
	// zones maps remote nodes to the zone they advertise; absent
	// defaults to the node name.
	zones map[string]string

	// wal is the durability log (nil: no persistence); epoch this
	// incarnation's restart counter, written once in New before any
	// concurrency. replayed records what the warm restart recovered;
	// lastSnapGen/lastSnapTime drive the compaction policy (under d.mu).
	wal          *wal.Log
	epoch        uint64
	replayed     ReplayStats
	lastSnapGen  uint64
	lastSnapTime time.Time

	// remap and acl are the boundary engines (a nil load: identity /
	// allow all). Atomic pointers so SetBoundary can hot-swap whole rule
	// sets while advert ingress keeps reading them lock-free.
	remap atomic.Pointer[remapper]
	acl   atomic.Pointer[aclFilter]
	// interest is this node's own interest state; ownSum/ownSumFP cache
	// its compiled summary.
	interest interestSet
	ownSum   *InterestSummary
	ownSumFP uint64
	// peerSum maps each live peer to the fingerprint of its declared
	// interest summary; ifp holds, per distinct summary, the shared
	// summary and the digest of local state restricted to it.
	peerSum map[string]uint64
	ifp     map[uint64]*peerIfp
	// shadow accounts for ACL-denied profiles (keyed by wire ID).
	shadow map[core.TranslatorID]shadowEntry

	group  *netemu.GroupConn
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// New creates a directory for the given node. host may be nil for a
// standalone (single-node) directory that performs no advertisement
// exchange. Invalid Remap or ACL rule sets are programmer errors and
// panic; validate untrusted configuration with Options.Validate.
func New(node string, host *netemu.Host, opts Options) *Directory {
	opts = opts.withDefaults()
	remap, err := newRemapper(opts.Remap)
	if err != nil {
		panic(err)
	}
	acl, err := newACLFilter(opts.ACL)
	if err != nil {
		panic(err)
	}
	reg := opts.Obs
	reg.Describe("umiddle_directory_adverts_sent_total", "Directory adverts broadcast, by advert type.")
	reg.Describe("umiddle_directory_advert_bytes_total", "Directory advert payload bytes broadcast, by advert type.")
	reg.Describe("umiddle_directory_adverts_received_total", "Directory adverts received from peer nodes.")
	reg.Describe("umiddle_directory_adverts_malformed_total", "Received adverts dropped as malformed.")
	reg.Describe("umiddle_directory_expired_total", "Remote translators expired after node silence.")
	reg.Describe("umiddle_directory_notify_latency_seconds", "Time to notify all listeners of one mapped/unmapped event.")
	reg.Describe("umiddle_directory_live_nodes", "Remote nodes currently holding a liveness lease.")
	reg.Describe("umiddle_directory_node_down_total", "Peer node down transitions observed (lease lapse or bye).")
	reg.Describe("umiddle_directory_index_size", "Profiles (local + remote) in the directory's lookup index.")
	reg.Describe("umiddle_directory_query_cache_hits_total", "Lookups answered from the per-snapshot query-result cache.")
	reg.Describe("umiddle_directory_query_cache_misses_total", "Lookups that ran the index candidate scan.")
	reg.Describe("umiddle_directory_interest_clauses", "Clauses in this node's interest summary (0: interested in everything).")
	reg.Describe("umiddle_directory_interest_ingress_filtered_total", "Advertised profiles skipped at ingress as outside this node's interest.")
	reg.Describe("umiddle_directory_interest_egress_suppressed_total", "Local profiles withheld from outgoing adverts as outside every peer's interest.")
	reg.Describe("umiddle_directory_acl_denied_total", "Adverts and advertised profiles rejected by boundary ACL rules.")
	reg.Describe("umiddle_directory_advert_bytes_integrated_total", "Profile-carrying advert payload bytes this node actually integrated.")
	reg.Describe("umiddle_directory_adverts_relayed_total", "Peer adverts re-broadcast onto this node's links (mesh relay).")
	reg.Describe("umiddle_directory_advert_relay_bytes_total", "Payload bytes of relayed peer adverts.")
	reg.Describe("umiddle_directory_relay_dup_dropped_total", "Received adverts dropped as duplicates of an already-seen origin sequence.")
	reg.Describe("umiddle_directory_relay_ttl_dropped_total", "Adverts not relayed further because their TTL was exhausted.")
	reg.Describe("umiddle_directory_bootstrap_adverts_total", "Zone bootstrap adverts served to link neighbors on another node's behalf.")
	reg.Describe("umiddle_directory_bootstrap_bytes_total", "Payload bytes of zone bootstrap adverts.")
	nl := obs.Labels{"node": node}
	d := &Directory{
		node: node,
		zone: cmp.Or(opts.Zone, node),
		host: host,
		opts: opts,
		met: dirMetrics{
			sent:        make(map[string]*obs.Counter, len(advertTypes)),
			sentBytes:   make(map[string]*obs.Counter, len(advertTypes)),
			received:    reg.Counter("umiddle_directory_adverts_received_total", nl),
			malformed:   reg.Counter("umiddle_directory_adverts_malformed_total", nl),
			expired:     reg.Counter("umiddle_directory_expired_total", nl),
			notifyLat:   reg.Histogram("umiddle_directory_notify_latency_seconds", nl, nil),
			liveNodes:   reg.Gauge("umiddle_directory_live_nodes", nl),
			nodeDown:    reg.Counter("umiddle_directory_node_down_total", nl),
			indexSize:   reg.Gauge("umiddle_directory_index_size", nl),
			queryHits:   reg.Counter("umiddle_directory_query_cache_hits_total", nl),
			queryMisses: reg.Counter("umiddle_directory_query_cache_misses_total", nl),

			interestClauses: reg.Gauge("umiddle_directory_interest_clauses", nl),
			ingressFiltered: reg.Counter("umiddle_directory_interest_ingress_filtered_total", nl),
			egressFiltered:  reg.Counter("umiddle_directory_interest_egress_suppressed_total", nl),
			aclDenied:       reg.Counter("umiddle_directory_acl_denied_total", nl),
			integratedBytes: reg.Counter("umiddle_directory_advert_bytes_integrated_total", nl),

			relayed:      reg.Counter("umiddle_directory_adverts_relayed_total", nl),
			relayBytes:   reg.Counter("umiddle_directory_advert_relay_bytes_total", nl),
			relayDupDrop: reg.Counter("umiddle_directory_relay_dup_dropped_total", nl),
			relayTTLDrop: reg.Counter("umiddle_directory_relay_ttl_dropped_total", nl),

			bootstrap:      reg.Counter("umiddle_directory_bootstrap_adverts_total", nl),
			bootstrapBytes: reg.Counter("umiddle_directory_bootstrap_bytes_total", nl),
		},
		trace:       reg.Trace(),
		local:       make(map[core.TranslatorID]localEntry),
		remote:      make(map[core.TranslatorID]remoteEntry),
		nodes:       make(map[string]*nodeState),
		nodeFP:      make(map[string]uint64),
		owners:      make(map[string]int),
		pendingAdds: make(map[core.TranslatorID]struct{}),
		interest:    newInterestSet(),
		peerSum:     make(map[string]uint64),
		ifp:         make(map[uint64]*peerIfp),
		shadow:      make(map[core.TranslatorID]shadowEntry),
		timers:      make(map[*time.Timer]struct{}),
		relaySeen:   make(map[string]*seenWindow),
		routes:      make(map[string]*routeEntry),
		zones:       make(map[string]string),
		touchedAll:  true,
	}
	d.remap.Store(remap)
	d.acl.Store(acl)
	// Wall-clock seed: a restarted incarnation must start its sequence
	// numbers above its predecessor's or peers' duplicate windows would
	// silence it.
	d.advertSeq.Store(uint64(time.Now().UnixNano()))
	d.ownSum = d.interest.summary()
	d.ownSumFP = d.ownSum.Fingerprint()
	for _, typ := range advertTypes {
		tl := obs.Labels{"node": node, "type": typ}
		d.met.sent[typ] = reg.Counter("umiddle_directory_adverts_sent_total", tl)
		d.met.sentBytes[typ] = reg.Counter("umiddle_directory_advert_bytes_total", tl)
	}
	if opts.WAL != nil {
		// Replay happens here, synchronously, before Start can spawn the
		// receive loop: the warm population is fully imported before the
		// first advert (or sync) is processed, so startup anti-entropy
		// always reconciles against complete state.
		d.wal = opts.WAL
		d.replayWAL()
	}
	return d
}

// Obs returns the registry collecting this directory's metrics.
func (d *Directory) Obs() *obs.Registry { return d.opts.Obs }

// Node returns the owning runtime's node name.
func (d *Directory) Node() string { return d.node }

// lease returns the liveness lease this node advertises.
func (d *Directory) lease() time.Duration {
	return d.opts.Lease.Lease(d.opts.AnnounceInterval)
}

// restartGrace returns how long peers are asked to hold this node's
// entries across a clean restart — also how long this node gives its own
// mappers to re-claim warm entries. It fits under clampLease's 10x-lease
// bound, so receivers apply it through the ordinary touchNode path.
func (d *Directory) restartGrace() time.Duration {
	return d.opts.Lease.RestartGrace(d.opts.AnnounceInterval)
}

// clampLease bounds a peer-claimed lease: a malformed or hostile advert
// must neither overflow the millisecond→Duration conversion nor pin a
// node (and its index entries) alive effectively forever.
func (d *Directory) clampLease(leaseMillis int64) time.Duration {
	if leaseMillis <= 0 {
		return 0
	}
	maxLease := 10 * d.lease()
	if maxLease < time.Minute {
		maxLease = time.Minute
	}
	if leaseMillis > int64(maxLease/time.Millisecond) {
		return maxLease
	}
	return time.Duration(leaseMillis) * time.Millisecond
}

// Start begins advertisement exchange and broadcasts the join announce
// before it returns. It is a no-op for standalone directories.
func (d *Directory) Start() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return fmt.Errorf("directory: %w", netemu.ErrClosed)
	}
	warm := 0
	if d.wal != nil && !d.started {
		for _, e := range d.local {
			if e.translator == nil {
				warm++
			}
		}
	}
	if d.started || d.host == nil {
		d.started = true
		d.mu.Unlock()
		d.scheduleWarmDrop(warm)
		return nil
	}
	group, err := d.host.JoinGroup(Group)
	if err != nil {
		d.mu.Unlock()
		return fmt.Errorf("directory: join group: %w", err)
	}
	d.group = group
	ctx, cancel := context.WithCancel(context.Background())
	d.cancel = cancel
	d.started = true
	d.wg.Add(2)
	go func() {
		defer d.wg.Done()
		d.receiveLoop()
	}()
	go func() {
		defer d.wg.Done()
		d.announceLoop(ctx)
	}()
	d.mu.Unlock()
	// Join: the one moment full state goes out unasked. Sent before
	// Start returns, so this node's first datagram is its own announce
	// and every later delta follows it.
	d.AnnounceNow()
	d.scheduleWarmDrop(warm)
	return nil
}

// scheduleWarmDrop arms the unclaimed-warm-entry sweep: recovered local
// profiles whose mapper has not re-registered them by the end of the
// restart grace are genuinely gone and must be withdrawn.
func (d *Directory) scheduleWarmDrop(warm int) {
	if warm == 0 {
		return
	}
	d.afterFunc(d.restartGrace(), d.dropUnclaimedWarm)
}

// Close stops advertisement exchange, sends a bye, and clears state.
// After Close, AddLocal and RemoveLocal fail with ErrClosed and no
// further adverts are emitted.
func (d *Directory) Close() error { return d.close(false) }

// CloseForRestart is Close with intent to return: instead of a bye — which
// makes peers drop this node's entries immediately — it broadcasts a
// "restarting" advert asking them to hold the entries for the restart
// grace. Combined with the snapshot both close paths take, the successor
// incarnation (constructed over the same WAL) rejoins with a warm
// population and peers that never stopped serving its profiles.
func (d *Directory) CloseForRestart() error { return d.close(true) }

func (d *Directory) close(restart bool) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	if d.wal != nil {
		// Final snapshot under the same lock acquisition that flips
		// closed: nothing can mutate between the persisted state and the
		// state peers last heard about.
		if err := d.snapshotLocked(); err != nil {
			d.opts.Logger.Warn("directory: close snapshot", "err", err)
		}
	}
	d.closed = true
	group := d.group
	cancel := d.cancel
	timers := d.timers
	d.timers = nil
	d.mu.Unlock()

	// Stop every tracked AfterFunc. Stop() == true means the callback
	// will never run, so its wg slot must be released here; a false
	// return means the callback is already in flight — it observes
	// closed, skips its work, and releases the slot itself.
	for t := range timers {
		if t.Stop() {
			d.wg.Done()
		}
	}
	if group != nil {
		// Sent directly rather than via send(), which refuses once the
		// directory is closed: the farewell is the one advert that must
		// still go out, and it must be the last — sendOn serializes
		// emission under sendMu and re-checks closed there, so a delta or
		// sync that raced past its own closed check can no longer
		// broadcast after this.
		farewell := advert{Type: "bye", Node: d.node, Zone: d.zone}
		if restart {
			farewell = advert{
				Type: "restarting", Node: d.node, Zone: d.zone,
				LeaseMillis: int64(d.restartGrace() / time.Millisecond),
			}
		}
		d.sendOn(group, farewell)
	}
	if cancel != nil {
		cancel()
	}
	if group != nil {
		group.Close()
	}
	d.wg.Wait()
	return nil
}

// afterFunc schedules fn on a timer that is tracked for Close: the
// callback is accounted in d.wg, skipped once the directory closes, and
// the handle stopped by Close so it cannot fire afterwards. Nothing is
// scheduled once the directory is closed.
func (d *Directory) afterFunc(delay time.Duration, fn func()) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	d.wg.Add(1)
	var t *time.Timer
	t = time.AfterFunc(delay, func() {
		defer d.wg.Done()
		d.mu.Lock()
		delete(d.timers, t)
		closed := d.closed
		d.mu.Unlock()
		if !closed {
			fn()
		}
	})
	d.timers[t] = struct{}{}
}

// AddLocal registers a local translator and announces it. The profile is
// sealed here — cloned once with shape ports synced — and that sealed
// copy is what adverts, listeners, and the lookup index share.
func (d *Directory) AddLocal(tr core.Translator) error {
	p := tr.Profile()
	if err := p.Validate(); err != nil {
		return err
	}
	if p.Node != d.node {
		return fmt.Errorf("directory: profile node %q != directory node %q", p.Node, d.node)
	}
	sealed := p.Clone()
	sealed.SyncShapePorts()
	fp := sealed.Fingerprint()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return fmt.Errorf("directory: %w", netemu.ErrClosed)
	}
	if prev, dup := d.local[sealed.ID]; dup {
		if prev.translator != nil {
			d.mu.Unlock()
			return fmt.Errorf("directory: translator %q already registered", sealed.ID)
		}
		// Re-claiming a warm entry recovered from the log. Identical
		// profile: attach the live translator silently — no version bump,
		// no advert, no re-notify; peers held the entry across the restart
		// and listeners learned it at replay. A changed profile falls
		// through as an update: the old fingerprint is folded out and the
		// registration proceeds like a fresh add (merge semantics on the
		// wire update peers in place).
		if prev.fp == fp {
			prev.translator = tr
			d.local[sealed.ID] = prev
			d.mu.Unlock()
			d.trace.Event("translator_reclaimed", d.node, string(sealed.ID))
			return nil
		}
		d.version++
		d.localFP ^= prev.fp
		d.xorIfpsLocked(prev.profile, prev.fp)
		d.appendWAL(recLocalRemove, persistRemove{ID: sealed.ID})
	}
	d.local[sealed.ID] = localEntry{profile: sealed, translator: tr, fp: fp}
	d.appendWAL(recLocalAdd, persistLocal{Profile: sealed, Fp: fp})
	d.version++
	d.localFP ^= fp
	d.xorIfpsLocked(sealed, fp)
	d.pendingAdds[sealed.ID] = struct{}{}
	if !d.deltaPending {
		d.deltaPending = true
		d.goLocked(d.flushDelta)
	}
	d.touchLocked(sealed.ID)
	listeners := append([]Listener(nil), d.listeners...)
	d.mu.Unlock()

	d.trace.Event("translator_mapped", d.node, string(sealed.ID))
	if len(listeners) > 0 { // the batch escapes: build it only when heard
		d.notifyMapped(listeners, []core.Profile{sealed})
	}
	return nil
}

// RemoveLocal unregisters a local translator and propagates the removal.
// It fails with ErrClosed after Close so shutdown races cannot emit
// stray adverts.
func (d *Directory) RemoveLocal(id core.TranslatorID) (core.Translator, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, fmt.Errorf("directory: %w", netemu.ErrClosed)
	}
	entry, ok := d.local[id]
	if !ok {
		d.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	delete(d.local, id)
	d.appendWAL(recLocalRemove, persistRemove{ID: id})
	// If the add is still pending, peers never learned the id: suppress
	// the remove advert. The id stays pending as the flusher's mark that
	// the digest moved (see flushDelta).
	_, unannounced := d.pendingAdds[id]
	d.version++
	d.localFP ^= entry.fp
	d.xorIfpsLocked(entry.profile, entry.fp)
	d.touchLocked(id)
	version, fp := d.version, d.localFP
	ifps := d.ifpsLocked()
	if !unannounced {
		d.unsent.Add(1)
	}
	listeners := append([]Listener(nil), d.listeners...)
	d.mu.Unlock()

	d.trace.Event("translator_unmapped", d.node, string(id))
	// Listeners and the advert only read the batch, so one slice serves
	// both; it escapes, so it is built only when one of them needs it.
	var removed []core.TranslatorID
	if len(listeners) > 0 || !unannounced {
		removed = []core.TranslatorID{id}
	}
	d.notifyUnmapped(listeners, removed)
	if !unannounced {
		d.sendState(advert{Type: "remove", Node: d.node, Zone: d.zone, Removed: removed, Version: version, Fp: fp, Ifps: ifps})
	}
	return entry.translator, nil
}

// xorIfpsLocked folds a local profile's fingerprint into (or out of)
// every tracked per-interest digest it matches. Caller holds d.mu.
func (d *Directory) xorIfpsLocked(p core.Profile, fp uint64) {
	for _, e := range d.ifp {
		if e.sum.Matches(p) {
			e.fp ^= fp
		}
	}
}

// ifpsLocked snapshots the per-interest digests in wire form (keyed by
// the summary fingerprint in decimal). Caller holds d.mu.
func (d *Directory) ifpsLocked() map[string]uint64 {
	if len(d.ifp) == 0 {
		return nil
	}
	m := make(map[string]uint64, len(d.ifp))
	for sumFP, e := range d.ifp {
		m[strconv.FormatUint(sumFP, 10)] = e.fp
	}
	return m
}

// notifyMapped fans one change's worth of mapped translators out to
// every listener, timing the full fan-out — the listener-notify latency
// the paper's monitoring dimension calls for (a slow listener stalls
// discovery propagation). The sealed profiles are shared across
// listeners (see Listener's read-only contract).
func (d *Directory) notifyMapped(listeners []Listener, ps []core.Profile) {
	if len(listeners) == 0 || len(ps) == 0 {
		return
	}
	start := time.Now()
	for _, l := range listeners {
		l.TranslatorsMapped(ps)
	}
	d.met.notifyLat.ObserveDuration(time.Since(start))
}

// notifyUnmapped is notifyMapped's counterpart for departures.
func (d *Directory) notifyUnmapped(listeners []Listener, ids []core.TranslatorID) {
	if len(listeners) == 0 || len(ids) == 0 {
		return
	}
	start := time.Now()
	for _, l := range listeners {
		l.TranslatorsUnmapped(ids)
	}
	d.met.notifyLat.ObserveDuration(time.Since(start))
}

// goLocked runs fn on a goroutine Close waits for. The caller holds d.mu
// and has seen the directory open, so wg.Add precedes Close's wg.Wait.
func (d *Directory) goLocked(fn func()) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		fn()
	}()
}

// flushDelta is the delta flusher, started by the first AddLocal after
// idle. Each pass broadcasts the pending adds as one "add" advert; adds
// arriving meanwhile fold into the next pass, and the flusher clears
// deltaPending only when a pass finds nothing pending. AddLocal never
// sends inline: a sequential burst would cost one advert per add. A
// full-state broadcast (AnnounceNow, sync) absorbs whatever is pending.
// A pass left with only IDs removed again (see RemoveLocal) broadcasts
// the settled digest as a heartbeat, so peers see a clean no-op rather
// than a version gap.
func (d *Directory) flushDelta() {
	for {
		d.mu.Lock()
		if d.closed || len(d.pendingAdds) == 0 {
			d.deltaPending = false
			d.mu.Unlock()
			return
		}
		profiles := make([]core.Profile, 0, len(d.pendingAdds))
		for id := range d.pendingAdds {
			if e, ok := d.local[id]; ok {
				profiles = append(profiles, e.profile)
			}
		}
		clear(d.pendingAdds)
		profiles, filtered := d.egressFilterLocked(profiles)
		version, fp := d.version, d.localFP
		ifps := d.ifpsLocked()
		if len(profiles) > 0 {
			d.unsent.Add(1)
		}
		d.mu.Unlock()
		if len(profiles) == 0 {
			d.sendHeartbeat(false)
			continue
		}
		d.sendState(advert{
			Type: "add", Node: d.node, Zone: d.zone, Profiles: profiles,
			LeaseMillis: int64(d.lease() / time.Millisecond),
			Version:     version, Fp: fp, Ifps: ifps, Filtered: filtered,
		})
	}
}

// Local resolves a locally hosted translator. A warm entry recovered
// from the log but not yet re-claimed by its mapper resolves false: the
// profile is visible, but there is no live translator to deliver to yet.
func (d *Directory) Local(id core.TranslatorID) (core.Translator, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	e, ok := d.local[id]
	if !ok || e.translator == nil {
		return nil, false
	}
	return e.translator, true
}

// Lookup returns profiles of translators matching the query — the
// paper's Figure 6-(1) API. Both local and remote translators are
// returned, sorted by (Node, ID) so dynamic binding and tests see a
// deterministic order rather than Go map iteration order. Matching runs
// against the published view (see index.go): repeated queries are
// answered from the indexed base's result cache, merged with the few
// entries changed since.
//
// The returned slice is the caller's, but the profiles in it are shared
// with the directory's sealed state and must be treated as read-only,
// as with Resolve: their Attributes maps and port slices are never to
// be written. A caller that needs to mutate one must Clone it.
func (d *Directory) Lookup(q core.Query) []core.Profile {
	return d.view().lookup(q, &d.met)
}

// Resolve returns the profile for a translator ID, local or remote. The
// returned profile is shared with the directory's sealed state and must
// be treated as read-only (every call used to pay a deep clone, which
// dominated the transport's failover rebind loop; callers that need to
// mutate must Clone).
func (d *Directory) Resolve(id core.TranslatorID) (core.Profile, error) {
	if p, ok := d.view().resolve(id); ok {
		return p, nil
	}
	return core.Profile{}, fmt.Errorf("%w: %q", ErrNotFound, id)
}

// AddListener registers a notification listener — the paper's Figure
// 6-(2) API. The listener immediately receives every currently known
// translator in one TranslatorsMapped call, so callers need not race
// discovery.
func (d *Directory) AddListener(l Listener) {
	d.mu.Lock()
	d.listeners = append(d.listeners, l)
	known := make([]core.Profile, 0, len(d.local)+len(d.remote))
	for _, e := range d.local {
		known = append(known, e.profile)
	}
	for _, e := range d.remote {
		known = append(known, e.profile)
	}
	d.mu.Unlock()
	if len(known) > 0 {
		l.TranslatorsMapped(known)
	}
}

// Size returns the numbers of local and remote translators known.
func (d *Directory) Size() (local, remote int) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.local), len(d.remote)
}

// Nodes returns the names of remote nodes currently holding a liveness
// lease, sorted.
func (d *Directory) Nodes() []string {
	return slices.Clone(d.view().nodes)
}

// MapID translates a wire translator ID into the local namespace under
// the directory's Remap rules (identity without rules).
func (d *Directory) MapID(id core.TranslatorID) core.TranslatorID {
	return d.remap.Load().mapID(id)
}

// WireID translates a local (possibly remapped) translator ID back to
// its wire form — what the owning node knows the translator as. The
// transport crosses the boundary with it when binding through a
// remapped name. The stored entry's recorded wire identity is
// authoritative and consulted first: it is what the owner actually
// announced, so already-bound paths keep addressing correctly even
// while remap rules are being swapped out underneath them by a hot
// config apply.
func (d *Directory) WireID(id core.TranslatorID) core.TranslatorID {
	d.mu.RLock()
	e, ok := d.remote[id]
	d.mu.RUnlock()
	if ok {
		return e.wireID
	}
	return d.remap.Load().wireID(id)
}

// SetBoundary replaces the remap and ACL rule sets at runtime — the
// hot-reload path for boundary configuration. Invalid rules are rejected
// with no change applied. Entries already integrated keep their stored
// wire identity (see WireID), so bound paths through previously remapped
// names survive the swap; new rules govern ingress from the next advert
// on, and a boundary now denied converges through the usual sync and
// lease machinery rather than an immediate purge.
func (d *Directory) SetBoundary(remapRules []RemapRule, aclRules []ACLRule) error {
	rm, err := newRemapper(remapRules)
	if err != nil {
		return err
	}
	af, err := newACLFilter(aclRules)
	if err != nil {
		return err
	}
	d.remap.Store(rm)
	d.acl.Store(af)
	d.trace.Event("boundary_updated", d.node, "")
	return nil
}

// InterestSummary returns the node's current compiled interest summary.
func (d *Directory) InterestSummary() *InterestSummary {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.ownSum
}

// RegisterInterest adds a query predicate to the node's interest set,
// returning a cancel function. The query is summarized (ExcludeID
// dropped — see core.Query.Summarize) and refcounted: the set, compiled
// into an InterestSummary, is what peers filter their adverts against
// when Options.Interest is enabled. Until the first registration the
// node is interested in everything.
func (d *Directory) RegisterInterest(q core.Query) func() {
	// Without interest filtering the set is never consulted and never
	// gossiped; maintaining it would still recompile the sorted summary
	// on every unique registration — O(N log N) per dynamic path, which
	// turns quadratic when a load harness installs 100k+ bindings.
	if !d.opts.Interest {
		return func() {}
	}
	sq := q.Summarize()
	d.mu.Lock()
	changed := d.interest.addQuery(sq)
	d.mu.Unlock()
	if changed {
		d.applyInterestChange()
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			d.mu.Lock()
			changed := d.interest.dropQuery(sq)
			d.mu.Unlock()
			if changed {
				d.applyInterestChange()
			}
		})
	}
}

// RegisterIDInterest pins one translator — named by its local, possibly
// remapped, ID — into the node's interest set, returning a cancel
// function. Static bindings use it so the bound peer's profile keeps
// flowing even under filtering.
func (d *Directory) RegisterIDInterest(id core.TranslatorID) func() {
	if !d.opts.Interest {
		return func() {} // see RegisterInterest
	}
	wire := d.remap.Load().wireID(id)
	d.mu.Lock()
	changed := d.interest.addID(wire)
	d.mu.Unlock()
	if changed {
		d.applyInterestChange()
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			d.mu.Lock()
			changed := d.interest.dropID(wire)
			d.mu.Unlock()
			if changed {
				d.applyInterestChange()
			}
		})
	}
}

// applyInterestChange recompiles the interest summary after a set
// mutation, prunes held state that fell outside the narrowed interest
// (keeping the node digests consistent with the senders' per-interest
// digests), and gossips the new summary on an immediate heartbeat.
// Widening converges through the usual divergence path: the scoped
// digest comparison fails once senders learn the new summary, and the
// resulting sync carries the newly interesting entries.
func (d *Directory) applyInterestChange() {
	d.mu.Lock()
	d.ownSum = d.interest.summary()
	d.ownSumFP = d.ownSum.Fingerprint()
	d.met.interestClauses.Set(int64(d.ownSum.Clauses()))
	var dropped []core.TranslatorID
	var listeners []Listener
	if d.opts.Interest && !d.closed && !d.ownSum.All {
		for id, e := range d.remote {
			wp := e.profile
			wp.ID = e.wireID
			if !d.ownSum.Matches(wp) {
				delete(d.remote, id)
				d.xorNodeFP(e.profile.Node, e.fp)
				d.ownerDrop(e.profile.Node)
				dropped = append(dropped, id)
			}
		}
		for id, e := range d.shadow {
			if !d.ownSum.Matches(e.profile) {
				delete(d.shadow, id)
				d.xorNodeFP(e.node, e.fp)
				d.ownerDrop(e.node)
			}
		}
		if len(dropped) > 0 {
			d.touchLocked(dropped...)
			listeners = append([]Listener(nil), d.listeners...)
		}
	}
	enabled := d.opts.Interest && !d.closed
	d.mu.Unlock()
	for _, id := range dropped {
		d.trace.Event("translator_unmapped", d.node, string(id))
	}
	d.notifyUnmapped(listeners, dropped)
	if enabled {
		d.sendHeartbeat(true)
	}
}

// AnnounceNow broadcasts the full local state immediately with merge
// semantics. Full-state broadcasts are the exception under the delta
// protocol: they happen on join (Start), when the transport re-
// establishes a peer connection after a partition (so neighbors that
// expired our translators relearn them promptly), and as "sync"
// responses to divergence reports.
func (d *Directory) AnnounceNow() {
	d.sendFullState("announce")
}

// sendFullState broadcasts every local profile as typ ("announce" or
// "sync"). Any delta not yet taken by the flusher is absorbed: the full
// state supersedes it. When every live peer has declared a
// concrete interest, the profile list is filtered to their union and
// the advert marked Filtered.
func (d *Directory) sendFullState(typ string) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	profiles := make([]core.Profile, 0, len(d.local))
	for _, e := range d.local {
		profiles = append(profiles, e.profile)
	}
	clear(d.pendingAdds)
	profiles, filtered := d.egressFilterLocked(profiles)
	version, fp := d.version, d.localFP
	ifps := d.ifpsLocked()
	var interest *InterestSummary
	if d.opts.Interest {
		interest = d.ownSum
	}
	if typ == "sync" {
		d.lastSync = time.Now()
	}
	d.unsent.Add(1)
	d.mu.Unlock()
	d.sendState(advert{
		Type: typ, Node: d.node, Zone: d.zone, Profiles: profiles,
		LeaseMillis: int64(d.lease() / time.Millisecond),
		Version:     version, Fp: fp,
		Ifps: ifps, Filtered: filtered, Interest: interest,
	})
}

// egressFilterLocked restricts an outgoing profile batch to the union
// of the live peers' interests. Filtering engages only when every live
// peer has declared a concrete (non-All) interest summary: a peer whose
// interest is unknown — just joined, or running unfiltered —
// must keep receiving everything. Caller holds d.mu.
func (d *Directory) egressFilterLocked(profiles []core.Profile) ([]core.Profile, bool) {
	if len(profiles) == 0 || len(d.nodes) == 0 {
		return profiles, false
	}
	sums := make([]*InterestSummary, 0, len(d.peerSum))
	for node := range d.nodes {
		sumFP, ok := d.peerSum[node]
		if !ok {
			return profiles, false
		}
		e := d.ifp[sumFP]
		if e == nil || e.sum.All {
			return profiles, false
		}
		sums = append(sums, e.sum)
	}
	kept := profiles[:0]
	for _, p := range profiles {
		for _, s := range sums {
			if s.Matches(p) {
				kept = append(kept, p)
				break
			}
		}
	}
	if dropped := len(profiles) - len(kept); dropped > 0 {
		d.met.egressFiltered.Add(uint64(dropped))
		return kept, true
	}
	return kept, false
}

// scheduleSync answers a sync_req with a rate-limited full "sync"
// broadcast: requests arriving before it is on the wire (a batch of late
// joiners) are served by that one advert, and a flapping peer cannot
// make us spam full state more than once per announce interval.
func (d *Directory) scheduleSync() {
	d.mu.Lock()
	if d.closed || d.syncPending {
		d.mu.Unlock()
		return
	}
	if wait := d.opts.AnnounceInterval - time.Since(d.lastSync); wait > 0 {
		// Inside the rate-limit window. Dropping the request here would
		// leave the diverged peer waiting out its own sync_req limiter —
		// the two limiters beat against each other and convergence can
		// stretch across many intervals. Remember the need and serve it
		// the moment the window expires.
		if !d.syncWanted {
			d.syncWanted = true
			d.mu.Unlock()
			d.afterFunc(wait, func() {
				d.mu.Lock()
				d.syncWanted = false
				d.mu.Unlock()
				d.scheduleSync()
			})
			return
		}
		d.mu.Unlock()
		return
	}
	d.syncPending = true
	d.goLocked(func() {
		d.sendFullState("sync")
		d.mu.Lock()
		d.syncPending = false
		d.mu.Unlock()
	})
	d.mu.Unlock()
}

// sendHeartbeat broadcasts the constant-size liveness advert: lease,
// state version, and state fingerprint. This is the entire steady-state
// anti-entropy traffic — O(1) per interval instead of O(population).
// Its digest must be one peers can already hold, or they request a full
// sync over a change still on its way: it is read and sent under
// sendMu, so no state advert read after it reaches the wire first, and
// unless force is set (an interest change, whose summary only
// heartbeats carry) it is skipped while an add is pending or a state
// advert is read but unsent; that advert carries the digest and renews
// the lease.
func (d *Directory) sendHeartbeat(force bool) {
	d.sendMu.Lock()
	defer d.sendMu.Unlock()
	d.mu.RLock()
	group := d.group
	if group == nil || !force && (len(d.pendingAdds) > 0 || d.unsent.Load() > 0) {
		d.mu.RUnlock()
		return
	}
	version, fp := d.version, d.localFP
	ifps := d.ifpsLocked()
	var interest *InterestSummary
	if d.opts.Interest {
		interest = d.ownSum
	}
	d.mu.RUnlock()
	d.sendOnLocked(group, advert{
		Type: "heartbeat", Node: d.node, Zone: d.zone,
		LeaseMillis: int64(d.lease() / time.Millisecond),
		Version:     version, Fp: fp,
		Ifps: ifps, Interest: interest,
	})
}

// sendState sends a state advert counted in unsent, then uncounts it.
func (d *Directory) sendState(a advert) {
	d.send(a)
	d.unsent.Add(-1)
}

func (d *Directory) send(a advert) {
	d.mu.RLock()
	group := d.group
	closed := d.closed
	d.mu.RUnlock()
	if group == nil || closed {
		return
	}
	d.sendOn(group, a)
}

// sendOn numbers and broadcasts one of this node's adverts on the given
// group. Close uses it directly for the final bye.
func (d *Directory) sendOn(group *netemu.GroupConn, a advert) {
	d.sendMu.Lock()
	defer d.sendMu.Unlock()
	d.sendOnLocked(group, a)
}

// sendOnLocked is sendOn with sendMu held.
func (d *Directory) sendOnLocked(group *netemu.GroupConn, a advert) {
	a.Seq = d.advertSeq.Add(1)
	a.Epoch = d.epoch // written once in New, before any concurrency
	a.TTL = d.opts.RelayTTL
	d.emitLocked(group, a, d.met.sent[a.Type], d.met.sentBytes[a.Type])
}

// emitLocked marshals and broadcasts one advert, counting it in n and
// bytes. Caller holds sendMu: emission is serialized under it with a
// closed re-check so nothing can hit the wire after the bye. A sender
// (timer callback, relay, bootstrap) that passed its own closed check
// before Close flipped the flag parks here until the bye is out, then
// refuses; only this node's farewell (bye or restarting), which the
// close paths send with closed already set, goes out after.
func (d *Directory) emitLocked(group *netemu.GroupConn, a advert, n, bytes *obs.Counter) {
	d.mu.RLock()
	closed := d.closed
	d.mu.RUnlock()
	if closed && (a.Node != d.node || a.Type != "bye" && a.Type != "restarting") {
		return
	}
	data, err := json.Marshal(a)
	if err != nil {
		d.opts.Logger.Error("directory: marshal advert", "type", a.Type, "err", err)
		return
	}
	n.Inc()
	bytes.Add(uint64(len(data)))
	if err := group.Send(data); err != nil && !errors.Is(err, netemu.ErrClosed) {
		d.opts.Logger.Warn("directory: send advert", "type", a.Type, "err", err)
	}
}

func (d *Directory) announceLoop(ctx context.Context) {
	ticker := time.NewTicker(d.opts.AnnounceInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			d.sendHeartbeat(false)
			d.expireNodes()
			d.expireStale()
			d.maybeSnapshot()
		}
	}
}

func (d *Directory) receiveLoop() {
	for {
		dg, err := d.group.Recv()
		if err != nil {
			return // closed
		}
		if dg.From == d.host.Name() {
			continue // our own announcement
		}
		// A closing directory drains its inbox without integrating: the
		// snapshot is already cut, and decoding a backlog of bulk syncs
		// here would stall Close behind megabytes of work it is about to
		// throw away.
		d.mu.RLock()
		closed := d.closed
		d.mu.RUnlock()
		if closed {
			continue
		}
		d.met.received.Inc()
		var a advert
		if err := json.Unmarshal(dg.Payload, &a); err != nil {
			d.met.malformed.Inc()
			d.opts.Logger.Warn("directory: bad advert", "from", dg.From, "err", err)
			continue
		}
		d.handleAdvertSized(a, len(dg.Payload))
	}
}

func (d *Directory) handleAdvert(a advert) {
	d.handleAdvertSized(a, 0)
}

// handleAdvertSized processes one advert; payloadBytes (0 when unknown)
// feeds the integrated-bytes accounting for profile-carrying adverts.
func (d *Directory) handleAdvertSized(a advert, payloadBytes int) {
	// Our own adverts echoed back through a relay are routine on a mesh
	// (the relay cannot know the origin also hears its link) — drop
	// silently, before the spoof check below counts them as malformed.
	if a.Node == d.node && len(a.Via) > 0 {
		return
	}
	// No advert legitimately names an empty node or this node itself:
	// our own datagrams are filtered by sender in receiveLoop, so a
	// self-node advert is spoofed or looped and an empty-node one would
	// plant ghost state no bye or lease lapse could ever clean up.
	if a.Node == "" || a.Node == d.node {
		d.met.malformed.Inc()
		d.opts.Logger.Warn("directory: rejecting self/empty-node advert", "type", a.Type, "node", a.Node)
		return
	}
	// Every profile-carrying advert names the zone its entries belong to;
	// one without is malformed and changes no state.
	if a.Zone == "" && carriesProfiles(a.Type) {
		d.met.malformed.Inc()
		d.opts.Logger.Warn("directory: rejecting zone-less advert", "type", a.Type, "node", a.Node)
		return
	}
	// Boundary ACL: a node every rule denies is rejected before it can
	// touch liveness state — no nodeState, no lease, no sync churn.
	if d.acl.Load().nodeDenied(a.Node) {
		d.met.aclDenied.Inc()
		return
	}
	// Mesh duplicate suppression: an advert reaching us over several
	// relay paths is processed (and re-relayed) exactly once. Unnumbered
	// adverts (zone bootstraps, tests) are never deduplicated.
	if a.Seq != 0 && d.dupAdvert(a.Node, a.Seq) {
		d.met.relayDupDrop.Inc()
		return
	}
	d.noteMesh(a)
	if a.Interest != nil {
		d.trackPeerInterest(a.Node, a.Interest)
	}
	switch a.Type {
	case "announce", "add", "bootstrap":
		// "announce" (full state), "add" (incremental delta) and
		// "bootstrap" (a relay replaying an owner's zone) integrate with
		// the same merge semantics; dropping stale entries is sync's job.
		d.touchNode(a.Node, a.LeaseMillis)
		kept := d.ingestProfiles(a.Profiles, a.Zone)
		d.countIntegrated(payloadBytes, kept, len(a.Profiles))
		if a.Type == "bootstrap" {
			// Merge only: it carries no digest of the owner's (a sync_req
			// would cross the mesh to the owner, the traffic bootstrap
			// exists to avoid), and it is neither relayed nor answered with
			// a bootstrap of our own.
			return
		}
		d.noteNodeState(a)
	case "heartbeat":
		d.touchNode(a.Node, a.LeaseMillis)
		d.noteNodeState(a)
	case "remove":
		// A remove proves the sender is alive just as an announce does.
		d.touchNode(a.Node, 0)
		d.dropRemotes(a.Removed)
		d.noteNodeState(a)
	case "sync":
		d.touchNode(a.Node, a.LeaseMillis)
		// The sync we asked for (or one another peer provoked) arrived:
		// whatever backoff accumulated while it crossed the wire is void.
		// If the reconcile below still leaves us diverged, the very next
		// advert may re-request at the base interval.
		d.resetSyncBackoff(a.Node)
		kept := d.reconcile(a)
		d.countIntegrated(payloadBytes, kept, len(a.Profiles))
		d.noteNodeState(a)
	case "sync_req":
		d.touchNode(a.Node, 0)
		if a.Target == d.node {
			d.scheduleSync()
		}
	case "bye":
		d.dropNode(a.Node, "translator_unmapped")
	case "restarting":
		// Clean restart announced: extend the node's lease to its restart
		// grace and keep every entry. If the node returns in time, its
		// announce renews the ordinary lease (and its bumped epoch marks
		// the restart); if it never does, the grace lapses into the same
		// expiry path a crash takes.
		d.touchNode(a.Node, a.LeaseMillis)
		d.trace.Event("node_restarting", d.node, a.Node)
	default:
		d.met.malformed.Inc()
		d.opts.Logger.Warn("directory: unknown advert type", "type", a.Type)
	}
	if a.Epoch != 0 {
		d.noteEpoch(a.Node, a.Epoch)
	}
	if a.Type == "announce" && len(a.Via) == 0 {
		// A direct announce is a neighbor joining (or rejoining) our
		// link: offer it the zones we hold so it need not pull each one
		// from its owner across the mesh.
		d.maybeBootstrap(a.Node)
	}
	if d.opts.Relay {
		d.relay(a)
	}
}

// carriesProfiles reports whether an advert type carries profiles, and
// so must name the zone they belong to.
func carriesProfiles(typ string) bool {
	switch typ {
	case "announce", "add", "sync", "bootstrap":
		return true
	}
	return false
}

// countIntegrated attributes a profile-carrying advert's payload bytes
// to this node in proportion to the profiles it actually integrated —
// the dirscale experiment's measure of per-node integration cost.
func (d *Directory) countIntegrated(payloadBytes, kept, total int) {
	if payloadBytes <= 0 || total == 0 || kept <= 0 {
		return
	}
	d.met.integratedBytes.Add(uint64(payloadBytes * kept / total))
}

// trackPeerInterest records a peer's declared interest summary,
// maintaining the refcounted per-summary filtered digests senders
// attach to their adverts (advert.Ifps).
func (d *Directory) trackPeerInterest(node string, sum *InterestSummary) {
	if err := sum.Validate(); err != nil {
		d.met.malformed.Inc()
		d.opts.Logger.Warn("directory: bad interest summary", "node", node, "err", err)
		return
	}
	sumFP := sum.Fingerprint()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	if prev, ok := d.peerSum[node]; ok {
		if prev == sumFP {
			return
		}
		d.releaseIfpLocked(prev)
	}
	d.peerSum[node] = sumFP
	e := d.ifp[sumFP]
	if e == nil {
		e = &peerIfp{sum: sum}
		for _, le := range d.local {
			if sum.Matches(le.profile) {
				e.fp ^= le.fp
			}
		}
		d.ifp[sumFP] = e
	}
	e.refs++
}

// releaseIfpLocked drops one reference on a tracked peer summary.
// Caller holds d.mu.
func (d *Directory) releaseIfpLocked(sumFP uint64) {
	e := d.ifp[sumFP]
	if e == nil {
		return
	}
	e.refs--
	if e.refs <= 0 {
		delete(d.ifp, sumFP)
	}
}

// ingestProfiles runs a batch of announced profiles through the ingress
// pipeline — shape restore, interest filter, boundary ACL, namespace
// remap, merge — returning how many were integrated. zone labels the
// integrated entries with the advert's namespace zone.
func (d *Directory) ingestProfiles(profiles []core.Profile, zone string) int {
	kept := 0
	var mapped []core.Profile
	for i := range profiles {
		p := profiles[i]
		if err := p.RestoreShape(); err != nil {
			d.met.malformed.Inc()
			d.opts.Logger.Warn("directory: bad profile shape", "id", p.ID, "err", err)
			continue
		}
		sealed, notify, ok := d.ingest(p, zone)
		if ok {
			kept++
		}
		if notify {
			mapped = append(mapped, sealed)
		}
	}
	d.notifyMappedCollected(mapped)
	return kept
}

// notifyMappedCollected snapshots the listener set and fans out one
// batched mapped notification for profiles collected across an advert.
func (d *Directory) notifyMappedCollected(mapped []core.Profile) {
	if len(mapped) == 0 {
		return
	}
	d.mu.Lock()
	listeners := append([]Listener(nil), d.listeners...)
	d.mu.Unlock()
	d.notifyMapped(listeners, mapped)
}

// ingest admits one shape-restored wire profile. ok reports whether it
// was integrated into the local view; notify reports whether listeners
// should hear about sealed (new or changed profile) — the caller owns
// the batched fan-out.
func (d *Directory) ingest(p core.Profile, zone string) (sealed core.Profile, notify, ok bool) {
	if !d.wantsWire(p) {
		d.met.ingressFiltered.Inc()
		return core.Profile{}, false, false
	}
	if !d.acl.Load().allows(p.Node, p.ID) {
		d.met.aclDenied.Inc()
		d.shadowDenied(p, zone)
		return core.Profile{}, false, false
	}
	sealed, notify = d.integrate(p, zone)
	return sealed, notify, true
}

// wantsWire reports whether a wire profile falls inside this node's own
// interest. Always true when interest filtering is disabled.
func (d *Directory) wantsWire(p core.Profile) bool {
	if !d.opts.Interest {
		return true
	}
	d.mu.RLock()
	sum := d.ownSum
	d.mu.RUnlock()
	return sum.Matches(p)
}

// shadowDenied folds an ACL-denied profile's fingerprint into the node
// digest without holding the profile: the sender counts the entry in
// its digests, so leaving it out would read as permanent divergence and
// a sync request every interval.
func (d *Directory) shadowDenied(p core.Profile, zone string) {
	sealed := p.Clone()
	fp := sealed.Fingerprint()
	d.mu.Lock()
	defer d.mu.Unlock()
	prev, known := d.shadow[p.ID]
	if known {
		d.xorNodeFP(prev.node, prev.fp)
		d.ownerDrop(prev.node)
	}
	d.shadow[p.ID] = shadowEntry{node: p.Node, zone: zone, fp: fp, seen: time.Now(), profile: sealed}
	d.xorNodeFP(p.Node, fp)
	d.ownerAdd(p.Node)
}

// reconcile applies a full-state "sync" advert: merge every carried
// profile, then drop entries of the sender that the advert no longer
// lists — the one path that repairs over-approximation (entries the
// sender removed while we missed the remove). Dropping is scoped to the
// advert's zone: a sync is authoritative only for the namespace zone the
// sender owns, so entries of the same node held under another zone label
// (a pre-rezone ingest, a misdirected advert) are left for that zone's
// own sync or lease lapse. When the sender filtered the list to peer
// interests, dropping is only safe for receivers whose interest the
// sender provably covered (their summary fingerprint appears in Ifps);
// everyone else merges without dropping and lets the next digest
// comparison drive a wider sync if needed. Returns how many carried
// profiles were integrated.
func (d *Directory) reconcile(a advert) int {
	kept := 0
	present := make(map[core.TranslatorID]bool, len(a.Profiles))
	var mapped []core.Profile
	for i := range a.Profiles {
		if err := a.Profiles[i].RestoreShape(); err != nil {
			d.met.malformed.Inc()
			d.opts.Logger.Warn("directory: bad profile shape", "id", a.Profiles[i].ID, "err", err)
			continue
		}
		present[a.Profiles[i].ID] = true
		sealed, notify, ok := d.ingest(a.Profiles[i], a.Zone)
		if ok {
			kept++
		}
		if notify {
			mapped = append(mapped, sealed)
		}
	}
	d.notifyMappedCollected(mapped)
	if a.Filtered && !d.coveredByIfps(a.Ifps) {
		return kept
	}
	d.mu.Lock()
	var dropped []core.TranslatorID
	for id, e := range d.remote {
		if e.profile.Node == a.Node && e.zone == a.Zone && !present[e.wireID] {
			delete(d.remote, id)
			d.xorNodeFP(a.Node, e.fp)
			d.ownerDrop(e.profile.Node)
			dropped = append(dropped, id)
		}
	}
	// Shadowed (ACL-denied) entries of the sender reconcile the same way.
	for id, e := range d.shadow {
		if e.node == a.Node && e.zone == a.Zone && !present[id] {
			delete(d.shadow, id)
			d.xorNodeFP(a.Node, e.fp)
			d.ownerDrop(e.node)
		}
	}
	var listeners []Listener
	if len(dropped) > 0 {
		d.touchLocked(dropped...)
		listeners = append([]Listener(nil), d.listeners...)
	}
	d.mu.Unlock()
	for _, id := range dropped {
		d.trace.Event("translator_unmapped", d.node, string(id))
	}
	d.notifyUnmapped(listeners, dropped)
	return kept
}

// coveredByIfps reports whether a filtered advert's profile list
// provably covers this node's interest (our summary fingerprint is
// among the interests the sender filtered for).
func (d *Directory) coveredByIfps(ifps map[string]uint64) bool {
	if !d.opts.Interest {
		return false
	}
	d.mu.RLock()
	key := strconv.FormatUint(d.ownSumFP, 10)
	d.mu.RUnlock()
	_, ok := ifps[key]
	return ok
}

// noteNodeState records an advert's claim about the sender's state and,
// when our digest of that node disagrees, requests a full sync —
// rate-limited per node so a persistent mismatch costs one request per
// announce interval. Divergence is judged on the content digest alone: a
// version gap whose fingerprint still matches means the missed deltas
// net-cancelled (an add revoked before the flusher sent it) and there is
// nothing to fetch.
//
// A filtered node holds only the sender's profiles matching its own
// interest, so it compares against the sender's digest scoped to that
// interest (advert.Ifps). A sender that has not yet learned our
// interest carries no comparable digest — merge-only until it does.
func (d *Directory) noteNodeState(a advert) {
	d.mu.Lock()
	st, known := d.nodes[a.Node]
	if !known || d.closed {
		d.mu.Unlock()
		return
	}
	st.version = a.Version
	claim, comparable := a.Fp, true
	if d.opts.Interest && !d.ownSum.All {
		claim, comparable = a.Ifps[strconv.FormatUint(d.ownSumFP, 10)]
	}
	diverged := comparable && d.nodeFP[a.Node] != claim
	var req bool
	if diverged {
		wait := st.syncReqWait
		if wait <= 0 {
			wait = d.opts.AnnounceInterval
		}
		if time.Since(st.lastSyncReq) >= wait {
			st.lastSyncReq = time.Now()
			// Back off before the next request: a large sync can take far
			// longer than an announce interval to arrive, and every
			// repeated request while it is in flight provokes another
			// full broadcast sync. The cap keeps a genuinely lost sync
			// recoverable within a lease.
			if next := wait * 2; next > maxSyncReqBackoff*d.opts.AnnounceInterval {
				st.syncReqWait = maxSyncReqBackoff * d.opts.AnnounceInterval
			} else {
				st.syncReqWait = next
			}
			req = true
		}
	} else if comparable {
		// Digests agree: the node is converged, so the next divergence is
		// a fresh event and deserves a prompt first request.
		st.syncReqWait = 0
	}
	d.mu.Unlock()
	if req {
		d.trace.Event("sync_request", d.node, a.Node)
		d.send(advert{Type: "sync_req", Node: d.node, Target: a.Node, Zone: d.zone})
	}
}

// maxSyncReqBackoff caps the sync_req backoff at this many announce
// intervals, so a sync lost on the wire is re-requested well within a
// default lease.
const maxSyncReqBackoff = 32

// resetSyncBackoff clears a node's sync_req backoff when a sync from it
// arrives — the in-flight transfer the backoff was waiting out is over.
func (d *Directory) resetSyncBackoff(node string) {
	d.mu.Lock()
	if st, known := d.nodes[node]; known {
		st.syncReqWait = 0
	}
	d.mu.Unlock()
}

// noteEpoch records a peer's claimed restart epoch, tracing the warm
// restarts it completes (an epoch bump on a node whose entries we kept
// across its restarting grace).
func (d *Directory) noteEpoch(node string, epoch uint64) {
	d.mu.Lock()
	st, known := d.nodes[node]
	if !known || d.closed {
		d.mu.Unlock()
		return
	}
	prev := st.epoch
	st.epoch = epoch
	d.mu.Unlock()
	if prev != 0 && epoch > prev {
		d.trace.Event("node_restarted", d.node, node)
	}
}

// ownerAdd / ownerDrop maintain the per-node entry count consulted by
// the expiry tick. Every d.remote / d.shadow insertion must ownerAdd
// the entry's owning node and every deletion must ownerDrop it, always
// under d.mu — the invariant is checked by TestOwnerIndexConsistent.
func (d *Directory) ownerAdd(node string) {
	d.owners[node]++
}

func (d *Directory) ownerDrop(node string) {
	if n := d.owners[node] - 1; n <= 0 {
		delete(d.owners, node)
	} else {
		d.owners[node] = n
	}
}

// xorNodeFP folds a profile fingerprint into (or out of — XOR is its
// own inverse) a remote node's state digest. Caller holds d.mu.
func (d *Directory) xorNodeFP(node string, fp uint64) {
	if v := d.nodeFP[node] ^ fp; v == 0 {
		delete(d.nodeFP, node)
	} else {
		d.nodeFP[node] = v
	}
}

// sameProfile reports whether two profiles describe the same translator
// state — identity, provenance, shape, and attributes.
func sameProfile(a, b core.Profile) bool {
	return a.ID == b.ID &&
		a.Name == b.Name &&
		a.Platform == b.Platform &&
		a.DeviceType == b.DeviceType &&
		a.Node == b.Node &&
		a.Shape.Equal(b.Shape) &&
		maps.Equal(a.Attributes, b.Attributes)
}

// integrate merges one remote profile into the local view. Instead of
// notifying listeners inline it returns the sealed profile and whether
// listeners should hear about it, so callers ingesting a whole advert
// can collect and fan out one batched notification.
func (d *Directory) integrate(p core.Profile, zone string) (core.Profile, bool) {
	if p.Node == d.node {
		return core.Profile{}, false // don't learn our own state back
	}
	// The anti-entropy digest is computed over the announced (wire)
	// profile, before any local remapping, so it stays comparable with
	// the sender's own digest.
	fp := p.Fingerprint()
	wireID := p.ID
	p.ID = d.remap.Load().mapID(wireID)
	d.mu.Lock()
	prev, known := d.remote[p.ID]
	// A re-announced profile with a changed shape (ports added or
	// removed) must re-notify, or dynamic bindings never see device
	// updates; only a byte-identical refresh is silent, and it keeps the
	// stored sealed profile (no clone, no second copy pinned by a view).
	changed := known && !sameProfile(prev.profile, p)
	sealed := prev.profile
	if !known || changed {
		sealed = p.Clone()
	}
	d.remote[sealed.ID] = remoteEntry{profile: sealed, seen: time.Now(), fp: fp, wireID: wireID, zone: zone}
	if known {
		// The previous entry may even claim a different owning node;
		// digests track the stored profile's claim, not the advert's.
		d.xorNodeFP(prev.profile.Node, prev.fp)
		d.ownerDrop(prev.profile.Node)
	}
	d.xorNodeFP(sealed.Node, fp)
	d.ownerAdd(sealed.Node)
	if !known || changed {
		d.touchLocked(sealed.ID)
	}
	d.mu.Unlock()
	switch {
	case !known:
		d.trace.Event("translator_mapped", d.node, string(sealed.ID))
	case changed:
		d.trace.Event("translator_updated", d.node, string(sealed.ID))
	}
	return sealed, !known || changed
}

// dropRemotes applies a "remove" advert's IDs (wire form) in one d.mu
// section: each drops its ACL-shadowed entry and its remote entry under
// the remapped ID. Listeners hear the dropped remote entries as one
// batch, in advert order; IDs held in neither map are skipped.
func (d *Directory) dropRemotes(wireIDs []core.TranslatorID) {
	remap := d.remap.Load()
	var dropped []core.TranslatorID
	var listeners []Listener
	d.mu.Lock()
	heard := len(d.listeners) > 0
	for _, id := range wireIDs {
		if e, ok := d.shadow[id]; ok {
			delete(d.shadow, id)
			d.xorNodeFP(e.node, e.fp)
			d.ownerDrop(e.node)
		}
		id = remap.mapID(id)
		e, known := d.remote[id]
		if !known {
			continue
		}
		delete(d.remote, id)
		d.xorNodeFP(e.profile.Node, e.fp)
		d.ownerDrop(e.profile.Node)
		d.touchLocked(id)
		d.trace.Event("translator_unmapped", d.node, string(id))
		if heard { // the batch escapes: build it only when heard
			dropped = append(dropped, id)
		}
	}
	if len(dropped) > 0 {
		listeners = append(listeners, d.listeners...)
	}
	d.mu.Unlock()
	d.notifyUnmapped(listeners, dropped)
}

// touchNode renews a remote node's liveness lease, firing node_up when
// this is the first advert heard from it (or the first since it went
// down). A non-positive leaseMillis keeps the node's previous lease, or
// the receiver's own TTL for a brand-new node.
func (d *Directory) touchNode(node string, leaseMillis int64) {
	if node == "" || node == d.node {
		return
	}
	lease := d.clampLease(leaseMillis)
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	if st, known := d.nodes[node]; known {
		st.lastSeen = time.Now()
		if lease > 0 {
			st.lease = lease
		}
		d.mu.Unlock()
		return
	}
	if lease <= 0 {
		lease = d.lease()
	}
	d.nodes[node] = &nodeState{lastSeen: time.Now(), lease: lease}
	d.met.liveNodes.Set(int64(len(d.nodes)))
	d.touchLocked()
	listeners := append([]Listener(nil), d.listeners...)
	d.mu.Unlock()
	d.trace.Event("node_up", d.node, node)
	for _, l := range listeners {
		if nl, ok := l.(NodeListener); ok {
			nl.NodeUp(node)
		}
	}
}

// dropNode forgets everything about a remote node: its liveness lease and
// every translator it hosted. It backs both the explicit "bye" advert and
// lease lapse, firing node_down once per live→down transition; entryTrace
// is the per-translator trace kind ("translator_unmapped" for a graceful
// bye, "expiry" for silence). Returns how many translators were dropped.
func (d *Directory) dropNode(node string, entryTrace string) int {
	if node == "" {
		return 0
	}
	d.mu.Lock()
	_, wasLive := d.nodes[node]
	delete(d.nodes, node)
	if wasLive {
		d.met.liveNodes.Set(int64(len(d.nodes)))
	}
	var dropped []core.TranslatorID
	for id, e := range d.remote {
		if e.profile.Node == node {
			dropped = append(dropped, id)
			delete(d.remote, id)
		}
	}
	for id, e := range d.shadow {
		if e.node == node {
			delete(d.shadow, id)
		}
	}
	// Every remote and shadow entry of the node is gone.
	delete(d.owners, node)
	if sumFP, ok := d.peerSum[node]; ok {
		delete(d.peerSum, node)
		d.releaseIfpLocked(sumFP)
	}
	// Dropping every entry of the node zeroes its digest by definition.
	delete(d.nodeFP, node)
	delete(d.routes, node)
	delete(d.zones, node)
	delete(d.relaySeen, node)
	if wasLive || len(dropped) > 0 {
		d.touchLocked(dropped...)
	}
	listeners := append([]Listener(nil), d.listeners...)
	d.mu.Unlock()
	if wasLive {
		d.met.nodeDown.Inc()
		d.trace.Event("node_down", d.node, node)
	}
	// Translators are unmapped before NodeDown fires: by then a Lookup no
	// longer returns any of the dead node's profiles, so failover queries
	// triggered by either notification only see live candidates.
	for _, id := range dropped {
		d.trace.Event(entryTrace, d.node, string(id))
	}
	d.notifyUnmapped(listeners, dropped)
	if wasLive {
		for _, l := range listeners {
			if nl, ok := l.(NodeListener); ok {
				nl.NodeDown(node)
			}
		}
	}
	return len(dropped)
}

// expireNodes declares remote nodes down whose announcement lease has
// lapsed — the prompt crash-detection path, as opposed to expireStale's
// per-entry TTL backstop.
func (d *Directory) expireNodes() {
	now := time.Now()
	d.mu.Lock()
	var lapsed []string
	for node, st := range d.nodes {
		if now.Sub(st.lastSeen) > st.lease {
			lapsed = append(lapsed, node)
		}
	}
	d.mu.Unlock()
	for _, node := range lapsed {
		d.opts.Logger.Info("directory: node lease lapsed", "peer", node)
		if n := d.dropNode(node, "expiry"); n > 0 {
			d.met.expired.Add(uint64(n))
		}
	}
}

// expireStale drops remote translators whose node has been silent past
// the TTL. Under the delta protocol an entry is only re-announced on
// sync, so staleness is judged against the owning node's last liveness
// signal (heartbeats renew the whole node), with the entry's own seen
// time as the backstop for entries whose claimed node never announced
// itself.
func (d *Directory) expireStale() {
	now := time.Now()
	d.mu.Lock()
	// Judge staleness per owning node before touching any entry: d.owners
	// and d.nodes are O(nodes) while d.remote is O(population), and this
	// runs on every announce tick. A node that announced within its lease
	// holds all of its entries fresh (staleAt takes the max of the entry's
	// seen time and the node's lastSeen), so the per-entry sweep below only
	// happens while some owner is silent past its lease or missing from the
	// liveness table — never on the steady-state tick of a healthy mesh.
	sweep := make(map[string]bool)
	for node := range d.owners {
		lease := d.lease()
		if st, ok := d.nodes[node]; ok {
			if st.lease > lease {
				lease = st.lease
			}
			if st.lastSeen.Add(lease).After(now) {
				continue
			}
		}
		sweep[node] = true
	}
	if len(sweep) == 0 {
		d.mu.Unlock()
		return
	}
	// staleAt returns the moment an entry of the given node goes stale:
	// its own lease when the node granted one (a restarting node's grace
	// must hold its entries, not just its nodeState), our TTL otherwise.
	staleAt := func(node string, seen time.Time) time.Time {
		lease := d.lease()
		if st, ok := d.nodes[node]; ok {
			if st.lastSeen.After(seen) {
				seen = st.lastSeen
			}
			if st.lease > lease {
				lease = st.lease
			}
		}
		return seen.Add(lease)
	}
	var dropped []core.TranslatorID
	for id, e := range d.remote {
		if sweep[e.profile.Node] && staleAt(e.profile.Node, e.seen).Before(now) {
			dropped = append(dropped, id)
			delete(d.remote, id)
			d.xorNodeFP(e.profile.Node, e.fp)
			d.ownerDrop(e.profile.Node)
		}
	}
	for id, e := range d.shadow {
		if sweep[e.node] && staleAt(e.node, e.seen).Before(now) {
			delete(d.shadow, id)
			d.xorNodeFP(e.node, e.fp)
			d.ownerDrop(e.node)
		}
	}
	if len(dropped) > 0 {
		d.touchLocked(dropped...)
	}
	listeners := append([]Listener(nil), d.listeners...)
	d.mu.Unlock()
	for _, id := range dropped {
		d.opts.Logger.Info("directory: expired", "id", id)
		d.met.expired.Inc()
		d.trace.Event("expiry", d.node, string(id))
	}
	d.notifyUnmapped(listeners, dropped)
}
