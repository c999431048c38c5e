package directory

import (
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
)

// Directory federation: on a segmented network (netemu links) no single
// multicast datagram reaches every node, so nodes that sit on several
// links re-broadcast peer adverts onto their other segments
// (Options.Relay). Loops and duplicate paths are suppressed by a
// per-origin sliding sequence window (advert.Seq), hops are bounded by
// advert.TTL, and every relay appends itself to advert.Via — which
// receivers reverse into a next-hop route toward the origin, the route
// hint the transport uses to forward deliver frames across segments.
//
// Namespace-wise each node owns one zone (Options.Zone, default the
// node name) authoritatively. State-carrying adverts are labeled with
// the owner's zone, entries remember the zone they were announced
// under, and sync reconciliation drops ghosts only inside the advert's
// zone — non-owned zones are held as summaries (version + fingerprint
// per zone, from heartbeats) refreshed by interest-filtered adverts.

// seenWindow is a sliding window over one origin's advert sequence
// numbers: the highest sequence seen plus a 64-wide bitmap below it.
// Anything older than the window is treated as a duplicate — with
// near-FIFO links a legitimate advert cannot be 64 sequences late, and
// dropping one costs at most a heartbeat interval of staleness.
type seenWindow struct {
	max  uint64
	bits uint64 // bit i set: sequence max-1-i... see observe
}

// observe records seq and reports whether it was new.
func (w *seenWindow) observe(seq uint64) bool {
	switch {
	case w.max == 0 || seq > w.max:
		shift := seq - w.max
		if w.max == 0 || shift >= 64 {
			w.bits = 1
		} else {
			w.bits = w.bits<<shift | 1
		}
		w.max = seq
		return true
	case w.max-seq < 64:
		mask := uint64(1) << (w.max - seq)
		if w.bits&mask != 0 {
			return false
		}
		w.bits |= mask
		return true
	default:
		return false
	}
}

// routeEntry is the learned relay path toward one remote node.
type routeEntry struct {
	hops []string // intermediary nodes, next hop first; empty: direct
	seen time.Time
}

// dupAdvert reports whether (node, seq) was already observed.
func (d *Directory) dupAdvert(node string, seq uint64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.relaySeen[node]
	if w == nil {
		w = &seenWindow{}
		d.relaySeen[node] = w
	}
	return !w.observe(seq)
}

// noteMesh records an advert's mesh metadata: the origin's zone claim
// and the route the advert traveled. A shorter (or equally short) path
// replaces the stored route immediately — so a direct advert always
// wins, and equal-length alternatives keep each other fresh — while a
// longer path only takes over once the stored route has gone stale
// (its path stopped delivering adverts), which is what heals routing
// around a dead intermediary within about two announce intervals.
func (d *Directory) noteMesh(a advert) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	if a.Zone != "" {
		d.zones[a.Node] = a.Zone
	}
	if slices.Contains(a.Via, d.node) {
		// The advert already traveled through us (a cycle, or a proxy
		// bootstrap overheard on a shared link): its path is not a usable
		// route from here.
		return
	}
	hops := make([]string, 0, len(a.Via))
	for i := len(a.Via) - 1; i >= 0; i-- {
		hops = append(hops, a.Via[i])
	}
	now := time.Now()
	st, ok := d.routes[a.Node]
	if !ok || len(hops) <= len(st.hops) || now.Sub(st.seen) > 2*d.opts.AnnounceInterval {
		d.routes[a.Node] = &routeEntry{hops: hops, seen: now}
	}
}

// relay re-broadcasts a processed peer advert onto this node's links
// with one hop consumed and this node appended to the route hint.
// Unnumbered adverts (no Seq) cannot be deduplicated and are never
// relayed; the duplicate window in handleAdvertSized guarantees each
// (origin, seq) is relayed at most once.
func (d *Directory) relay(a advert) {
	if a.Seq == 0 {
		return
	}
	if a.Type == "sync_req" && a.Target == d.node {
		return // addressed to us; nobody else acts on it
	}
	if slices.Contains(a.Via, d.node) {
		return // already traveled through us
	}
	if a.TTL <= 1 {
		d.met.relayTTLDrop.Inc()
		return
	}
	a.TTL--
	a.Via = append(slices.Clone(a.Via), d.node)

	d.mu.RLock()
	group := d.group
	d.mu.RUnlock()
	if group == nil {
		return
	}
	d.sendMu.Lock()
	defer d.sendMu.Unlock()
	d.emitLocked(group, a, d.met.relayed, d.met.relayBytes) // never after our bye
}

// maybeBootstrap decides whether a just-received announce should be
// answered with a zone bootstrap: the announce arrived directly (zero
// Via — the sender shares a link with us), we relay for the mesh, and
// we hold remote state worth replaying. Without this a joiner pulls
// every zone from its owner across the full relay path — O(zones ×
// hops) re-marshals dominate join time on long chains — while the
// adjacent relay already holds the joiner's interest subset of every
// zone, one hop away. Rate-limited per peer to one bootstrap per lease,
// so a neighbor that rejoins repeatedly is not re-served every time.
func (d *Directory) maybeBootstrap(peer string) {
	if !d.opts.Relay {
		return
	}
	d.mu.Lock()
	st, ok := d.nodes[peer]
	if !ok || d.closed || len(d.remote) == 0 ||
		time.Since(st.lastBootstrap) < d.lease() {
		d.mu.Unlock()
		return
	}
	st.lastBootstrap = time.Now()
	// Off the receive loop: building the batches marshals our whole held
	// remote state.
	d.goLocked(func() { d.bootstrapNeighbor(peer) })
	d.mu.Unlock()
}

// bootstrapNeighbor replays this node's held remote zones onto its
// links as "bootstrap" adverts, one per owning node — a secondary
// serving a zone transfer on the owner's behalf. Each advert carries
// the owner's zone, this node's lease promise (we hold a live lease on
// the owner and keep vouching while it announces), and a Via
// reconstructing the true relay path so receivers learn a usable route
// toward the owner. No digest claims ride along: receivers merge the
// profiles and reconcile later against the owner's own heartbeats.
func (d *Directory) bootstrapNeighbor(peer string) {
	type zoneBatch struct {
		zone     string
		via      []string
		profiles []core.Profile
	}
	d.mu.RLock()
	if d.closed || d.group == nil {
		d.mu.RUnlock()
		return
	}
	group := d.group
	// The peer's declared interest bounds what it would integrate; no
	// declared summary (not yet heard, or interested in everything) is
	// served our full held state.
	var sum *InterestSummary
	if fp, ok := d.peerSum[peer]; ok {
		if e := d.ifp[fp]; e != nil && !e.sum.All {
			sum = e.sum
		}
	}
	batches := make(map[string]*zoneBatch)
	for _, e := range d.remote {
		owner := e.profile.Node
		if owner == peer {
			continue // the peer's own state: it is the authority
		}
		if sum != nil && !sum.Matches(e.profile) {
			continue
		}
		b := batches[owner]
		if b == nil {
			b = &zoneBatch{zone: d.zoneOfLocked(owner)}
			// Reconstruct the path an advert from the owner travels to
			// reach this link (our stored route reversed, ourselves last)
			// so receivers learn the true next-hop route.
			if rt := d.routes[owner]; rt != nil {
				for i := len(rt.hops) - 1; i >= 0; i-- {
					b.via = append(b.via, rt.hops[i])
				}
			}
			b.via = append(b.via, d.node)
			batches[owner] = b
		}
		b.profiles = append(b.profiles, e.profile)
	}
	lease := d.lease()
	d.mu.RUnlock()
	for owner, b := range batches {
		d.sendUnnumbered(group, advert{
			Type: "bootstrap", Node: owner, Zone: b.zone,
			Profiles:    b.profiles,
			LeaseMillis: int64(lease / time.Millisecond),
			Via:         b.via,
		})
	}
}

// sendUnnumbered emits an advert without stamping this node's sequence
// number: the advert speaks for another origin (zone bootstrap), and
// numbering it from our counter would poison receivers' duplicate
// windows for that origin. Unnumbered adverts are never relayed — they
// serve exactly the links this node is on.
func (d *Directory) sendUnnumbered(group *netemu.GroupConn, a advert) {
	d.sendMu.Lock()
	defer d.sendMu.Unlock()
	d.emitLocked(group, a, d.met.bootstrap, d.met.bootstrapBytes) // never after our bye
}

// Zone returns the namespace zone this node owns.
func (d *Directory) Zone() string { return d.zone }

// ZoneOf returns the zone a node advertises: the default zone, its node
// name, for a node not heard from (or, after a warm restart, one whose
// zone is that default).
func (d *Directory) ZoneOf(node string) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.zoneOfLocked(node)
}

// zoneOfLocked is ZoneOf with d.mu held.
func (d *Directory) zoneOfLocked(node string) string {
	if node == d.node {
		return d.zone
	}
	if z, ok := d.zones[node]; ok {
		return z
	}
	return node
}

// Route returns the relay path toward a live node as learned from
// advert route hints: intermediary node names, next hop first, empty
// when the node is directly reachable. ok is false for unknown or down
// nodes.
func (d *Directory) Route(node string) (hops []string, ok bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if _, live := d.nodes[node]; !live {
		return nil, false
	}
	st := d.routes[node]
	if st == nil || len(st.hops) == 0 {
		return nil, true
	}
	return slices.Clone(st.hops), true
}

// ZoneSummary is one zone of the federated namespace as this node holds
// it: authoritative for its own zone, a digest-refreshed summary for
// everyone else's.
type ZoneSummary struct {
	// Zone is the namespace zone name.
	Zone string
	// Node is the owning runtime.
	Node string
	// Version and Fp are the owner's last claimed state version and
	// fingerprint (authoritative values for the local zone).
	Version uint64
	Fp      uint64
	// Entries counts the zone's translators held locally — the full
	// population for the own zone, the interest-filtered subset for
	// remote ones.
	Entries int
	// Via is the relay path adverts from the owner travel, next hop
	// first; empty when the owner shares a link.
	Via []string
}

// Zones summarizes the federated namespace: this node's own zone plus
// one summary per live remote node, sorted by zone then node.
func (d *Directory) Zones() []ZoneSummary {
	d.mu.RLock()
	defer d.mu.RUnlock()
	perNode := make(map[string]int, len(d.nodes))
	for _, e := range d.remote {
		perNode[e.profile.Node]++
	}
	out := make([]ZoneSummary, 0, len(d.nodes)+1)
	out = append(out, ZoneSummary{
		Zone: d.zone, Node: d.node,
		Version: d.version, Fp: d.localFP, Entries: len(d.local),
	})
	for node, st := range d.nodes {
		zs := ZoneSummary{
			Zone: d.zoneOfLocked(node), Node: node,
			Version: st.version, Fp: d.nodeFP[node], Entries: perNode[node],
		}
		if rt := d.routes[node]; rt != nil && len(rt.hops) > 0 {
			zs.Via = slices.Clone(rt.hops)
		}
		out = append(out, zs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Zone != out[j].Zone {
			return out[i].Zone < out[j].Zone
		}
		return out[i].Node < out[j].Node
	})
	return out
}
