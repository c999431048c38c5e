package transport

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// dstStripe hashes a destination port to a stable write stripe (FNV-1a
// over the translator ID and port name).
func dstStripe(dst core.PortRef) uint64 {
	const offset, prime = 0xcbf29ce484222325, 0x100000001b3
	h := uint64(offset)
	for _, c := range []byte(dst.Translator) {
		h = (h ^ uint64(c)) * prime
	}
	for _, c := range []byte(dst.Port) {
		h = (h ^ uint64(c)) * prime
	}
	return h
}

// Multi-hop delivery: on a segmented network (netemu links) two nodes
// may share no link, so a direct dial fails. The directory's mesh layer
// learns a relay route toward every node from the path its adverts
// traveled (directory.Route); deliver() consults it and source-routes
// the frame — the header carries the remaining hops and each
// intermediary forwards to the next one. Forwards are bounded by a TTL
// and deduplicated per (origin, relay id), and run on the dispatcher's
// bounded workers so a slow next hop backpressures the inbound
// connection rather than ballooning queues.
//
// Only deliver frames are routed. Control requests (connect /
// disconnect) still require a shared link with the destination's owner:
// their ack correlation is per-connection, which a relayed reply would
// break. Paths are installed from the source node's side, so dynamic
// binding across segments works as long as the emitting node installs
// the path — the documented limitation is remote path installation
// (Figure 7-(1) issued from a third node) across a segment boundary.

// relayWindow is a sliding duplicate-suppression window over one
// origin's relay ids: highest id seen plus a 64-wide bitmap below it.
type relayWindow struct {
	max  uint64
	bits uint64
}

// observe records id and reports whether it was new.
func (w *relayWindow) observe(id uint64) bool {
	switch {
	case w.max == 0 || id > w.max:
		shift := id - w.max
		if w.max == 0 || shift >= 64 {
			w.bits = 1
		} else {
			w.bits = w.bits<<shift | 1
		}
		w.max = id
		return true
	case w.max-id < 64:
		mask := uint64(1) << (w.max - id)
		if w.bits&mask != 0 {
			return false
		}
		w.bits |= mask
		return true
	default:
		return false
	}
}

// relayDup reports whether (origin, id) was already forwarded.
func (m *Module) relayDup(origin string, id uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	w := m.relaySeen[origin]
	if w == nil {
		w = &relayWindow{}
		m.relaySeen[origin] = w
	}
	return !w.observe(id)
}

// routeFor asks the directory for the relay path toward a node and
// builds the frame route: the intermediaries after the first hop, then
// the destination node itself. ok is false when the node is directly
// reachable (or unknown) — the caller should dial directly then.
func (m *Module) routeFor(node string) (first string, route []string, ok bool) {
	if m.dir == nil {
		return "", nil, false
	}
	hops, live := m.dir.Route(node)
	if !live || len(hops) == 0 {
		return "", nil, false
	}
	route = make([]string, 0, len(hops))
	route = append(route, hops[1:]...)
	route = append(route, node)
	return hops[0], route, true
}

// forwardFrame relays one in-transit deliver frame to its next hop.
// Runs on a dispatcher worker; the caller settles the frame's buffer
// and accounting afterwards.
func (m *Module) forwardFrame(f *frame) {
	hdr := f.header
	if m.relayDup(hdr.From, hdr.RelayID) {
		m.relayDupDrop.Inc()
		return
	}
	if hdr.TTL <= 1 {
		m.relayTTLDrop.Inc()
		m.opts.Logger.Warn("transport: relay TTL exhausted", "from", hdr.From, "dst", hdr.Dst)
		return
	}
	next := hdr.Route[0]
	hdr.Route = slices.Clone(hdr.Route[1:])
	if len(hdr.Route) == 0 {
		hdr.Route = nil // destination next: it receives a plain deliver
	}
	hdr.TTL--
	// Forwarded frames stripe by destination port: frames for one
	// destination stay on one ordered stream (preserving the per-path
	// sequence the dispatcher promises downstream) while different
	// destinations spread across the striped write connections.
	fc, _, key, err := m.peerConn(next, dstStripe(hdr.Dst))
	if err != nil {
		m.relayRouteFail.Inc()
		m.opts.Logger.Warn("transport: relay next hop unreachable", "next", next, "err", err)
		return
	}
	// The payload still aliases the pooled read buffer; write() copies it
	// into the batch buffer before returning, so release-after-return in
	// the caller is safe.
	if err := fc.write(&frame{header: hdr, payload: f.payload}); err != nil {
		m.relayRouteFail.Inc()
		m.dropPeer(key, fc)
		return
	}
	m.relayed.Inc()
	m.relayedBytes.Add(uint64(len(f.payload)))
	m.trace.Event("frame_relayed", m.node, fmt.Sprintf("%s -> %s via us", hdr.From, next))
}
