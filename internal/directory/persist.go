package directory

import (
	"encoding/json"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
	"repro/internal/wal"
)

// WAL record types. The log is a snapshot-plus-deltas journal: the most
// recent recSnapshot record is the base state, recLocalAdd/recLocalRemove
// records after it replay local registrations, and recEpoch records bump
// the restart-epoch counter (one is appended, synced, immediately after
// every replay so even a crash during warm-up advances the epoch).
// Remote state changes are not journaled per mutation — they are captured
// by periodic snapshots and the gap since the last one is exactly what
// delta anti-entropy heals after a restart.
const (
	recEpoch       byte = 1
	recSnapshot    byte = 2
	recLocalAdd    byte = 3
	recLocalRemove byte = 4
)

type persistEpoch struct {
	Epoch uint64 `json:"epoch"`
}

// persistLocal journals one sealed local profile. Fp is stored for exact
// digest continuity: it is what the previous incarnation announced.
// Replay skips a record without one.
type persistLocal struct {
	Profile core.Profile `json:"profile"`
	Fp      uint64       `json:"fp,omitempty"`
}

type persistRemove struct {
	ID core.TranslatorID `json:"id"`
}

// persistRemoteEntry snapshots one remote entry: the local (possibly
// remapped) view plus the wire identity, zone and fingerprint the
// anti-entropy digests are computed over. Replay skips an entry that
// lacks any of the three.
type persistRemoteEntry struct {
	Profile core.Profile      `json:"profile"`
	WireID  core.TranslatorID `json:"wire_id,omitempty"`
	Zone    string            `json:"zone,omitempty"`
	Fp      uint64            `json:"fp,omitempty"`
}

// persistNodeEntry snapshots the liveness and anti-entropy bookkeeping
// for one remote node — the version-vector handoff that lets the warm
// population resume digest comparison instead of full-syncing everyone.
type persistNodeEntry struct {
	LeaseMillis int64  `json:"lease_ms,omitempty"`
	Version     uint64 `json:"version,omitempty"`
	Epoch       uint64 `json:"epoch,omitempty"`
	Zone        string `json:"zone,omitempty"`
}

// persistState is the snapshot record payload: everything a restarting
// node needs to rejoin warm.
type persistState struct {
	Epoch   uint64                      `json:"epoch"`
	Node    string                      `json:"node"`
	Zone    string                      `json:"zone,omitempty"`
	Version uint64                      `json:"version"`
	Locals  []persistLocal              `json:"locals,omitempty"`
	Remotes []persistRemoteEntry        `json:"remotes,omitempty"`
	Nodes   map[string]persistNodeEntry `json:"nodes,omitempty"`
}

// ReplayStats reports what a warm restart recovered from the log.
type ReplayStats struct {
	// Epoch is this incarnation's restart epoch (1 on first boot with a
	// fresh log, previous+1 after every replay).
	Epoch uint64
	// Locals is the number of local profiles recovered (warm, awaiting
	// re-registration by their mappers).
	Locals int
	// Remotes is the number of remote entries recovered.
	Remotes int
	// Nodes is the number of remote nodes whose liveness lease and
	// version vector were recovered.
	Nodes int
}

// replayWAL rebuilds directory state from the configured log. Called at
// the tail of New, strictly before Start spawns the receive loop — warm
// import is therefore serialized before the first advert is processed,
// which is what keeps a startup sync from resurrecting ghost entries
// out of a half-imported population.
func (d *Directory) replayWAL() {
	l := d.opts.WAL
	var st persistState
	locals := make(map[core.TranslatorID]persistLocal)
	for _, r := range l.Replayed() {
		switch r.Type {
		case recEpoch:
			var e persistEpoch
			if err := json.Unmarshal(r.Payload, &e); err != nil {
				d.opts.Logger.Warn("directory: bad epoch record", "err", err)
				continue
			}
			if e.Epoch > st.Epoch {
				st.Epoch = e.Epoch
			}
		case recSnapshot:
			var s persistState
			if err := json.Unmarshal(r.Payload, &s); err != nil {
				d.opts.Logger.Warn("directory: bad snapshot record", "err", err)
				continue
			}
			if s.Epoch < st.Epoch {
				s.Epoch = st.Epoch
			}
			st = s
			clear(locals)
			for _, pl := range s.Locals {
				locals[pl.Profile.ID] = pl
			}
		case recLocalAdd:
			var pl persistLocal
			if err := json.Unmarshal(r.Payload, &pl); err != nil {
				d.opts.Logger.Warn("directory: bad local-add record", "err", err)
				continue
			}
			locals[pl.Profile.ID] = pl
		case recLocalRemove:
			var rm persistRemove
			if err := json.Unmarshal(r.Payload, &rm); err != nil {
				d.opts.Logger.Warn("directory: bad local-remove record", "err", err)
				continue
			}
			delete(locals, rm.ID)
		default:
			d.opts.Logger.Warn("directory: unknown wal record type", "type", r.Type)
		}
	}
	l.DropReplay()

	// A log written by another node is not ours to replay: bump the epoch
	// (the log's lineage continues) but start with a cold population.
	foreign := st.Node != "" && st.Node != d.node
	if foreign {
		d.opts.Logger.Warn("directory: wal belongs to another node, ignoring state",
			"wal_node", st.Node, "node", d.node)
	}

	d.epoch = st.Epoch + 1
	d.appendWAL(recEpoch, persistEpoch{Epoch: d.epoch})
	if err := l.Sync(); err != nil {
		d.opts.Logger.Warn("directory: wal sync", "err", err)
	}
	if foreign {
		return
	}

	now := time.Now()
	for _, pl := range locals {
		p := pl.Profile
		if err := p.RestoreShape(); err != nil {
			d.opts.Logger.Warn("directory: bad persisted local shape", "id", p.ID, "err", err)
			continue
		}
		if pl.Fp == 0 {
			d.opts.Logger.Warn("directory: persisted local entry without fingerprint", "id", p.ID)
			continue
		}
		// translator == nil marks the entry warm: announced and resolvable,
		// but not yet re-claimed by its mapper. AddLocal re-attaches it
		// silently; unclaimed entries are dropped after the restart grace.
		d.local[p.ID] = localEntry{profile: p, translator: nil, fp: pl.Fp}
		d.localFP ^= pl.Fp
		d.replayed.Locals++
	}
	for _, re := range st.Remotes {
		p := re.Profile
		if err := p.RestoreShape(); err != nil {
			d.opts.Logger.Warn("directory: bad persisted remote shape", "id", p.ID, "err", err)
			continue
		}
		if re.WireID == "" || re.Zone == "" || re.Fp == 0 {
			d.opts.Logger.Warn("directory: incomplete persisted remote entry", "id", p.ID)
			continue
		}
		d.remote[p.ID] = remoteEntry{profile: p, seen: now, fp: re.Fp, wireID: re.WireID, zone: re.Zone}
		d.xorNodeFP(p.Node, re.Fp)
		d.ownerAdd(p.Node)
		d.replayed.Remotes++
	}
	for node, pn := range st.Nodes {
		if node == "" || node == d.node {
			continue
		}
		lease := d.clampLease(pn.LeaseMillis)
		if lease <= 0 {
			lease = d.lease()
		}
		// lastSeen restarts now: the peer gets one full lease to be heard
		// from again, after which its warm entries lapse like any silence.
		d.nodes[node] = &nodeState{lastSeen: now, lease: lease, version: pn.Version, epoch: pn.Epoch}
		if pn.Zone != "" && pn.Zone != node {
			d.zones[node] = pn.Zone
		}
		d.replayed.Nodes++
	}
	d.version = st.Version
	d.replayed.Epoch = d.epoch
	if d.replayed.Locals+d.replayed.Remotes+d.replayed.Nodes > 0 {
		// Replay rewrote the population wholesale: no overlay can
		// describe it, so the next read rebuilds the base.
		d.touchedAll = true
		d.gen.Add(1)
		d.met.liveNodes.Set(int64(len(d.nodes)))
		d.lastSnapGen = d.gen.Load()
	}
	d.lastSnapTime = now
	d.trace.Event("warm_restart", d.node, "")
}

// appendWAL journals one record, best-effort: a failing disk degrades
// durability, not availability. Callers on mutation paths hold d.mu,
// which also orders the journal identically to the state it describes.
func (d *Directory) appendWAL(typ byte, v any) {
	if d.wal == nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		d.opts.Logger.Error("directory: marshal wal record", "err", err)
		return
	}
	if err := d.wal.Append(typ, b); err != nil {
		d.opts.Logger.Warn("directory: wal append", "err", err)
	}
}

// buildPersistLocked assembles a snapshot of the full directory state.
// Caller holds d.mu (read or write).
func (d *Directory) buildPersistLocked() persistState {
	st := persistState{
		Epoch:   d.epoch,
		Node:    d.node,
		Zone:    d.zone,
		Version: d.version,
	}
	if len(d.local) > 0 {
		st.Locals = make([]persistLocal, 0, len(d.local))
		for _, e := range d.local {
			st.Locals = append(st.Locals, persistLocal{Profile: e.profile, Fp: e.fp})
		}
	}
	if len(d.remote) > 0 {
		st.Remotes = make([]persistRemoteEntry, 0, len(d.remote))
		for _, e := range d.remote {
			st.Remotes = append(st.Remotes, persistRemoteEntry{
				Profile: e.profile, WireID: e.wireID, Zone: e.zone, Fp: e.fp,
			})
		}
	}
	if len(d.nodes) > 0 {
		st.Nodes = make(map[string]persistNodeEntry, len(d.nodes))
		for node, ns := range d.nodes {
			st.Nodes[node] = persistNodeEntry{
				LeaseMillis: int64(ns.lease / time.Millisecond),
				Version:     ns.version,
				Epoch:       ns.epoch,
				Zone:        d.zones[node],
			}
		}
	}
	return st
}

// snapshotLocked compacts the log to one snapshot record of the current
// state. Caller holds d.mu for writing — the rewrite must not interleave
// with appends or the compaction would clobber newer deltas.
func (d *Directory) snapshotLocked() error {
	b, err := json.Marshal(d.buildPersistLocked())
	if err != nil {
		return err
	}
	if err := d.wal.Rewrite([]wal.Record{{Type: recSnapshot, Payload: b}}); err != nil {
		return err
	}
	if err := d.wal.Sync(); err != nil {
		return err
	}
	d.lastSnapGen = d.gen.Load()
	d.lastSnapTime = time.Now()
	return nil
}

// maybeSnapshot compacts the log when enough population churn has
// accumulated since the last snapshot. The threshold scales with the
// population — max(1024, population/4) mutations — so a 100k-entry join
// pays O(log N) snapshots instead of rewriting a growing snapshot every
// N mutations, and a time floor keeps a mutation storm from rewriting
// more than once per couple of intervals. Called from the announce tick.
func (d *Directory) maybeSnapshot() {
	if d.wal == nil {
		return
	}
	gen := d.gen.Load()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return
	}
	threshold := uint64(len(d.local)+len(d.remote)) / 4
	if threshold < 1024 {
		threshold = 1024
	}
	if gen-d.lastSnapGen < threshold || time.Since(d.lastSnapTime) < 2*d.opts.AnnounceInterval {
		return
	}
	if err := d.snapshotLocked(); err != nil {
		d.opts.Logger.Warn("directory: snapshot", "err", err)
	}
}

// SnapshotNow forces a log compaction to the current state. It is what
// the periodic policy calls, minus the thresholds; operational surfaces
// (pads persist, tests) use it to bound replay work deterministically.
func (d *Directory) SnapshotNow() error {
	if d.wal == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return netemu.ErrClosed
	}
	return d.snapshotLocked()
}

// Epoch returns this incarnation's restart epoch: 0 without a WAL, 1 on
// first boot with a fresh log, and previous+1 after every replay.
func (d *Directory) Epoch() uint64 { return d.epoch }

// ReplayedState reports what the warm restart recovered; zero without a
// WAL or on a fresh log.
func (d *Directory) ReplayedState() ReplayStats { return d.replayed }

// WarmLocals returns how many recovered local entries are still waiting
// for their translator to re-register.
func (d *Directory) WarmLocals() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := 0
	for _, e := range d.local {
		if e.translator == nil {
			n++
		}
	}
	return n
}

// PersistStats exposes the underlying log's statistics; ok is false when
// the directory runs without persistence.
func (d *Directory) PersistStats() (wal.Stats, bool) {
	if d.wal == nil {
		return wal.Stats{}, false
	}
	return d.wal.Stats(), true
}

// dropUnclaimedWarm removes warm local entries whose mapper never
// re-registered them within the restart grace: the device is genuinely
// gone (or its mapper was disabled), so peers must be told rather than
// left serving a profile nothing backs.
func (d *Directory) dropUnclaimedWarm() {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	var dropped []core.TranslatorID
	for id, e := range d.local {
		if e.translator != nil {
			continue
		}
		delete(d.local, id)
		delete(d.pendingAdds, id)
		d.version++
		d.localFP ^= e.fp
		d.xorIfpsLocked(e.profile, e.fp)
		d.appendWAL(recLocalRemove, persistRemove{ID: id})
		dropped = append(dropped, id)
	}
	if len(dropped) == 0 {
		d.mu.Unlock()
		return
	}
	d.touchLocked(dropped...)
	version, fp := d.version, d.localFP
	ifps := d.ifpsLocked()
	d.unsent.Add(1)
	listeners := append([]Listener(nil), d.listeners...)
	d.mu.Unlock()
	for _, id := range dropped {
		d.trace.Event("translator_unmapped", d.node, string(id))
		d.opts.Logger.Info("directory: dropping unclaimed warm entry", "id", id)
	}
	d.notifyUnmapped(listeners, dropped)
	d.sendState(advert{
		Type: "remove", Node: d.node, Zone: d.zone, Removed: dropped,
		Version: version, Fp: fp, Ifps: ifps,
	})
}
