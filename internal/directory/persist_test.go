package directory

import (
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
	"repro/internal/qos"
	"repro/internal/wal"
)

// openWAL opens a WAL on the named host's emulated disk.
func openWAL(t *testing.T, net *netemu.Network, host string) *wal.Log {
	t.Helper()
	l, err := wal.OpenFile(net.Disk(host).Open("directory.wal"), "directory.wal")
	if err != nil {
		t.Fatalf("open wal for %s: %v", host, err)
	}
	return l
}

// persistOpts is fastOpts with persistence on the given log.
func persistOpts(l *wal.Log) Options {
	o := fastOpts()
	o.WAL = l
	return o
}

func TestWarmRestartReplaysPopulation(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")

	l1 := openWAL(t, net, "h1")
	d1 := New("h1", h1, persistOpts(l1))
	d2 := New("h2", h2, fastOpts())
	defer d2.Close()
	d1.Start()
	d2.Start()
	if d1.Epoch() != 1 {
		t.Fatalf("fresh-log epoch = %d, want 1", d1.Epoch())
	}

	d1.AddLocal(testTranslator(t, "h1", "a"))
	d1.AddLocal(testTranslator(t, "h1", "b"))
	d2.AddLocal(testTranslator(t, "h2", "x"))
	waitFor(t, 2*time.Second, func() bool { _, r := d1.Size(); return r == 1 })
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 2 })

	if err := d1.CloseForRestart(); err != nil {
		t.Fatalf("CloseForRestart: %v", err)
	}
	l1.Close()

	// The successor replays the same disk: locals warm, remotes present,
	// peer lease state restored — all before Start.
	l1b := openWAL(t, net, "h1")
	defer l1b.Close()
	d1b := New("h1", h1, persistOpts(l1b))
	defer d1b.Close()
	if d1b.Epoch() != 2 {
		t.Fatalf("restart epoch = %d, want 2", d1b.Epoch())
	}
	rs := d1b.ReplayedState()
	if rs.Locals != 2 || rs.Remotes != 1 || rs.Nodes != 1 {
		t.Fatalf("ReplayedState = %+v, want 2 locals / 1 remote / 1 node", rs)
	}
	local, remote := d1b.Size()
	if local != 2 || remote != 1 {
		t.Fatalf("warm population = %d local / %d remote", local, remote)
	}
	if d1b.WarmLocals() != 2 {
		t.Fatalf("WarmLocals = %d, want 2", d1b.WarmLocals())
	}
	// Warm entries are resolvable but not deliverable until re-claimed.
	id := core.MakeTranslatorID("h1", "umiddle", "a")
	if _, err := d1b.Resolve(id); err != nil {
		t.Fatalf("Resolve warm local: %v", err)
	}
	if _, ok := d1b.Local(id); ok {
		t.Fatal("Local() returned a warm entry with no live translator")
	}
	if nodes := d1b.Nodes(); len(nodes) != 1 || nodes[0] != "h2" {
		t.Fatalf("warm Nodes() = %v", nodes)
	}

	// Re-claiming with an identical profile is silent: same fingerprint,
	// no population churn visible to peers.
	if err := d1b.AddLocal(testTranslator(t, "h1", "a")); err != nil {
		t.Fatalf("re-claim: %v", err)
	}
	if d1b.WarmLocals() != 1 {
		t.Fatalf("WarmLocals after re-claim = %d, want 1", d1b.WarmLocals())
	}
	if _, ok := d1b.Local(id); !ok {
		t.Fatal("re-claimed entry not resolvable as live")
	}
}

func TestWarmRestartDigestContinuity(t *testing.T) {
	// The warm node's version/fingerprint must equal what it announced
	// before restarting, so peers detect no divergence and no sync storm
	// heals nothing.
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	l1 := openWAL(t, net, "h1")
	d1 := New("h1", h1, persistOpts(l1))
	d2 := New("h2", h2, fastOpts())
	defer d2.Close()
	d1.Start()
	d2.Start()
	d1.AddLocal(testTranslator(t, "h1", "a"))
	d1.AddLocal(testTranslator(t, "h1", "b"))
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 2 })

	d1.mu.RLock()
	wantVersion, wantFP := d1.version, d1.localFP
	d1.mu.RUnlock()
	d1.CloseForRestart()
	l1.Close()

	l1b := openWAL(t, net, "h1")
	defer l1b.Close()
	d1b := New("h1", h1, persistOpts(l1b))
	defer d1b.Close()
	d1b.mu.RLock()
	gotVersion, gotFP := d1b.version, d1b.localFP
	d1b.mu.RUnlock()
	if gotVersion != wantVersion || gotFP != wantFP {
		t.Fatalf("digest discontinuity: version %d->%d fp %x->%x",
			wantVersion, gotVersion, wantFP, gotFP)
	}
	// And the warm view of the peer matches the peer's own digest: let
	// the directories exchange heartbeats and verify no sync was needed.
	d1b.Start()
	d1b.AddLocal(testTranslator(t, "h1", "a"))
	d1b.AddLocal(testTranslator(t, "h1", "b"))
	time.Sleep(200 * time.Millisecond)
	if n := traceCount(d1b.Obs(), "sync_request", "h2"); n != 0 {
		t.Fatalf("warm restart requested %d syncs of the peer, want 0", n)
	}
}

func TestRestartVsCrashLeaseSemantics(t *testing.T) {
	// Satellite: a peer keeps entries across a clean restart (restarting
	// advert -> grace lease; epoch bump on return) but drops them after a
	// true lease lapse when the node crashes silently.
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := net.MustAddHost("h1")
	net.MustAddHost("h2")

	mk := func() (*Directory, *wal.Log) {
		h := net.Host("h2")
		l := openWAL(t, net, "h2")
		o := persistOpts(l)
		o.Lease = qos.LeasePolicy{ExpiryFactor: 4, RestartGraceFactor: 10}
		d := New("h2", h, o)
		d.Start()
		d.AddLocal(testTranslator(t, "h2", "cam"))
		return d, l
	}

	d1 := New("h1", h1, fastOpts())
	defer d1.Close()
	d1.Start()
	d2, l2 := mk()
	waitFor(t, 2*time.Second, func() bool { _, r := d1.Size(); return r == 1 })

	// Clean restart: CloseForRestart broadcasts "restarting"; the peer
	// must keep the entry for the whole grace even though the ordinary
	// lease (4 x 20ms) lapses many times over while the node is away.
	if err := d2.CloseForRestart(); err != nil {
		t.Fatalf("CloseForRestart: %v", err)
	}
	l2.Close()
	time.Sleep(400 * time.Millisecond) // 5 ordinary leases of silence
	if _, r := d1.Size(); r != 1 {
		t.Fatalf("peer dropped entries during restart grace: %d remotes", r)
	}
	if n := traceCount(d1.Obs(), "node_restarting", "h2"); n == 0 {
		t.Fatal("no node_restarting trace recorded")
	}

	// The node returns warm: entry stays, node stays up, epoch bumped.
	d2b, l2b := mk()
	waitFor(t, 2*time.Second, func() bool {
		return traceCount(d1.Obs(), "node_restarted", "h2") == 1
	})
	if _, r := d1.Size(); r != 1 {
		t.Fatalf("entry lost across clean restart: %d remotes", r)
	}
	if n := traceCount(d1.Obs(), "node_down", "h2"); n != 0 {
		t.Fatalf("node_down fired %d times across a clean restart, want 0", n)
	}

	// Crash: silence with no restarting advert. The ordinary lease lapses
	// and the entry drops promptly.
	if _, err := net.CrashNode("h2"); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}
	crashed := time.Now()
	waitFor(t, 2*time.Second, func() bool { _, r := d1.Size(); return r == 0 })
	if elapsed := time.Since(crashed); elapsed > time.Second {
		t.Fatalf("crash drop took %v, want prompt lease lapse", elapsed)
	}
	if n := traceCount(d1.Obs(), "node_down", "h2"); n != 1 {
		t.Fatalf("node_down after crash = %d, want 1", n)
	}
	d2b.Close()
	l2b.Close()

	// A restarting node that never returns lapses at the end of the
	// grace — restart intent is not immortality.
	if _, err := net.RestartNode("h2"); err != nil {
		t.Fatalf("RestartNode: %v", err)
	}
	d2c, l2c := mk()
	waitFor(t, 2*time.Second, func() bool { _, r := d1.Size(); return r == 1 })
	d2c.CloseForRestart()
	l2c.Close()
	waitFor(t, 4*time.Second, func() bool { _, r := d1.Size(); return r == 0 })
}

func TestStartupSyncCannotResurrectGhosts(t *testing.T) {
	// Regression (satellite): warm import must be serialized before the
	// first advert is processed. A peer removes an entry while this node
	// is down; on warm restart the stale entry replays, adverts flood in
	// concurrently with startup, and the divergence-driven sync must drop
	// the ghost — never resurrect it. Run with -race: the flood exercises
	// receiveLoop against replay-populated state.
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := net.MustAddHost("h1")
	net.MustAddHost("h2")

	d1 := New("h1", h1, fastOpts())
	defer d1.Close()
	d1.Start()
	for _, id := range []string{"keep", "ghost"} {
		d1.AddLocal(testTranslator(t, "h1", id))
	}

	l2 := openWAL(t, net, "h2")
	d2 := New("h2", net.Host("h2"), persistOpts(l2))
	d2.Start()
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 2 })
	d2.CloseForRestart()
	l2.Close()

	// While h2 is down, h1 removes "ghost".
	if _, err := d1.RemoveLocal(core.MakeTranslatorID("h1", "umiddle", "ghost")); err != nil {
		t.Fatalf("RemoveLocal: %v", err)
	}

	// Restart h2 warm — the stale "ghost" entry replays — while h1 keeps
	// announcing. Convergence must end with exactly the one live entry.
	l2b := openWAL(t, net, "h2")
	defer l2b.Close()
	d2b := New("h2", net.Host("h2"), persistOpts(l2b))
	defer d2b.Close()
	if _, r := d2b.Size(); r != 2 {
		t.Fatalf("warm replay should carry the stale entry: %d remotes", r)
	}
	d2b.Start()
	ghost := core.MakeTranslatorID("h1", "umiddle", "ghost")
	waitFor(t, 4*time.Second, func() bool {
		_, err := d2b.Resolve(ghost)
		_, r := d2b.Size()
		return err != nil && r == 1
	})
	// And it must stay gone: no late replay re-adds it.
	time.Sleep(100 * time.Millisecond)
	if _, err := d2b.Resolve(ghost); err == nil {
		t.Fatal("ghost entry resurrected after startup sync")
	}
}

func TestUnclaimedWarmEntriesDropAfterGrace(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := net.MustAddHost("h1")
	net.MustAddHost("h2")

	d1 := New("h1", h1, fastOpts())
	defer d1.Close()
	d1.Start()

	l2 := openWAL(t, net, "h2")
	o := persistOpts(l2)
	o.Lease = qos.LeasePolicy{ExpiryFactor: 4, RestartGraceFactor: 2}
	d2 := New("h2", net.Host("h2"), o)
	d2.Start()
	d2.AddLocal(testTranslator(t, "h2", "gone"))
	d2.AddLocal(testTranslator(t, "h2", "back"))
	waitFor(t, 2*time.Second, func() bool { _, r := d1.Size(); return r == 2 })
	d2.CloseForRestart()
	l2.Close()

	l2b := openWAL(t, net, "h2")
	defer l2b.Close()
	o2 := persistOpts(l2b)
	o2.Lease = qos.LeasePolicy{ExpiryFactor: 4, RestartGraceFactor: 2}
	d2b := New("h2", net.Host("h2"), o2)
	defer d2b.Close()
	d2b.Start()
	// Only "back" re-registers; "gone"'s device did not survive the
	// restart. After the grace (2 x 4 x 20ms) the directory withdraws it
	// everywhere.
	d2b.AddLocal(testTranslator(t, "h2", "back"))
	waitFor(t, 2*time.Second, func() bool { return d2b.WarmLocals() == 0 })
	waitFor(t, 2*time.Second, func() bool { _, r := d1.Size(); return r == 1 })
	if _, err := d1.Resolve(core.MakeTranslatorID("h2", "umiddle", "back")); err != nil {
		t.Fatalf("surviving entry missing at peer: %v", err)
	}
}

func TestSnapshotCompactsAndReplaysExactly(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Open(filepath.Join(dir, "d.wal"))
	if err != nil {
		t.Fatal(err)
	}
	d := New("h1", nil, persistOpts(l))
	for i := 0; i < 50; i++ {
		d.AddLocal(testTranslator(t, "h1", "t"+string(rune('a'+i%26))+string(rune('0'+i/26))))
	}
	for i := 0; i < 25; i++ {
		id := core.MakeTranslatorID("h1", "umiddle", "t"+string(rune('a'+i%26))+string(rune('0'+i/26)))
		if _, err := d.RemoveLocal(id); err != nil {
			t.Fatal(err)
		}
	}
	before := l.Size()
	if err := d.SnapshotNow(); err != nil {
		t.Fatalf("SnapshotNow: %v", err)
	}
	if l.Size() >= before {
		t.Fatalf("snapshot did not compact: %d -> %d", before, l.Size())
	}
	d.Close()
	l.Close()

	l2, err := wal.Open(filepath.Join(dir, "d.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	d2 := New("h1", nil, persistOpts(l2))
	defer d2.Close()
	local, _ := d2.Size()
	if local != 25 {
		t.Fatalf("replayed %d locals, want 25", local)
	}
	if d2.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", d2.Epoch())
	}
}

func TestForeignWALIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "d.wal")
	l, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	d := New("original", nil, persistOpts(l))
	d.AddLocal(testTranslator(t, "original", "a"))
	d.Close()
	l.Close()

	l2, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// A different node replaying this log must not import another node's
	// identity — cold population, but the epoch lineage continues.
	d2 := New("impostor", nil, persistOpts(l2))
	defer d2.Close()
	local, remote := d2.Size()
	if local != 0 || remote != 0 {
		t.Fatalf("foreign state imported: %d local / %d remote", local, remote)
	}
	if d2.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", d2.Epoch())
	}
}

func TestPersistStats(t *testing.T) {
	d := New("h1", nil, fastOpts())
	defer d.Close()
	if _, ok := d.PersistStats(); ok {
		t.Fatal("PersistStats ok without a WAL")
	}

	l, err := wal.Open(filepath.Join(t.TempDir(), "d.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dp := New("h2", nil, persistOpts(l))
	defer dp.Close()
	dp.AddLocal(testTranslator(t, "h2", "a"))
	st, ok := dp.PersistStats()
	if !ok || st.AppendedRecords < 2 || st.SizeBytes <= 0 {
		t.Fatalf("PersistStats = %+v ok=%v", st, ok)
	}
}

// TestReplaySkipsIncompleteEntries: a snapshot always records each
// remote entry's wire ID, zone and fingerprint, and each local entry's
// fingerprint; replay skips an entry lacking any of them instead of
// guessing it.
func TestReplaySkipsIncompleteEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "d.wal")
	l, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	entry := func(local string) persistRemoteEntry {
		p := remoteProfile("h2", local)
		return persistRemoteEntry{Profile: p, WireID: p.ID, Zone: "z2", Fp: p.Fingerprint()}
	}
	noWire, noZone, noFp := entry("nowire"), entry("nozone"), entry("nofp")
	noWire.WireID, noZone.Zone, noFp.Fp = "", "", 0
	local := func(name string, fp uint64) persistLocal {
		return persistLocal{Profile: remoteProfile("h1", name), Fp: fp}
	}
	snap, err := json.Marshal(persistState{Epoch: 1, Node: "h1", Zone: "h1",
		Locals:  []persistLocal{local("mine", 0x11), local("nofp", 0)},
		Remotes: []persistRemoteEntry{entry("ok"), noWire, noZone, noFp}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(recSnapshot, snap); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, err := wal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	d := New("h1", nil, persistOpts(l2))
	defer d.Close()
	if got := d.ReplayedState(); got.Locals != 1 || got.Remotes != 1 {
		t.Fatalf("replayed %d local and %d remote entries, want 1 and 1", got.Locals, got.Remotes)
	}
	if _, err := d.Resolve(core.MakeTranslatorID("h2", "umiddle", "ok")); err != nil {
		t.Fatalf("complete entry not replayed: %v", err)
	}
}
