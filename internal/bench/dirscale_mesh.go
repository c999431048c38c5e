package bench

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netemu"
	"repro/internal/obs"
	"repro/internal/qos"
)

// DirScaleMeshRow is one point of the federated-mesh variant of the
// directory scalability benchmark: the population spread over a chain
// of single-link segments, every node interest-filtered to 10% of the
// rooms, adverts crossing the mesh only through relays. The claims
// under test: convergence completes at all (anti-entropy works across
// hops), per-node advert bandwidth stays population-independent at
// steady state, and a new zone joins the mesh within a small factor of
// the 3-node baseline.
type DirScaleMeshRow struct {
	// Test labels the row ("dirscale mesh N=100000 nodes=50").
	Test string
	// Population is the total translator count across all nodes.
	Population int
	// Nodes is how many chained directory nodes share the population.
	Nodes int
	// ConvergeTime is the registration burst start to every node holding
	// its full interest-filtered view.
	ConvergeTime time.Duration
	// ObserverPopulation is the remote entries node 0 converged to (its
	// interest subset of everyone else's population).
	ObserverPopulation int
	// PerNodeAdvertBytesPerSec is the steady-state advert bandwidth one
	// node spends — own adverts plus relayed ones — averaged over all
	// nodes. The population-independence claim gates on this.
	PerNodeAdvertBytesPerSec float64
	// ZoneJoinTime is how long a fresh zone (one node, 50 translators)
	// appended to the far end of the chain takes to fully join: its
	// translators visible at node 0 and the whole population's interest
	// subset integrated at the joiner.
	ZoneJoinTime time.Duration
	// ZoneJoinSeconds is ZoneJoinTime in seconds, the gated form.
	ZoneJoinSeconds float64
	// Baseline3JoinTime is the same join measured on a 3-node chain with
	// a room-scale population — the acceptance bound's denominator.
	Baseline3JoinTime time.Duration
	// Baseline3JoinSeconds is Baseline3JoinTime in seconds.
	Baseline3JoinSeconds float64
	// Window is the steady-state measurement window.
	Window time.Duration
}

// MeshPoint is one (population, nodes) configuration of the mesh
// benchmark.
type MeshPoint struct {
	Population int
	Nodes      int
}

// meshRelayTTL is the hop budget for the chain runs: far above the
// longest path so the benchmark never measures TTL drops.
const meshRelayTTL = 64

// meshCadence picks the announce interval for a mesh point. The 3-node
// dirscale cadence (100 ms) is a LAN assumption; in a chained mesh
// every advert is re-marshaled at every hop, so cadence × content ×
// hops sets the CPU cost of the protocol — overrun it and relay queues
// grow, heartbeats outlive the lease, and lease-lapse churn *feeds
// itself* (dropped entries → digest mismatch → full-zone syncs →
// more queueing). 500 ms sustains a 50-node chain at room-scale
// content on one core; at 100k entries the full-zone sync payloads are
// ~60 KB × 49 relay hops each, so the cadence stretches to 2 s — the
// same knob a real federation turns when zones span slow links. The
// 3-node baseline join is measured at the same cadence as its mesh
// point, keeping the join-time comparison apples-to-apples.
func meshCadence(population int) time.Duration {
	if population >= 20000 {
		return 2 * time.Second
	}
	return 500 * time.Millisecond
}

// meshExpiryFactor stretches the liveness lease to 40 announce
// intervals for mesh nodes. The default (4) assumes a shared bus where
// a heartbeat is one send away; across a 50-hop relay chain under a
// registration burst, end-to-end heartbeat latency can exceed 4
// intervals, and a lapsed lease drops the node's entries and triggers
// a re-integration storm that feeds back into the latency. Federated
// deployments run WAN-scale leases for the same reason.
const meshExpiryFactor = 40

// meshInterests registers the standard 10%-coverage interest set
// (rooms 0..4 of the 50-room population) on a directory.
func meshInterests(d *directory.Directory) {
	for r := 0; r < dirScaleInterestRooms; r++ {
		d.RegisterInterest(core.Query{Attributes: map[string]string{"room": fmt.Sprintf("room-%d", r)}})
	}
}

// meshWorld is a running chain of directory nodes.
type meshWorld struct {
	net     *netemu.Network
	names   []string
	dirs    []*directory.Directory
	regs    []*obs.Registry
	cadence time.Duration
}

func (w *meshWorld) close() {
	for _, d := range w.dirs {
		if d != nil {
			d.Close()
		}
	}
	w.net.Close()
}

// newMeshWorld stands up a chain of nodes, registers interests, starts
// every directory, and waits for full node discovery across the relays.
func newMeshWorld(nodes int, cadence time.Duration) (*meshWorld, error) {
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i)
	}
	net, err := netemu.NewMesh(netemu.Unlimited(), netemu.ChainTopology(names...))
	if err != nil {
		return nil, err
	}
	w := &meshWorld{net: net, names: names,
		dirs:    make([]*directory.Directory, nodes),
		regs:    make([]*obs.Registry, nodes),
		cadence: cadence}
	for i := range names {
		w.regs[i] = obs.NewRegistry()
		w.dirs[i] = directory.New(names[i], net.Host(names[i]), directory.Options{
			AnnounceInterval: cadence,
			Lease:            qos.LeasePolicy{ExpiryFactor: meshExpiryFactor},
			Interest:         true,
			Relay:            true,
			RelayTTL:         meshRelayTTL,
			Zone:             fmt.Sprintf("zone-%d", i),
			Obs:              w.regs[i],
		})
		meshInterests(w.dirs[i])
		if err := w.dirs[i].Start(); err != nil {
			w.close()
			return nil, err
		}
	}
	// Discovery first: every node must hold a liveness lease on every
	// other before the burst, so the burst measures state convergence,
	// not node discovery.
	if err := waitCond(60*time.Second, func() bool {
		for _, d := range w.dirs {
			if len(d.Nodes()) != nodes-1 {
				return false
			}
		}
		return true
	}); err != nil {
		w.close()
		return nil, fmt.Errorf("mesh discovery incomplete: %w", err)
	}
	return w, nil
}

// advertBytes sums a node's sent advert bytes including relayed ones.
func advertBytes(reg *obs.Registry, node string) uint64 {
	var total uint64
	for _, c := range reg.Snapshot().Counters {
		if (c.Name == "umiddle_directory_advert_bytes_total" ||
			c.Name == "umiddle_directory_advert_relay_bytes_total" ||
			c.Name == "umiddle_directory_bootstrap_bytes_total") &&
			c.Labels["node"] == node {
			total += c.Value
		}
	}
	return total
}

// meshJoin appends one fresh zone ("late", 50 translators, one per
// room) to the far end of the chain and measures until the join is
// complete in both directions: node 0 resolves the joiner's interest
// subset, and the joiner holds its interest subset of the population.
func meshJoin(w *meshWorld, joinerExpect int) (time.Duration, error) {
	last := w.names[len(w.names)-1]
	if _, err := w.net.AddHost("late"); err != nil {
		return 0, err
	}
	if err := w.net.AddLink("seg-late", last, "late"); err != nil {
		return 0, err
	}
	late := directory.New("late", w.net.Host("late"), directory.Options{
		AnnounceInterval: w.cadence,
		Lease:            qos.LeasePolicy{ExpiryFactor: meshExpiryFactor},
		Interest:         true,
		RelayTTL:         meshRelayTTL,
		Zone:             "zone-late",
		Obs:              obs.NewRegistry(),
	})
	meshInterests(late)
	w.dirs = append(w.dirs, late)
	far := w.dirs[0]
	_, farBefore := far.Size()
	start := time.Now()
	if err := late.Start(); err != nil {
		return 0, err
	}
	for i := 0; i < 50; i++ {
		if err := late.AddLocal(core.MustBase(dirScaleProfile("late", i))); err != nil {
			return 0, err
		}
	}
	// 50 translators, one per room: rooms 0..4 match the mesh interest.
	progress := time.NewTicker(15 * time.Second)
	defer progress.Stop()
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			select {
			case <-done:
				return
			case <-progress.C:
				_, farNow := far.Size()
				_, lateNow := late.Size()
				probes := ""
				for _, pi := range []int{len(w.names) - 1, len(w.names) / 2, 0} {
					if pi < len(w.names) {
						_, r := w.dirs[pi].Size()
						probes += fmt.Sprintf(" %s=%d", w.names[pi], r)
					}
				}
				var dups, ttls uint64
				for i, reg := range w.regs {
					dups += reg.Counter("umiddle_directory_relay_dup_dropped_total", obs.Labels{"node": w.names[i]}).Value()
					ttls += reg.Counter("umiddle_directory_relay_ttl_dropped_total", obs.Labels{"node": w.names[i]}).Value()
				}
				fmt.Fprintf(os.Stderr, "dirscale mesh join: %v elapsed, far=%d (want %d) joiner=%d (want %d) farKnows=%d probes:%s dupdrops=%d ttldrops=%d\n",
					time.Since(start).Round(time.Second), farNow, farBefore+dirScaleInterestRooms, lateNow, joinerExpect,
					len(far.Nodes()), probes, dups, ttls)
			}
		}
	}()
	if err := waitCond(120*time.Second, func() bool {
		_, farNow := far.Size()
		if farNow < farBefore+dirScaleInterestRooms {
			return false
		}
		_, lateNow := late.Size()
		return lateNow >= joinerExpect
	}); err != nil {
		return 0, fmt.Errorf("zone join did not converge: %w", err)
	}
	return time.Since(start), nil
}

// runDirScaleMesh measures one mesh population point. The 3-node
// baseline join is measured first, at the same cadence as the point.
func runDirScaleMesh(population, nodes int, window time.Duration) (DirScaleMeshRow, error) {
	cadence := meshCadence(population)
	row := DirScaleMeshRow{
		Test:       fmt.Sprintf("dirscale mesh N=%d nodes=%d", population, nodes),
		Population: population,
		Nodes:      nodes,
		Window:     window,
	}
	baseline, err := meshBaseline3(cadence)
	if err != nil {
		return row, fmt.Errorf("3-node baseline: %w", err)
	}
	row.Baseline3JoinTime = baseline
	row.Baseline3JoinSeconds = baseline.Seconds()
	w, err := newMeshWorld(nodes, cadence)
	if err != nil {
		return row, err
	}
	defer w.close()

	// Registration burst: node i hosts population/nodes members (node 0
	// absorbs the remainder). Registrations land in rounds — every node
	// adds a slice, then one announce interval passes — so coalesced
	// deltas stay advert-sized and relay inboxes keep pace; an
	// all-at-once burst at 100k floods the chain faster than the relays
	// can drain. Track per-node expectations under the shared 10%
	// interest set.
	per := population / nodes
	local := make([]int, nodes)
	matching := make([]int, nodes)
	totalMatching := 0
	for i := 0; i < nodes; i++ {
		local[i] = per
		if i == 0 {
			local[i] += population - per*nodes
		}
	}
	const roundSize = 200
	start := time.Now()
	added := make([]int, nodes)
	base := make([]int, nodes)
	off := 0
	for i := 0; i < nodes; i++ {
		base[i] = off
		off += local[i]
	}
	for budget := population; budget > 0; {
		for i := 0; i < nodes; i++ {
			n := local[i] - added[i]
			if n > roundSize {
				n = roundSize
			}
			for j := 0; j < n; j++ {
				idx := base[i] + added[i]
				if idx%50 < dirScaleInterestRooms {
					matching[i]++
					totalMatching++
				}
				if err := w.dirs[i].AddLocal(core.MustBase(dirScaleProfile(w.names[i], idx))); err != nil {
					return row, err
				}
				added[i]++
				budget--
			}
		}
		time.Sleep(w.cadence)
	}
	row.ObserverPopulation = totalMatching - matching[0]
	// Convergence budget scales with the data actually shipped: the
	// interest subset of the population, relayed across the chain.
	timeout := 120*time.Second + time.Duration(population/100)*time.Second
	progress := time.NewTicker(15 * time.Second)
	defer progress.Stop()
	done := make(chan struct{})
	defer close(done)
	go func() {
		for {
			select {
			case <-done:
				return
			case <-progress.C:
				minR, maxR := -1, 0
				for _, d := range w.dirs {
					_, r := d.Size()
					if minR < 0 || r < minR {
						minR = r
					}
					if r > maxR {
						maxR = r
					}
				}
				var downs, syncs uint64
				for i, reg := range w.regs {
					downs += reg.Counter("umiddle_directory_node_down_total", obs.Labels{"node": w.names[i]}).Value()
					syncs += reg.Counter("umiddle_directory_adverts_sent_total", obs.Labels{"node": w.names[i], "type": "sync_req"}).Value()
				}
				fmt.Fprintf(os.Stderr, "dirscale mesh %d/%d: %v elapsed, remote entries min=%d max=%d (want %d), node-downs=%d sync_reqs=%d\n",
					population, nodes, time.Since(start).Round(time.Second), minR, maxR, totalMatching-matching[0], downs, syncs)
			}
		}
	}()
	if err := waitCond(timeout, func() bool {
		for i, d := range w.dirs {
			l, r := d.Size()
			if l != local[i] || r != totalMatching-matching[i] {
				return false
			}
		}
		return true
	}); err != nil {
		return row, fmt.Errorf("mesh population %d/%d did not converge: %w", population, nodes, err)
	}
	row.ConvergeTime = time.Since(start)

	// Steady-state per-node advert bandwidth: own traffic plus relays,
	// averaged across nodes. Settle first so convergence-tail syncs
	// don't leak into the window.
	time.Sleep(3 * w.cadence)
	sum := func() uint64 {
		var total uint64
		for i, reg := range w.regs {
			total += advertBytes(reg, w.names[i])
		}
		return total
	}
	// The window must span several announce intervals: shorter than one
	// cadence it can fall entirely between heartbeats and read zero.
	steadyWindow := window
	if min := 4 * w.cadence; steadyWindow < min {
		steadyWindow = min
	}
	before := sum()
	bwStart := time.Now()
	time.Sleep(steadyWindow)
	elapsed := time.Since(bwStart)
	row.PerNodeAdvertBytesPerSec = float64(sum()-before) / elapsed.Seconds() / float64(nodes)

	// Zone join: the joiner integrates the whole population's interest
	// subset (it owns nothing yet).
	join, err := meshJoin(w, totalMatching)
	if err != nil {
		return row, err
	}
	row.ZoneJoinTime = join
	row.ZoneJoinSeconds = join.Seconds()
	return row, nil
}

// meshBaseline3 measures the zone-join time on a 3-node chain with a
// room-scale population at the given cadence — the denominator of the
// acceptance bound (mesh joins must land within a small factor of it).
func meshBaseline3(cadence time.Duration) (time.Duration, error) {
	w, err := newMeshWorld(3, cadence)
	if err != nil {
		return 0, err
	}
	defer w.close()
	// 50 translators per node, one per room: every node owns exactly
	// dirScaleInterestRooms matching ones.
	for i := 0; i < 3; i++ {
		for j := 0; j < 50; j++ {
			if err := w.dirs[i].AddLocal(core.MustBase(dirScaleProfile(w.names[i], i*50+j))); err != nil {
				return 0, err
			}
		}
	}
	totalMatching := 3 * dirScaleInterestRooms
	expectRemote := totalMatching - dirScaleInterestRooms
	if err := waitCond(60*time.Second, func() bool {
		for _, d := range w.dirs {
			l, r := d.Size()
			if l != 50 || r != expectRemote {
				return false
			}
		}
		return true
	}); err != nil {
		return 0, fmt.Errorf("baseline population did not converge: %w", err)
	}
	return meshJoin(w, totalMatching)
}

// RunDirScaleMesh runs the federated-mesh scalability benchmark at the
// given points (default 100k over 50 nodes plus a 1k/10 smoke point).
func RunDirScaleMesh(points []MeshPoint, window time.Duration) ([]DirScaleMeshRow, error) {
	if len(points) == 0 {
		points = []MeshPoint{{100000, 50}, {1000, 10}}
	}
	if window <= 0 {
		window = time.Second
	}
	var rows []DirScaleMeshRow
	for _, pt := range points {
		if pt.Nodes < 2 || pt.Population < pt.Nodes {
			return nil, fmt.Errorf("bench: bad mesh point %dx%d", pt.Population, pt.Nodes)
		}
		row, err := runDirScaleMesh(pt.Population, pt.Nodes, window)
		if err != nil {
			return nil, fmt.Errorf("bench: dirscale mesh %dx%d: %w", pt.Population, pt.Nodes, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
