package directory

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
	"repro/internal/obs"
)

// indexModel is the brute-force reference the indexed directory is
// checked against: a flat profile set plus the live-node set, mutated
// by the same operations the directory sees.
type indexModel struct {
	profiles map[core.TranslatorID]core.Profile
	nodes    map[string]bool
}

func newIndexModel() *indexModel {
	return &indexModel{profiles: map[core.TranslatorID]core.Profile{}, nodes: map[string]bool{}}
}

// lookup is the spec: scan everything, keep matches, sort by (Node, ID).
func (m *indexModel) lookup(q core.Query) []core.Profile {
	var out []core.Profile
	for _, p := range m.profiles {
		if q.Matches(p) {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].ID < out[j].ID
	})
	return out
}

func (m *indexModel) nodeList() []string {
	out := make([]string, 0, len(m.nodes))
	for n := range m.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// equivProfile compares what Lookup returned against the model's
// profile for the same ID.
func equivProfile(got, want core.Profile) bool {
	return sameProfile(got, want)
}

var equivPortSets = [][]core.Port{
	{{Name: "out", Kind: core.Digital, Direction: core.Output, Type: "text/plain"}},
	{{Name: "img-out", Kind: core.Digital, Direction: core.Output, Type: "image/jpeg"}},
	{
		{Name: "img-in", Kind: core.Digital, Direction: core.Input, Type: "image/jpeg"},
		{Name: "screen", Kind: core.Physical, Direction: core.Output, Type: "visible/screen"},
	},
	{
		{Name: "audio-in", Kind: core.Digital, Direction: core.Input, Type: "audio/pcm"},
		{Name: "air", Kind: core.Physical, Direction: core.Output, Type: "audible/air"},
	},
	{{Name: "ctl", Kind: core.Physical, Direction: core.Input, Type: "visible/paper"}},
}

// equivQueries mixes indexed criteria (node, platform, device type,
// ports) with scan-only ones (attributes, name substring) and
// intersections of several.
var equivQueries = []core.Query{
	{},
	core.QueryAccepting("image/jpeg", "visible/*"),
	core.QueryProducing("image/jpeg"),
	{Node: "h2"},
	{Node: "h9"}, // never exists
	{Platform: "UMIDDLE"},
	{Platform: "umiddle", DeviceType: "sensor"},
	{DeviceType: "tv"},
	{NameContains: "dev-1"},
	{Attributes: map[string]string{"room": "room-1"}},
	{Node: "h3", Ports: []core.PortTemplate{{Direction: core.Input, Kind: core.Digital}}},
	{Ports: []core.PortTemplate{{Kind: core.Physical, Direction: core.Output, Type: "visible/*"}}},
	{Ports: []core.PortTemplate{{Type: "*/*"}}},
	{Ports: []core.PortTemplate{{Direction: core.Input}, {Direction: core.Output}}},
}

// equivProfileFor builds a deterministic wire-ready profile for
// (node, slot, shape variant).
func equivProfileFor(node string, slot, variant int) core.Profile {
	p := core.Profile{
		ID:         core.MakeTranslatorID(node, "umiddle", fmt.Sprintf("dev-%d", slot)),
		Name:       fmt.Sprintf("dev-%d", slot),
		Platform:   "umiddle",
		DeviceType: []string{"camera", "tv", "sensor"}[variant%3],
		Node:       node,
		Shape:      core.MustShape(equivPortSets[variant%len(equivPortSets)]...),
		Attributes: map[string]string{"room": fmt.Sprintf("room-%d", slot%3)},
	}
	p.SyncShapePorts()
	return p
}

// TestIndexedLookupEquivalenceProperty drives a directory through a
// randomized add / remove / same-ID re-register / re-announce / sync /
// crash workload and checks Lookup, Resolve, and Nodes against a
// brute-force model: the indexed base, its result cache and the overlay
// of entries changed since must be observationally identical to the
// scan they replaced. Each seed runs three phases:
//   - a read after every operation, mostly served from the overlay;
//   - reads only every 30 to 170 operations over a wider ID space, so
//     the touched set regularly outgrows the overlay and the next read
//     rebuilds the base;
//   - a warm restart from the WAL, whose replay marks every entry
//     touched, followed by more per-operation reads.
func TestIndexedLookupEquivalenceProperty(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			st := runIndexEquivalence(t, seed)
			t.Logf("overlay reads %d, base rebuilds %d", st.overlay, st.rebuilt)
			if st.overlay == 0 || st.rebuilt == 0 {
				t.Fatalf("reads served from an overlay: %d, base rebuilds: %d; want both", st.overlay, st.rebuilt)
			}
			// The workload must actually have exercised the result cache.
			if st.hits == 0 {
				t.Fatal("equivalence workload never hit the query-result cache")
			}
		})
	}
}

// equivStats counts which read paths an equivalence run took.
type equivStats struct {
	overlay int    // reads whose view carried a non-empty overlay
	rebuilt int    // reads that replaced an existing base
	hits    uint64 // query-result cache hits
}

func runIndexEquivalence(t *testing.T, seed int64) equivStats {
	rng := rand.New(rand.NewSource(seed))
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	l := openWAL(t, net, "h1")
	d := New("h1", nil, Options{WAL: l})
	defer func() {
		d.Close()
		l.Close()
	}()
	model := newIndexModel()
	remoteNodes := []string{"h2", "h3", "h4"}
	slots := 8 // remote slots per node
	var st equivStats
	var lastBase *snapshot
	cacheHits := func() uint64 {
		return d.Obs().Counter("umiddle_directory_query_cache_hits_total", obs.Labels{"node": "h1"}).Value()
	}

	// applyRemote routes one advert through both directory and model.
	applyRemote := func(a advert) {
		d.handleAdvert(a)
		switch a.Type {
		case "announce", "add":
			if a.Node != "" {
				model.nodes[a.Node] = true
			}
			for _, p := range a.Profiles {
				model.profiles[p.ID] = p
			}
		case "remove":
			if a.Node != "" {
				model.nodes[a.Node] = true
			}
			for _, id := range a.Removed {
				delete(model.profiles, id)
			}
		case "sync":
			if a.Node != "" {
				model.nodes[a.Node] = true
			}
			present := map[core.TranslatorID]bool{}
			for _, p := range a.Profiles {
				model.profiles[p.ID] = p
				present[p.ID] = true
			}
			for id, p := range model.profiles {
				if p.Node == a.Node && !present[id] {
					delete(model.profiles, id)
				}
			}
		case "bye":
			delete(model.nodes, a.Node)
			for id, p := range model.profiles {
				if p.Node == a.Node {
					delete(model.profiles, id)
				}
			}
		}
	}

	check := func(step int) {
		t.Helper()
		for qi, q := range equivQueries {
			got := d.Lookup(q)
			want := model.lookup(q)
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d query %d: got %d profiles, want %d", seed, step, qi, len(got), len(want))
			}
			for i := range got {
				if got[i].ID != want[i].ID {
					t.Fatalf("seed %d step %d query %d: result %d = %s, want %s (order or content diverged)",
						seed, step, qi, i, got[i].ID, want[i].ID)
				}
				if !equivProfile(got[i], want[i]) {
					t.Fatalf("seed %d step %d query %d: profile %s content diverged", seed, step, qi, got[i].ID)
				}
			}
		}
		// Resolve agrees for a sample of known and unknown IDs.
		for id, want := range model.profiles {
			got, err := d.Resolve(id)
			if err != nil {
				t.Fatalf("seed %d step %d: Resolve(%s): %v", seed, step, id, err)
			}
			if !equivProfile(got, want) {
				t.Fatalf("seed %d step %d: Resolve(%s) content diverged", seed, step, id)
			}
			break // one per step keeps the test fast
		}
		if _, err := d.Resolve(core.MakeTranslatorID("h9", "umiddle", "ghost")); err == nil {
			t.Fatalf("seed %d step %d: Resolve of unknown id succeeded", seed, step)
		}
		gotNodes := d.Nodes()
		wantNodes := model.nodeList()
		if len(gotNodes) != len(wantNodes) {
			t.Fatalf("seed %d step %d: Nodes() = %v, want %v", seed, step, gotNodes, wantNodes)
		}
		for i := range gotNodes {
			if gotNodes[i] != wantNodes[i] {
				t.Fatalf("seed %d step %d: Nodes() = %v, want %v", seed, step, gotNodes, wantNodes)
			}
		}
		v := d.snap.Load()
		switch {
		case v.base != lastBase:
			if lastBase != nil {
				st.rebuilt++
			}
			lastBase = v.base
		case len(v.gone) > 0:
			st.overlay++
		}
	}

	localSlot := 0
	localID := func(slot int) core.TranslatorID {
		return core.MakeTranslatorID("h1", "umiddle", fmt.Sprintf("dev-%d", slot))
	}
	// op applies one random operation; readEach adds a read between the
	// halves of a same-ID re-registration.
	op := func(step int, readEach bool) {
		switch rng.Intn(11) {
		case 0, 1: // register a local translator
			p := equivProfileFor("h1", localSlot, rng.Intn(len(equivPortSets)))
			localSlot++
			if err := d.AddLocal(core.MustBase(p)); err != nil {
				t.Fatalf("seed %d step %d: AddLocal: %v", seed, step, err)
			}
			model.profiles[p.ID] = p
		case 2: // remove a random local translator
			if localSlot == 0 {
				return
			}
			id := localID(rng.Intn(localSlot))
			if _, err := d.RemoveLocal(id); err == nil {
				delete(model.profiles, id)
			}
		case 3, 4: // remote announce/add (merge) of 1-3 profiles
			node := remoteNodes[rng.Intn(len(remoteNodes))]
			typ := []string{"announce", "add"}[rng.Intn(2)]
			n := 1 + rng.Intn(3)
			profiles := make([]core.Profile, 0, n)
			for i := 0; i < n; i++ {
				profiles = append(profiles, equivProfileFor(node, rng.Intn(slots), rng.Intn(len(equivPortSets))))
			}
			applyRemote(advert{Type: typ, Node: node, Zone: node, Profiles: profiles, Version: uint64(step), Fp: rng.Uint64()})
		case 5: // re-announce with a changed shape under a stable ID
			node := remoteNodes[rng.Intn(len(remoteNodes))]
			p := equivProfileFor(node, rng.Intn(slots), rng.Intn(len(equivPortSets)))
			applyRemote(advert{Type: "announce", Node: node, Zone: node, Profiles: []core.Profile{p}})
		case 6: // remote remove
			node := remoteNodes[rng.Intn(len(remoteNodes))]
			id := core.MakeTranslatorID(node, "umiddle", fmt.Sprintf("dev-%d", rng.Intn(slots)))
			applyRemote(advert{Type: "remove", Node: node, Removed: []core.TranslatorID{id}})
		case 7: // full sync: reconcile drops whatever the advert omits
			node := remoteNodes[rng.Intn(len(remoteNodes))]
			n := rng.Intn(4)
			profiles := make([]core.Profile, 0, n)
			for i := 0; i < n; i++ {
				profiles = append(profiles, equivProfileFor(node, rng.Intn(slots), rng.Intn(len(equivPortSets))))
			}
			applyRemote(advert{Type: "sync", Node: node, Zone: node, Profiles: profiles, Version: uint64(step), Fp: rng.Uint64()})
		case 8: // node crash (bye is the deterministic stand-in for lease lapse)
			node := remoteNodes[rng.Intn(len(remoteNodes))]
			applyRemote(advert{Type: "bye", Node: node})
		case 9: // spoofed provenance: advert node differs from profile node
			// (labeled with the owner's zone, as a relay speaking for it does)
			from := remoteNodes[rng.Intn(len(remoteNodes))]
			owner := remoteNodes[rng.Intn(len(remoteNodes))]
			p := equivProfileFor(owner, rng.Intn(slots), rng.Intn(len(equivPortSets)))
			applyRemote(advert{Type: "announce", Node: from, Zone: owner, Profiles: []core.Profile{p}})
		case 10: // a device leaving and rejoining under the same ID
			if localSlot == 0 {
				return
			}
			slot := rng.Intn(localSlot)
			for k := 1 + rng.Intn(3); k > 0; k-- {
				if _, err := d.RemoveLocal(localID(slot)); err == nil {
					delete(model.profiles, localID(slot))
					if readEach {
						check(step)
					}
				}
				p := equivProfileFor("h1", slot, rng.Intn(len(equivPortSets)))
				if err := d.AddLocal(core.MustBase(p)); err != nil {
					t.Fatalf("seed %d step %d: re-AddLocal: %v", seed, step, err)
				}
				model.profiles[p.ID] = p
			}
		}
	}

	step := 0
	for ; step < 250; step++ {
		op(step, true)
		check(step)
	}
	// Sparse reads over a wider ID space: often enough, the burst
	// between two reads touches more distinct IDs than an overlay holds.
	slots = 40
	for next := step + 30; step < 1250; step++ {
		op(step, false)
		if step == next {
			check(step)
			next = step + 30 + rng.Intn(141)
		}
	}
	// Warm restart: the final snapshot plus replay must reproduce the
	// model, and the replayed directory must keep tracking it.
	st.hits += cacheHits()
	if err := d.CloseForRestart(); err != nil {
		t.Fatalf("seed %d: CloseForRestart: %v", seed, err)
	}
	l.Close()
	l = openWAL(t, net, "h1")
	d = New("h1", nil, Options{WAL: l})
	lastBase = nil
	for end := step + 100; step < end; step++ {
		check(step)
		op(step, true)
	}
	check(step)
	st.hits += cacheHits()
	return st
}

// TestRemoveLocalEvictsQueryCache: a cached query result must not
// survive RemoveLocal — the next Lookup re-evaluates against the new
// population.
func TestRemoveLocalEvictsQueryCache(t *testing.T) {
	d := New("h1", nil, Options{})
	defer d.Close()
	for _, name := range []string{"a", "b"} {
		if err := d.AddLocal(testTranslator(t, "h1", name)); err != nil {
			t.Fatalf("AddLocal: %v", err)
		}
	}
	q := core.QueryProducing("text/plain")
	if got := d.Lookup(q); len(got) != 2 {
		t.Fatalf("Lookup = %d profiles, want 2", len(got))
	}
	reg := d.Obs()
	hitsBefore := reg.Counter("umiddle_directory_query_cache_hits_total", obs.Labels{"node": "h1"}).Value()
	if got := d.Lookup(q); len(got) != 2 {
		t.Fatalf("repeat Lookup = %d profiles, want 2", len(got))
	}
	hits := reg.Counter("umiddle_directory_query_cache_hits_total", obs.Labels{"node": "h1"}).Value()
	if hits != hitsBefore+1 {
		t.Fatalf("repeat Lookup did not hit the query cache (hits %d -> %d)", hitsBefore, hits)
	}

	id := core.MakeTranslatorID("h1", "umiddle", "a")
	if _, err := d.RemoveLocal(id); err != nil {
		t.Fatalf("RemoveLocal: %v", err)
	}
	got := d.Lookup(q)
	if len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("Lookup after RemoveLocal = %v, want just b", got)
	}
}

// TestIndexSizeGauge: the index-size gauge tracks the snapshot
// population.
func TestIndexSizeGauge(t *testing.T) {
	d := New("h1", nil, Options{})
	defer d.Close()
	if err := d.AddLocal(testTranslator(t, "h1", "a")); err != nil {
		t.Fatalf("AddLocal: %v", err)
	}
	d.handleAdvert(advert{Type: "announce", Node: "h2", Zone: "h2", Profiles: []core.Profile{remoteProfile("h2", "tv")}})
	d.Lookup(core.Query{}) // force a snapshot build
	g := d.Obs().Gauge("umiddle_directory_index_size", obs.Labels{"node": "h1"})
	if g.Value() != 2 {
		t.Fatalf("index size gauge = %d, want 2", g.Value())
	}
	d.handleAdvert(advert{Type: "bye", Node: "h2"})
	d.Lookup(core.Query{})
	if g.Value() != 1 {
		t.Fatalf("index size gauge after bye = %d, want 1", g.Value())
	}
}

// TestNodeDownEvictsQueryCache: the invalidation edge the transport's
// failover depends on — after a crashed peer's lease lapses, a query
// whose result was cached while the peer was alive must stop returning
// its translators.
func TestNodeDownEvictsQueryCache(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	d1, d2 := New("h1", h1, fastOpts()), New("h2", h2, fastOpts())
	defer d1.Close()
	defer d2.Close()
	d1.Start()
	d2.Start()

	d2.AddLocal(testTranslator(t, "h2", "cam"))
	q := core.QueryProducing("text/plain")
	waitFor(t, 2*time.Second, func() bool { return len(d1.Lookup(q)) == 1 })
	// Prime the cache hard: repeated lookups over a stable population all
	// hit the same snapshot entry.
	for i := 0; i < 10; i++ {
		if len(d1.Lookup(q)) != 1 {
			t.Fatal("lookup flapped while peer alive")
		}
	}

	if _, err := net.CrashNode("h2"); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}
	waitFor(t, 2*time.Second, func() bool { return len(d1.Lookup(q)) == 0 })
	if nodes := d1.Nodes(); len(nodes) != 0 {
		t.Fatalf("Nodes() after crash = %v, want empty", nodes)
	}
}

// TestConcurrentLookupSharesSealedProfiles: Lookup and Resolve hand out
// the sealed profiles themselves, so nothing may write one in place
// after it was published. Readers walk every result's attributes and
// ports while writers churn registrations, re-announces with changed
// shapes, removals and syncs; under -race any in-place mutation of a
// shared profile is a data race.
func TestConcurrentLookupSharesSealedProfiles(t *testing.T) {
	d := New("h1", nil, Options{})
	defer d.Close()
	const rounds = 300
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})

	writers.Add(2)
	go func() { // a local device leaving and rejoining under one ID
		defer writers.Done()
		for i := 0; i < rounds; i++ {
			p := equivProfileFor("h1", i%4, i)
			if _, err := d.RemoveLocal(p.ID); err != nil && i >= 4 {
				t.Errorf("RemoveLocal: %v", err)
				return
			}
			if err := d.AddLocal(core.MustBase(p)); err != nil {
				t.Errorf("AddLocal: %v", err)
				return
			}
		}
	}()
	go func() { // remote churn: changed shapes, removals, syncs
		defer writers.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < rounds; i++ {
			node := []string{"h2", "h3"}[i%2]
			p := equivProfileFor(node, rng.Intn(6), rng.Intn(len(equivPortSets)))
			switch rng.Intn(4) {
			case 0, 1:
				d.handleAdvert(advert{Type: "announce", Node: node, Zone: node, Profiles: []core.Profile{p}})
			case 2:
				d.handleAdvert(advert{Type: "remove", Node: node, Removed: []core.TranslatorID{p.ID}})
			case 3:
				d.handleAdvert(advert{Type: "sync", Node: node, Zone: node, Profiles: []core.Profile{p}})
			}
		}
	}()

	// walk reads every field a caller of the read-only contract may.
	walk := func(p core.Profile) int {
		n := len(p.Name) + len(p.Attr("room"))
		for k, v := range p.Attributes {
			n += len(k) + len(v)
		}
		for _, port := range p.ShapePorts {
			n += len(port.Type)
		}
		return n + len(p.Shape.Ports())
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := equivQueries[i%len(equivQueries)]
				for _, p := range d.Lookup(q) {
					if !q.Matches(p) {
						t.Errorf("Lookup(%v) returned non-matching %s", q, p.ID)
						return
					}
					walk(p)
					if rp, err := d.Resolve(p.ID); err == nil {
						walk(rp)
					}
				}
				d.Nodes()
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
}
