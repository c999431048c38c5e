package transport

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netemu"
)

// modelMapped is the full-scan handler the fan-out indexes replaced: it
// matches every dynamic path against every mapped profile and looks at
// every static path. The equivalence property runs it beside
// onMappedBatch.
func modelMapped(m *Module, ps []core.Profile) {
	mapped := make(map[core.TranslatorID]*core.Profile, len(ps))
	for i := range ps {
		mapped[ps[i].ID] = &ps[i]
	}
	m.mu.Lock()
	var dynamic, static []*path
	for _, pt := range m.paths {
		switch {
		case pt.query != nil:
			dynamic = append(dynamic, pt)
		case pt.static != nil && mapped[pt.static.Translator] != nil:
			static = append(static, pt)
		}
	}
	m.mu.Unlock()
	for _, pt := range dynamic {
		for i := range ps {
			if pt.query.Matches(ps[i]) {
				m.tryBind(pt, ps[i])
				m.noteRebound(pt)
			}
		}
	}
	for _, pt := range static {
		pt.mu.Lock()
		pt.degraded = false
		pt.mu.Unlock()
	}
}

// modelUnmapped is the full-scan counterpart of onUnmappedBatch: a path
// whose source left is torn down, otherwise static paths aimed at a gone
// translator degrade and every dynamic path fails over from every gone ID.
func modelUnmapped(m *Module, ids []core.TranslatorID) {
	gone := make(map[core.TranslatorID]bool, len(ids))
	for _, id := range ids {
		gone[id] = true
	}
	m.mu.Lock()
	var srcDead, dynamic, static []*path
	for _, pt := range m.paths {
		switch {
		case gone[pt.src.Translator]:
			srcDead = append(srcDead, pt)
		case pt.query != nil:
			dynamic = append(dynamic, pt)
		case pt.static != nil && gone[pt.static.Translator]:
			static = append(static, pt)
		}
	}
	m.mu.Unlock()
	for _, pt := range srcDead {
		m.removeLocalPath(pt.id) //nolint:errcheck
	}
	for _, pt := range static {
		pt.mu.Lock()
		pt.degraded = true
		pt.mu.Unlock()
	}
	for _, pt := range dynamic {
		for _, id := range ids {
			m.failDestination(pt, id)
		}
	}
}

// pathView is what the equivalence property compares per path.
type pathView struct {
	bound     []core.TranslatorID
	degraded  bool
	failovers uint64
}

// tablePaths copies the path table out, so callers can take each path's
// mu without holding the module's (the lock order is path before module).
func tablePaths(m *Module) []*path {
	m.mu.Lock()
	defer m.mu.Unlock()
	paths := make([]*path, 0, len(m.paths))
	for _, p := range m.paths {
		paths = append(paths, p)
	}
	return paths
}

func viewPaths(m *Module) map[PathID]pathView {
	paths := tablePaths(m)
	out := make(map[PathID]pathView, len(paths))
	for _, p := range paths {
		var v pathView
		p.mu.Lock()
		for id := range p.bound {
			v.bound = append(v.bound, id)
		}
		v.degraded = p.degraded
		p.mu.Unlock()
		slices.Sort(v.bound)
		v.failovers = p.met.failovers.Value()
		out[p.id] = v
	}
	return out
}

// checkIndexes compares the fan-out indexes with the path table: every
// path is listed once under each translator it involves (source, static
// destination, bound destinations) and once under its query's device
// type, and nothing else is listed.
func checkIndexes(m *Module) error {
	type entry struct {
		key string
		p   *path
	}
	want := map[entry]int{}
	for _, p := range tablePaths(m) {
		ids := map[core.TranslatorID]bool{p.src.Translator: true}
		if p.static != nil {
			ids[p.static.Translator] = true
		}
		p.mu.Lock()
		for id := range p.bound {
			ids[id] = true
		}
		p.mu.Unlock()
		for id := range ids {
			want[entry{"id " + string(id), p}]++
		}
		if p.query != nil {
			want[entry{"type " + p.query.DeviceType, p}]++
		}
	}
	got := map[entry]int{}
	m.mu.Lock()
	for id, n := range m.byID {
		for ; n != nil; n = n.next {
			got[entry{"id " + string(id), n.p}]++
		}
	}
	for typ, n := range m.byType {
		for ; n != nil; n = n.next {
			got[entry{"type " + typ, n.p}]++
		}
	}
	m.mu.Unlock()
	for e, n := range got {
		if want[e] != n {
			return fmt.Errorf("%s lists path %s %d times, want %d", e.key, e.p.id, n, want[e])
		}
	}
	for e, n := range want {
		if got[e] != n {
			return fmt.Errorf("%s lists path %s %d times, want %d", e.key, e.p.id, got[e], n)
		}
	}
	return nil
}

// fanoutTranslator is one translator of the property's pool. Every kind
// of port mix appears: pure sources, pure sinks, and translators that
// are both (a path can then be bound to its own source, or to another
// path's source).
func fanoutTranslator(i int) *core.Base {
	deviceTypes := []string{"lamp", "tv", ""}
	var ports []core.Port
	if i%3 != 1 {
		ports = append(ports, core.Port{Name: "out", Kind: core.Digital, Direction: core.Output, Type: "text/plain"})
	}
	if i%3 != 0 {
		ports = append(ports, core.Port{Name: "in", Kind: core.Digital, Direction: core.Input, Type: "text/plain"})
	}
	local := fmt.Sprintf("t%d", i)
	return core.MustBase(core.Profile{
		ID:         core.MakeTranslatorID("a", "umiddle", local),
		Name:       local,
		Platform:   "umiddle",
		DeviceType: deviceTypes[i/3%len(deviceTypes)],
		Node:       "a",
		Shape:      core.MustShape(ports...),
	})
}

// TestFanOutIndexEquivalenceProperty drives one random event sequence
// into two modules over one directory: one through its indexed
// handlers, the other through the full-scan model. After every step both
// must hold the same paths, each with the same bound set, degraded flag
// and failover count. The sequence maps and unmaps translators (alone and
// in batches), reports node loss, connects static and dynamic paths
// (typed and untyped queries, the default ExcludeID of the path's own
// source and one that lets a path bind its own source) and disconnects.
func TestFanOutIndexEquivalenceProperty(t *testing.T) {
	dir := directory.New("a", nil, directory.Options{})
	t.Cleanup(func() { dir.Close() })
	indexed := New("a", nil, dir, Options{})
	model := New("a", nil, dir, Options{})
	t.Cleanup(func() {
		indexed.Close()
		model.Close()
	})

	const pool, steps = 12, 600
	trs := make([]*core.Base, pool)
	for i := range trs {
		trs[i] = fanoutTranslator(i)
	}
	present := make([]bool, pool)
	rng := rand.New(rand.NewSource(40))
	pick := func(want bool, port string) (int, bool) {
		var cands []int
		for i, tr := range trs {
			if _, ok := tr.Profile().Shape.Port(port); ok && present[i] == want {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			return 0, false
		}
		return cands[rng.Intn(len(cands))], true
	}
	// Both modules take every connect; they must agree on the outcome.
	both := func(step int, f func(m *Module) (PathID, error)) {
		idI, errI := f(indexed)
		idM, errM := f(model)
		if idI != idM || (errI == nil) != (errM == nil) {
			t.Fatalf("step %d: connect diverged: indexed (%q, %v), model (%q, %v)", step, idI, errI, idM, errM)
		}
	}

	var kinds [8]int
	pathSteps := 0
	coverage := map[string]int{}
	for step := 0; step < steps; step++ {
		kind := rng.Intn(len(kinds))
		kinds[kind]++
		switch kind {
		case 0, 1: // map one to three translators in one batch
			var batch []core.Profile
			for n := 1 + rng.Intn(3); n > 0; n-- {
				i := rng.Intn(pool)
				if !present[i] {
					if err := dir.AddLocal(trs[i]); err != nil {
						t.Fatalf("AddLocal: %v", err)
					}
					present[i] = true
				}
				// A present translator mapped again (a re-announce) must
				// change nothing.
				batch = append(batch, trs[i].Profile())
			}
			indexed.onMappedBatch(batch)
			modelMapped(model, batch)
		case 2: // unmap one to three translators in one batch
			var batch []core.TranslatorID
			for n := 1 + rng.Intn(3); n > 0; n-- {
				i := rng.Intn(pool)
				if present[i] {
					if _, err := dir.RemoveLocal(trs[i].Profile().ID); err != nil {
						t.Fatalf("RemoveLocal: %v", err)
					}
					present[i] = false
					batch = append(batch, trs[i].Profile().ID)
				}
			}
			indexed.onUnmappedBatch(batch)
			modelUnmapped(model, batch)
		case 3, 4: // dynamic path
			src, ok := pick(true, "out")
			if !ok {
				continue
			}
			q := core.Query{DeviceType: []string{"lamp", "tv", ""}[rng.Intn(3)]}
			if rng.Intn(3) == 0 {
				// Not the source: the path may bind its own source.
				q.ExcludeID = trs[rng.Intn(pool)].Profile().ID
			}
			ref := portRef(trs[src], "out")
			both(step, func(m *Module) (PathID, error) { return m.ConnectQuery(ref, q) })
		case 5: // static path, now and then from a translator to itself
			src, ok := pick(true, "out")
			if !ok {
				continue
			}
			dst, ok := pick(true, "in")
			if !ok {
				continue
			}
			if _, self := trs[src].Profile().Shape.Port("in"); self && rng.Intn(2) == 0 {
				dst = src
			}
			s, d := portRef(trs[src], "out"), portRef(trs[dst], "in")
			both(step, func(m *Module) (PathID, error) { return m.Connect(s, d) })
		case 6: // disconnect
			ids := make([]PathID, 0)
			for id := range viewPaths(indexed) {
				ids = append(ids, id)
			}
			if len(ids) == 0 {
				continue
			}
			slices.Sort(ids)
			id := ids[rng.Intn(len(ids))]
			indexed.mu.Lock()
			removed := indexed.paths[id]
			indexed.mu.Unlock()
			if removed.query == nil {
				removed = nil
			}
			if err := indexed.removeLocalPath(id); err != nil {
				t.Fatalf("step %d: indexed disconnect: %v", step, err)
			}
			if err := model.removeLocalPath(id); err != nil {
				t.Fatalf("step %d: model disconnect: %v", step, err)
			}
			// A handler that read the path before it left binds it late;
			// the removed path must not re-enter the indexes.
			if i, ok := pick(true, "in"); ok && removed != nil {
				indexed.tryBind(removed, trs[i].Profile())
			}
		case 7: // node loss: every destination here, or none
			node := []string{"a", "b"}[rng.Intn(2)]
			indexed.onNodeDown(node)
			model.onNodeDown(node)
		}
		got, want := viewPaths(indexed), viewPaths(model)
		pathSteps += len(got)
		for _, p := range tablePaths(indexed) {
			p.mu.Lock()
			_, self := p.bound[p.src.Translator]
			switch {
			case self:
				coverage["bound to own source"]++
			case p.static != nil && p.static.Translator == p.src.Translator:
				coverage["static to own source"]++
			case p.query != nil && p.query.DeviceType == "" && len(p.bound) > 0:
				coverage["untyped, bound"]++
			case p.query != nil && len(p.bound) > 0:
				coverage["typed, bound"]++
			case p.static != nil && p.degraded:
				coverage["static, degraded"]++
			}
			p.mu.Unlock()
		}
		if len(got) != len(want) {
			t.Fatalf("step %d (kind %d): %d paths, model has %d", step, kind, len(got), len(want))
		}
		for id, w := range want {
			g, ok := got[id]
			if !ok {
				t.Fatalf("step %d (kind %d): path %s missing, model keeps it", step, kind, id)
			}
			if !slices.Equal(g.bound, w.bound) || g.degraded != w.degraded || g.failovers != w.failovers {
				t.Fatalf("step %d (kind %d): path %s = %+v, model %+v", step, kind, id, g, w)
			}
		}
		if g, w := indexed.failovers.Value(), model.failovers.Value(); g != w {
			t.Fatalf("step %d (kind %d): %d failovers, model %d", step, kind, g, w)
		}
		if err := checkIndexes(indexed); err != nil {
			t.Fatalf("step %d (kind %d): %v", step, kind, err)
		}
	}
	t.Logf("steps per kind %v; %.1f paths per step; path-steps %v; %d failovers",
		kinds, float64(pathSteps)/steps, coverage, indexed.failovers.Value())
	for _, role := range []string{"bound to own source", "static to own source", "untyped, bound", "typed, bound", "static, degraded"} {
		if coverage[role] == 0 {
			t.Errorf("no path was ever %s", role)
		}
	}
	if indexed.failovers.Value() == 0 {
		t.Error("the sequence never failed a destination over")
	}
}

// fanoutWorld is a module holding n dynamic paths, each bound by a
// unique device type to its own sink.
func fanoutWorld(t *testing.T, n int) *Module {
	dir := directory.New("a", nil, directory.Options{})
	mod := New("a", nil, dir, Options{DisablePathMetrics: true})
	t.Cleanup(func() {
		mod.Close()
		dir.Close()
	})
	for i := 0; i < n; i++ {
		src := producer("a", fmt.Sprintf("src-%d", i), "text/plain")
		sink := newOrderedSink("a", fmt.Sprintf("sink-%d", i), fmt.Sprintf("type-%d", i))
		for _, tr := range []core.Translator{src, sink} {
			if err := dir.AddLocal(tr); err != nil {
				t.Fatalf("AddLocal: %v", err)
			}
		}
		if _, err := mod.ConnectQuery(portRef(src, "out"), core.Query{DeviceType: fmt.Sprintf("type-%d", i)}); err != nil {
			t.Fatalf("ConnectQuery: %v", err)
		}
	}
	return mod
}

// eventCost measures one call of f: allocations, and heap bytes over many
// calls. A handler that walks or copies the path table allocates in
// proportion to it.
func eventCost(f func()) (allocs, bytes float64) {
	allocs = testing.AllocsPerRun(100, f)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestFanOutCostIndependentOfPathCount: an event that affects no path
// costs the same with 4000 dynamic paths installed as with 10. The
// measure is allocations and heap bytes, not time.
func TestFanOutCostIndependentOfPathCount(t *testing.T) {
	other := producer("a", "other", "text/plain").Profile()
	other.DeviceType = "unwatched"
	mapped := []core.Profile{other}
	unmapped := []core.TranslatorID{core.MakeTranslatorID("a", "umiddle", "unbound")}
	type cost struct{ mapAllocs, mapBytes, unmapAllocs, unmapBytes float64 }
	measure := func(n int) cost {
		mod := fanoutWorld(t, n)
		if got := len(mod.Paths()); got != n {
			t.Fatalf("%d paths installed, want %d", got, n)
		}
		var c cost
		c.mapAllocs, c.mapBytes = eventCost(func() { mod.onMappedBatch(mapped) })
		c.unmapAllocs, c.unmapBytes = eventCost(func() { mod.onUnmappedBatch(unmapped) })
		return c
	}
	small, large := measure(10), measure(4000)
	t.Logf("10 paths: %+v; 4000 paths: %+v", small, large)
	if small.mapAllocs != large.mapAllocs || small.unmapAllocs != large.unmapAllocs {
		t.Fatalf("allocations per event grow with the path table: 10 paths %+v, 4000 paths %+v", small, large)
	}
	// A stray allocation elsewhere in the process may land in the byte
	// window; a walk over 4000 paths costs kilobytes per event.
	const slack = 64
	if large.mapBytes > small.mapBytes+slack || large.unmapBytes > small.unmapBytes+slack {
		t.Fatalf("heap bytes per event grow with the path table: 10 paths %+v, 4000 paths %+v", small, large)
	}
}

// connectQueryRace runs rounds of a ConnectQuery on a racing a
// change on b of the one translator its query matches: registered by
// the race when add is set, unregistered by it otherwise. Whichever
// lands first, each path must end bound to exactly what a's Lookup
// returns. It reports the rounds where it does not.
func connectQueryRace(t *testing.T, rounds int, add bool) []int {
	net := netemu.NewNetwork(netemu.Unlimited())
	t.Cleanup(func() { net.Close() })
	a, b := newNode(t, net, "a"), newNode(t, net, "b")
	src := producer("a", "src", "text/plain")
	a.register(t, src)

	ids := make([]PathID, rounds)
	queries := make([]core.Query, rounds)
	for i := 0; i < rounds; i++ {
		queries[i] = core.Query{DeviceType: fmt.Sprintf("race-%d", i)}
		sink := newOrderedSink("b", fmt.Sprintf("race-sink-%d", i), queries[i].DeviceType)
		sink.Bind(b.mod)
		change := func() error { return b.dir.AddLocal(sink) }
		if !add {
			b.register(t, sink)
			waitFor(t, 5*time.Second, func() bool { return len(a.dir.Lookup(queries[i])) == 1 })
			change = func() error {
				_, err := b.dir.RemoveLocal(sink.Profile().ID)
				return err
			}
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		var changeErr, connErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			changeErr = change()
		}()
		go func() {
			defer wg.Done()
			<-start
			// Stagger the connect over the advert's flight so some rounds
			// land on each side of its integration on a.
			time.Sleep(time.Duration(i%8) * 50 * time.Microsecond)
			ids[i], connErr = a.mod.ConnectQuery(portRef(src, "out"), queries[i])
		}()
		close(start)
		wg.Wait()
		if changeErr != nil || connErr != nil {
			t.Fatalf("round %d: change on b %v, ConnectQuery %v", i, changeErr, connErr)
		}
	}

	// Quiescence: a's view of b is final, and the last notification has
	// had the deadline below to reach the transport.
	waitFor(t, 5*time.Second, func() bool {
		_, remote := a.dir.Size()
		return add && remote == rounds || !add && remote == 0
	})
	matches := func(i int, info PathInfo) bool {
		var want, got []core.TranslatorID
		for _, p := range a.dir.Lookup(queries[i]) {
			want = append(want, p.ID)
		}
		for _, ref := range info.Bound {
			got = append(got, ref.Translator)
		}
		slices.Sort(want)
		slices.Sort(got)
		return slices.Equal(got, want)
	}
	var failed []int
	deadline := time.Now().Add(2 * time.Second)
	for {
		infos := make(map[PathID]PathInfo, rounds)
		for _, info := range a.mod.Paths() {
			infos[info.ID] = info
		}
		failed = failed[:0]
		for i, id := range ids {
			if !matches(i, infos[id]) {
				failed = append(failed, i)
			}
		}
		if len(failed) == 0 || time.Now().After(deadline) {
			return failed
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestConnectQueryRacingPeerAddLocal: a translator mapped between a new
// path's first Lookup and its publication must not be missed.
func TestConnectQueryRacingPeerAddLocal(t *testing.T) {
	const rounds = 200
	if failed := connectQueryRace(t, rounds, true); len(failed) > 0 {
		t.Fatalf("%d of %d rounds left a path unbound from its matching translator: rounds %v", len(failed), rounds, failed)
	}
}

// TestConnectQueryRacingPeerRemoveLocal: a translator unmapped after a
// new path's first Lookup returned it must not stay bound.
func TestConnectQueryRacingPeerRemoveLocal(t *testing.T) {
	const rounds = 200
	if failed := connectQueryRace(t, rounds, false); len(failed) > 0 {
		t.Fatalf("%d of %d rounds left a path bound to an unmapped translator: rounds %v", len(failed), rounds, failed)
	}
}
