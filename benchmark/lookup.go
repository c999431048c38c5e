package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netemu"
)

const (
	lookupsPerCycle = 50 // lookups between two mutations
	observer        = "obs"
)

// device is one archetype of the synthetic population: the six-kind,
// fifty-room mix of internal/bench's dirscale experiment (unexported
// there, so restated), which exercises every index dimension.
type device struct {
	kind, deviceType string
	ports            []core.Port
}

var deviceMix = []device{
	{"cam", "camera", []core.Port{
		{Name: "image-out", Kind: core.Digital, Direction: core.Output, Type: "image/jpeg"}}},
	{"tv", "tv", []core.Port{
		{Name: "image-in", Kind: core.Digital, Direction: core.Input, Type: "image/jpeg"},
		{Name: "screen", Kind: core.Physical, Direction: core.Output, Type: "visible/screen"}}},
	{"spk", "speaker", []core.Port{
		{Name: "audio-in", Kind: core.Digital, Direction: core.Input, Type: "audio/pcm"},
		{Name: "air", Kind: core.Physical, Direction: core.Output, Type: "audible/air"}}},
	{"sensor", "sensor", []core.Port{
		{Name: "reading", Kind: core.Digital, Direction: core.Output, Type: "text/plain"}}},
	{"light", "light", []core.Port{
		{Name: "cmd", Kind: core.Digital, Direction: core.Input, Type: "text/plain"},
		{Name: "glow", Kind: core.Physical, Direction: core.Output, Type: "visible/light"}}},
	{"mic", "microphone", []core.Port{
		{Name: "audio-out", Kind: core.Digital, Direction: core.Output, Type: "audio/pcm"}}},
}

const rooms = 50

func mixProfile(node string, i int) core.Profile {
	dev := deviceMix[i%len(deviceMix)]
	return core.Profile{
		ID:         core.MakeTranslatorID(node, "umiddle", fmt.Sprintf("%s-%d", dev.kind, i)),
		Name:       fmt.Sprintf("%s-%d", dev.kind, i),
		Platform:   "umiddle",
		DeviceType: dev.deviceType,
		Node:       node,
		Shape:      core.MustShape(dev.ports...),
		Attributes: map[string]string{"room": fmt.Sprintf("room-%d", i%rooms)},
	}
}

func room(i int) map[string]string { return map[string]string{"room": fmt.Sprintf("room-%d", i)} }

// lookupQueries are six selective queries, about 20 to 130 results each
// at the full population, one per index dimension and one that can only
// scan. Each clause is a binding an application would install.
func lookupQueries() []core.Query {
	return []core.Query{
		{DeviceType: "camera", Attributes: room(12)},
		{Node: "n1", DeviceType: "tv", Attributes: room(7)},
		{Ports: []core.PortTemplate{{Direction: core.Input, Kind: core.Digital, Type: "audio/pcm"}}, Attributes: room(2)},
		{NameContains: "sensor-99"},
		{Node: "n2", Attributes: room(40)},
		{Ports: []core.PortTemplate{{Direction: core.Output, Kind: core.Physical}}, Attributes: room(20)},
	}
}

// lookupWorld is directories n1 and n2 holding the population and obs, the
// node whose Lookup is measured, holding a few devices of its own. No
// transport, no WAL.
type lookupWorld struct {
	net     *netemu.Network
	dirs    []*directory.Directory // n1, n2, obs
	obs     *directory.Directory
	locals  []*core.Base
	present []bool
	cycle   int // mutations made so far
	queries []core.Query

	// The model: per query, the matching remote IDs in Lookup's order
	// (Node, ID), and which of obs's own devices match.
	static     [][]core.TranslatorID
	localMatch [][]bool
	localOrder []int // indices of locals sorted by ID

	convergeS float64
}

func newLookupWorld(population, locals, warmup int) (*lookupWorld, error) {
	w := &lookupWorld{net: netemu.NewNetwork(netemu.Unlimited()), queries: lookupQueries()}
	fail := func(err error) (*lookupWorld, error) { w.close(); return nil, err }
	for _, name := range []string{"n1", "n2", observer} {
		host, err := w.net.AddHost(name)
		if err != nil {
			return fail(err)
		}
		d := directory.New(name, host, directory.Options{})
		if err := d.Start(); err != nil {
			return fail(err)
		}
		w.dirs = append(w.dirs, d)
	}
	w.obs = w.dirs[2]

	remotes := make([]core.Profile, population)
	for i := range remotes {
		home := i * 2 / population // first half on n1, second on n2
		remotes[i] = mixProfile(w.dirs[home].Node(), i)
		if err := w.dirs[home].AddLocal(core.MustBase(remotes[i])); err != nil {
			return fail(err)
		}
	}
	w.locals = make([]*core.Base, locals)
	w.present = make([]bool, locals)
	for j := range w.locals {
		w.locals[j] = core.MustBase(mixProfile(observer, 10*population+j))
		if err := w.obs.AddLocal(w.locals[j]); err != nil {
			return fail(err)
		}
		w.present[j] = true
	}
	lastAdd := time.Now()
	err := waitUntil(60*time.Second, "directories to converge", func() bool {
		for i, d := range w.dirs {
			own := population / 2
			if i == 2 {
				own = locals
			}
			if _, remote := d.Size(); remote != population+locals-own {
				return false
			}
		}
		return true
	})
	if err != nil {
		return fail(err)
	}
	w.convergeS = time.Since(lastAdd).Seconds()

	sort.Slice(remotes, func(a, b int) bool {
		if remotes[a].Node != remotes[b].Node {
			return remotes[a].Node < remotes[b].Node
		}
		return remotes[a].ID < remotes[b].ID
	})
	for j := range w.locals {
		w.localOrder = append(w.localOrder, j)
	}
	sort.Slice(w.localOrder, func(a, b int) bool {
		return w.locals[w.localOrder[a]].ID() < w.locals[w.localOrder[b]].ID()
	})
	for _, q := range w.queries {
		var ids []core.TranslatorID
		for _, p := range remotes {
			if q.Matches(p) {
				ids = append(ids, p.ID)
			}
		}
		w.static = append(w.static, ids)
		match := make([]bool, locals)
		for j, l := range w.locals {
			match[j] = q.Matches(l.Profile())
		}
		w.localMatch = append(w.localMatch, match)
	}
	var lw lookupWindow
	lw.run(w, rand.New(rand.NewSource(1)), func(cycle int) bool { return cycle >= warmup }, nil)
	if len(lw.failed) > 0 {
		return fail(fmt.Errorf("warm-up: %s", lw.failed[0]))
	}
	return w, nil
}

func (w *lookupWorld) close() {
	for _, d := range w.dirs {
		d.Close()
	}
	w.net.Close()
}

// mutate is the write beside the reads: cycle by cycle it removes one of
// obs's own devices, then registers it again, over all of them in turn.
func (w *lookupWorld) mutate() error {
	j := (w.cycle / 2) % len(w.locals)
	w.cycle++
	if w.present[j] {
		w.present[j] = false
		_, err := w.obs.RemoveLocal(w.locals[j].ID())
		return err
	}
	w.present[j] = true
	return w.obs.AddLocal(w.locals[j])
}

// check compares one Lookup result against the model: the matching
// remotes, then obs's own matching devices that are present, in (Node,
// ID) order — obs sorts after n1 and n2.
func (w *lookupWorld) check(qi int, got []core.Profile) error {
	static := w.static[qi]
	if len(got) < len(static) {
		return fmt.Errorf("query %d: %d results, model has %d remotes", qi, len(got), len(static))
	}
	for i, id := range static {
		if got[i].ID != id {
			return fmt.Errorf("query %d: result %d is %s, model says %s", qi, i, got[i].ID, id)
		}
	}
	rest := got[len(static):]
	for _, j := range w.localOrder {
		if !w.present[j] || !w.localMatch[qi][j] {
			continue
		}
		if len(rest) == 0 || rest[0].ID != w.locals[j].ID() {
			return fmt.Errorf("query %d: local %s missing", qi, w.locals[j].ID())
		}
		rest = rest[1:]
	}
	if len(rest) > 0 {
		return fmt.Errorf("query %d: %d results beyond the model, first %s", qi, len(rest), rest[0].ID)
	}
	return nil
}

// lookupWindow is what one measured lookup_mixed window yields. Latency
// samples are split by the lookup's position after a mutation: the first
// rebuilds obs's snapshot, the first of each query misses the per-snapshot
// cache, the rest hit it.
type lookupWindow struct {
	parts              []slice
	opNs               []int64
	rebuild, miss, hit []int64
	addNs, removeNs    []int64
	failed             []string
}

// run measures one more part of the window: it alternates one mutation
// with lookupsPerCycle lookups drawn by rng from the six queries, on one
// goroutine, until done(cycles made).
func (lw *lookupWindow) run(w *lookupWorld, rng *rand.Rand, done func(cycles int) bool, tr *tracer) {
	start := readCounters()
	from := int64(len(lw.opNs))
	op := from
	for cycles := 0; !done(cycles); cycles++ {
		adding := !w.present[(w.cycle/2)%len(w.locals)]
		m0 := time.Now()
		if err := w.mutate(); err != nil {
			lw.failed = append(lw.failed, err.Error())
		}
		if tr != nil {
			m1 := time.Now()
			tr.add("directory.mutate", -1, op, m0, m1)
			if adding {
				lw.addNs = append(lw.addNs, int64(m1.Sub(m0)))
			} else {
				lw.removeNs = append(lw.removeNs, int64(m1.Sub(m0)))
			}
		}
		var seen [8]bool
		for k := 0; k < lookupsPerCycle; k++ {
			qi := rng.Intn(len(w.queries))
			t0 := time.Now()
			got := w.obs.Lookup(w.queries[qi])
			t1 := time.Now()
			ns := int64(t1.Sub(t0))
			lw.opNs = append(lw.opNs, ns)
			if tr != nil {
				switch {
				case k == 0:
					lw.rebuild = append(lw.rebuild, ns)
				case !seen[qi]:
					lw.miss = append(lw.miss, ns)
				default:
					lw.hit = append(lw.hit, ns)
				}
				root := tr.add(rootSpan, -1, op, t0, t1)
				first := int64(0)
				if k == 0 {
					first = 1
				}
				i := tr.add("directory.lookup", root, op, t0, t1)
				tr.spans[i].Attrs = map[string]int64{"first_after_mutation": first, "results": int64(len(got))}
			}
			seen[qi] = true
			if err := w.check(qi, got); err != nil {
				lw.failed = append(lw.failed, err.Error())
			}
			op++
		}
	}
	lw.parts = append(lw.parts, slice{op - from, readCounters().since(start)})
}
