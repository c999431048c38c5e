package directory

import (
	"math"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
)

// This file implements the directory's read path at scale. A published
// view is an immutable base — a sorted copy of the whole population
// (local + remote) with an inverted index over the fields a Query can
// select on and a memoized query-result cache — plus an overlay of the
// entries touched since that base was built.
//
// Writers (advert integration, registration, expiry) mutate the
// authoritative maps under Directory.mu and record the translator IDs
// they touched (touchLocked). Readers serve from the last published view
// and republish lazily, once per mutation burst, when the generation
// moved. Republishing copies only the touched entries: the overlay is
// their current sealed profiles, sorted, and the base is rebuilt only
// once more than overlayLimit(n) distinct IDs were touched (or a writer
// marked "all", like WAL replay). So one arrival costs the next Lookup
// O(delta), not O(n), and the base's query cache survives it.
//
// A Lookup takes the base's cached result, skips IDs the overlay
// shadows, and merges in the overlay profiles that satisfy
// Query.Matches, preserving the (Node, ID) order. The index is a
// candidate pre-filter, never a verdict: every candidate is verified
// with Query.Matches, so Lookup results are exactly those of a
// brute-force scan (property tested in index_test.go).

// maxQueryCacheEntries bounds one base's memoized query results. A base
// lives until overlayLimit distinct IDs changed, so the bound only
// matters for pathological many-distinct-query workloads.
const maxQueryCacheEntries = 4096

// kdKey indexes ports by (kind, direction) — the coarse bucket used
// when a port template leaves the data type unconstrained.
type kdKey struct {
	kind core.PortKind
	dir  core.Direction
}

// portKey refines kdKey with the type's major component (lowercased
// ASCII), the selective bucket for concrete templates like "image/jpeg"
// or "visible/*".
type portKey struct {
	kind  core.PortKind
	dir   core.Direction
	major string
}

// overlayLimit is how many distinct touched IDs a view carries in its
// overlay before the next publish rebuilds the base: past √n the
// per-Lookup overlay scan costs more than an amortized O(n) rebuild.
func overlayLimit(n int) int {
	return max(64, int(math.Ceil(math.Sqrt(float64(n)))))
}

// byNodeID orders profiles as Lookup returns them.
func byNodeID(a, b core.Profile) int {
	if c := strings.Compare(a.Node, b.Node); c != 0 {
		return c
	}
	return strings.Compare(string(a.ID), string(b.ID))
}

// view is one published read-path state: the base as of its build plus
// the overlay of every ID touched since.
type view struct {
	gen  uint64
	base *snapshot
	// gone holds every ID touched since base was built, mapped to its
	// index in over, or -1 when the ID is absent now.
	gone  map[core.TranslatorID]int32
	over  []core.Profile // current profiles of touched IDs, sorted by (Node, ID)
	nodes []string       // live remote nodes, sorted
}

// snapshot is one immutable indexed base. profiles is sorted by (Node,
// ID) and every posting list holds ascending indices into it, so
// intersections and unions preserve Lookup's documented result order
// for free.
type snapshot struct {
	profiles []core.Profile
	pos      map[core.TranslatorID]int32

	byNode       map[string][]int32
	byPlatform   map[string][]int32 // lowercased ASCII platform
	byDeviceType map[string][]int32
	byKindDir    map[kdKey][]int32
	byPort       map[portKey][]int32
	// oddPlatform / oddPort hold entries whose platform or port-type
	// major is not pure ASCII. Query.Matches compares those fields with
	// EqualFold, whose simple case folding can equate non-ASCII runes
	// with ASCII ones (e.g. U+017F with "s"), so lowercased-key buckets
	// alone could miss them; the odd lists are unioned into every
	// selective candidate set instead.
	oddPlatform []int32
	oddPort     map[kdKey][]int32

	qmu    sync.RWMutex
	qcache map[string][]int32
}

// asciiLower lowercases s, reporting ok=false when s contains bytes
// outside ASCII (the caller must then fall back to a coarser bucket).
func asciiLower(s string) (string, bool) {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return "", false
		}
	}
	return strings.ToLower(s), true
}

// buildSnapshot indexes the given population. profiles must already be
// sorted by (Node, ID) and sealed (never mutated afterwards).
func buildSnapshot(profiles []core.Profile) *snapshot {
	s := &snapshot{
		profiles:     profiles,
		pos:          make(map[core.TranslatorID]int32, len(profiles)),
		byNode:       make(map[string][]int32),
		byPlatform:   make(map[string][]int32),
		byDeviceType: make(map[string][]int32),
		byKindDir:    make(map[kdKey][]int32),
		byPort:       make(map[portKey][]int32),
		oddPort:      make(map[kdKey][]int32),
		qcache:       make(map[string][]int32),
	}
	for i := range profiles {
		p := &profiles[i]
		ix := int32(i)
		s.pos[p.ID] = ix
		s.byNode[p.Node] = append(s.byNode[p.Node], ix)
		if plat, ok := asciiLower(p.Platform); ok {
			s.byPlatform[plat] = append(s.byPlatform[plat], ix)
		} else {
			s.oddPlatform = append(s.oddPlatform, ix)
		}
		if p.DeviceType != "" {
			s.byDeviceType[p.DeviceType] = append(s.byDeviceType[p.DeviceType], ix)
		}
		// A profile appears at most once per posting list even when
		// several ports share a bucket.
		seenKD := make(map[kdKey]bool, 4)
		seenPK := make(map[portKey]bool, 4)
		seenOdd := make(map[kdKey]bool, 2)
		for _, port := range p.ShapePorts {
			kd := kdKey{port.Kind, port.Direction}
			if !seenKD[kd] {
				seenKD[kd] = true
				s.byKindDir[kd] = append(s.byKindDir[kd], ix)
			}
			major, _ := port.Type.Split()
			if lm, ok := asciiLower(major); ok {
				pk := portKey{port.Kind, port.Direction, lm}
				if !seenPK[pk] {
					seenPK[pk] = true
					s.byPort[pk] = append(s.byPort[pk], ix)
				}
			} else if !seenOdd[kd] {
				seenOdd[kd] = true
				s.oddPort[kd] = append(s.oddPort[kd], ix)
			}
		}
	}
	return s
}

// intersect merges two ascending posting lists.
func intersect(a, b []int32) []int32 {
	out := make([]int32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// unionAll merges ascending posting lists into one ascending,
// duplicate-free list.
func unionAll(lists [][]int32) []int32 {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		return lists[0]
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	out := make([]int32, 0, total)
	for _, l := range lists {
		out = append(out, l...)
	}
	slices.Sort(out)
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// kindsOf expands a template's kind constraint (zero = any).
func kindsOf(k core.PortKind) []core.PortKind {
	if k != 0 {
		return []core.PortKind{k}
	}
	return []core.PortKind{core.Digital, core.Physical}
}

// dirsOf expands a template's direction constraint (zero = any).
func dirsOf(d core.Direction) []core.Direction {
	if d != 0 {
		return []core.Direction{d}
	}
	return []core.Direction{core.Input, core.Output}
}

// portCandidates returns a superset of the profiles owning a port that
// satisfies the template.
func (s *snapshot) portCandidates(t core.PortTemplate) []int32 {
	major := ""
	if t.Type != "" {
		major, _ = t.Type.Split()
	}
	lm, selective := "", false
	if major != "" && major != "*" {
		lm, selective = asciiLower(major)
	}
	var lists [][]int32
	for _, k := range kindsOf(t.Kind) {
		for _, dir := range dirsOf(t.Direction) {
			kd := kdKey{k, dir}
			if !selective {
				// No usable major component: every port of this
				// kind/direction is a candidate.
				lists = append(lists, s.byKindDir[kd])
				continue
			}
			lists = append(lists, s.byPort[portKey{k, dir, lm}], s.oddPort[kd])
		}
	}
	return unionAll(lists)
}

// candidates computes the index's candidate set for a query. all=true
// means no indexed criterion narrowed the search (scan everything).
func (s *snapshot) candidates(q core.Query) (list []int32, all bool) {
	all = true
	narrow := func(set []int32) {
		if all {
			list, all = set, false
			return
		}
		list = intersect(list, set)
	}
	if q.Node != "" {
		narrow(s.byNode[q.Node])
	}
	if q.Platform != "" {
		if plat, ok := asciiLower(q.Platform); ok {
			narrow(unionAll([][]int32{s.byPlatform[plat], s.oddPlatform}))
		}
		// Non-ASCII query platform: EqualFold semantics are too loose to
		// bucket safely; leave it to the verification scan.
	}
	if q.DeviceType != "" {
		narrow(s.byDeviceType[q.DeviceType])
	}
	for _, t := range q.Ports {
		narrow(s.portCandidates(t))
	}
	return list, all
}

// lookup returns the (ascending, hence result-ordered) indices of base
// profiles matching the query, memoized per base. Every candidate is
// verified with Query.Matches, so the result set is exactly the
// brute-force scan's.
func (s *snapshot) lookup(q core.Query, met *dirMetrics) []int32 {
	var buf [128]byte
	key := q.AppendCacheKey(buf[:0])
	s.qmu.RLock()
	cached, ok := s.qcache[string(key)]
	s.qmu.RUnlock()
	if ok {
		met.queryHits.Inc()
		return cached
	}
	met.queryMisses.Inc()

	cand, all := s.candidates(q)
	var out []int32
	if all {
		for i := range s.profiles {
			if q.Matches(s.profiles[i]) {
				out = append(out, int32(i))
			}
		}
	} else {
		for _, i := range cand {
			if q.Matches(s.profiles[i]) {
				out = append(out, i)
			}
		}
	}
	s.qmu.Lock()
	if len(s.qcache) < maxQueryCacheEntries {
		s.qcache[string(key)] = out
	}
	s.qmu.Unlock()
	return out
}

// lookup merges the base's cached result, minus the IDs the overlay
// shadows, with the overlay profiles that match, in (Node, ID) order.
// The profiles are the sealed ones, shared with every other reader.
func (v *view) lookup(q core.Query, met *dirMetrics) []core.Profile {
	base := v.base.lookup(q, met)
	var buf [16]int32 // matching overlay indices; stays on the stack
	over := buf[:0]
	for i := range v.over {
		if q.Matches(v.over[i]) {
			over = append(over, int32(i))
		}
	}
	if len(base)+len(over) == 0 {
		return nil
	}
	out := make([]core.Profile, 0, len(base)+len(over))
	for _, ix := range base {
		p := &v.base.profiles[ix]
		if _, shadowed := v.gone[p.ID]; shadowed {
			continue
		}
		for len(over) > 0 && byNodeID(v.over[over[0]], *p) < 0 {
			out = append(out, v.over[over[0]])
			over = over[1:]
		}
		out = append(out, *p)
	}
	for _, i := range over {
		out = append(out, v.over[i])
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// resolve returns the current profile of one translator.
func (v *view) resolve(id core.TranslatorID) (core.Profile, bool) {
	if ix, touched := v.gone[id]; touched {
		if ix < 0 {
			return core.Profile{}, false
		}
		return v.over[ix], true
	}
	if ix, ok := v.base.pos[id]; ok {
		return v.base.profiles[ix], true
	}
	return core.Profile{}, false
}

// touchLocked records a population mutation of the given translator IDs
// (none: only the live-node set changed). The touched set is bounded
// here, not at read time: past overlayLimit it collapses to "all", so a
// directory that never reads does not accumulate it. Caller holds d.mu.
func (d *Directory) touchLocked(ids ...core.TranslatorID) {
	d.gen.Add(1)
	if d.touchedAll {
		return
	}
	for _, id := range ids {
		d.touched[id] = struct{}{}
	}
	if len(d.touched) > overlayLimit(len(d.local)+len(d.remote)) {
		d.touched, d.touchedAll = nil, true
	}
}

// view returns the current view, republishing it if the population
// generation moved since the last publish. Publishes are serialized and
// amortized across a mutation burst; steady-state readers pay two
// atomic loads. A publish copies the touched entries under d.mu and
// rebuilds the base (outside it) only when the overlay outgrew its limit.
func (d *Directory) view() *view {
	if v := d.snap.Load(); v != nil && v.gen == d.gen.Load() {
		return v
	}
	d.rebuildMu.Lock()
	defer d.rebuildMu.Unlock()
	if v := d.snap.Load(); v != nil && v.gen == d.gen.Load() {
		return v
	}
	// Every generation bump happens under d.mu, so gen, the touched set
	// and the maps read here are one consistent state.
	d.mu.Lock()
	v := &view{gen: d.gen.Load(), base: d.base}
	size := len(d.local) + len(d.remote)
	var all []core.Profile
	// touchedAll starts true, so the first publish builds the base.
	rebuild := d.touchedAll
	if rebuild {
		all = make([]core.Profile, 0, size)
		for _, e := range d.local {
			all = append(all, e.profile)
		}
		for _, e := range d.remote {
			all = append(all, e.profile)
		}
		d.touched, d.touchedAll = make(map[core.TranslatorID]struct{}), false
	} else if len(d.touched) > 0 {
		v.gone = make(map[core.TranslatorID]int32, len(d.touched))
		for id := range d.touched {
			v.gone[id] = -1
			if e, ok := d.local[id]; ok {
				v.over = append(v.over, e.profile)
			}
			if e, ok := d.remote[id]; ok {
				v.over = append(v.over, e.profile)
			}
		}
	}
	v.nodes = make([]string, 0, len(d.nodes))
	for n := range d.nodes {
		v.nodes = append(v.nodes, n)
	}
	d.mu.Unlock()
	if rebuild {
		slices.SortFunc(all, byNodeID)
		d.base = buildSnapshot(all)
		v.base = d.base
	}
	slices.SortFunc(v.over, byNodeID)
	for i := range v.over {
		v.gone[v.over[i].ID] = int32(i)
	}
	slices.Sort(v.nodes)
	d.snap.Store(v)
	d.met.indexSize.Set(int64(size))
	return v
}
