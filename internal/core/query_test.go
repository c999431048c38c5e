package core

import (
	"fmt"
	"testing"
	"testing/quick"
)

func tvProfile() Profile {
	return Profile{
		ID:         MakeTranslatorID("h2", "upnp", "tv-1"),
		Name:       "Living-room TV",
		Platform:   "upnp",
		DeviceType: "urn:schemas-upnp-org:device:MediaRenderer:1",
		Node:       "h2",
		Shape:      tvShape(),
		Attributes: map[string]string{"room": "living"},
	}
}

func cameraProfile() Profile {
	return Profile{
		ID:       MakeTranslatorID("h1", "bluetooth", "cam-1"),
		Name:     "BIP Camera",
		Platform: "bluetooth",
		Node:     "h1",
		Shape:    cameraShape(),
	}
}

func TestQueryEmptyMatchesAll(t *testing.T) {
	var q Query
	if !q.Empty() {
		t.Fatal("zero query not Empty")
	}
	if !q.Matches(tvProfile()) || !q.Matches(cameraProfile()) {
		t.Fatal("empty query should match everything")
	}
}

func TestQueryPlatform(t *testing.T) {
	q := Query{Platform: "UPNP"} // case-insensitive
	if !q.Matches(tvProfile()) {
		t.Error("platform query should match TV")
	}
	if q.Matches(cameraProfile()) {
		t.Error("platform query should not match camera")
	}
}

func TestQueryDeviceType(t *testing.T) {
	q := Query{DeviceType: "urn:schemas-upnp-org:device:MediaRenderer:1"}
	if !q.Matches(tvProfile()) || q.Matches(cameraProfile()) {
		t.Error("device type query mismatch")
	}
}

func TestQueryNameContains(t *testing.T) {
	q := Query{NameContains: "living"}
	if !q.Matches(tvProfile()) {
		t.Error("case-insensitive substring should match")
	}
	if q.Matches(cameraProfile()) {
		t.Error("camera should not match 'living'")
	}
}

func TestQueryNode(t *testing.T) {
	q := Query{Node: "h1"}
	if q.Matches(tvProfile()) || !q.Matches(cameraProfile()) {
		t.Error("node query mismatch")
	}
}

func TestQueryAttributes(t *testing.T) {
	q := Query{Attributes: map[string]string{"room": "living"}}
	if !q.Matches(tvProfile()) {
		t.Error("attribute query should match TV")
	}
	q = Query{Attributes: map[string]string{"room": "kitchen"}}
	if q.Matches(tvProfile()) {
		t.Error("wrong attribute value matched")
	}
}

func TestQueryExcludeID(t *testing.T) {
	tv := tvProfile()
	q := Query{ExcludeID: tv.ID}
	if q.Matches(tv) {
		t.Error("excluded ID matched")
	}
	if !q.Matches(cameraProfile()) {
		t.Error("non-excluded profile should match")
	}
}

func TestQueryPorts(t *testing.T) {
	// The paper's example: view a jpeg "in one way or another" — input
	// port of the document's MIME type plus physical output visible/*.
	q := QueryAccepting("image/jpeg", "visible/*")
	if !q.Matches(tvProfile()) {
		t.Error("TV should satisfy view query")
	}
	if q.Matches(cameraProfile()) {
		t.Error("camera should not satisfy view query")
	}

	prod := QueryProducing("image/jpeg")
	if !prod.Matches(cameraProfile()) {
		t.Error("camera should satisfy producer query")
	}
	if prod.Matches(tvProfile()) {
		t.Error("TV should not satisfy producer query")
	}
}

func TestQueryConjunction(t *testing.T) {
	q := Query{Platform: "upnp", NameContains: "living", Node: "h2"}
	if !q.Matches(tvProfile()) {
		t.Error("all-criteria query should match TV")
	}
	q.Node = "h9"
	if q.Matches(tvProfile()) {
		t.Error("one failing criterion must fail the query")
	}
}

func TestPortTemplateZeroMatchesAnything(t *testing.T) {
	var tmpl PortTemplate
	ports := append(tvShape().Ports(), cameraShape().Ports()...)
	for _, p := range ports {
		if !tmpl.MatchesPort(p) {
			t.Errorf("zero template should match %v", p)
		}
	}
}

func TestQueryString(t *testing.T) {
	if got := (Query{}).String(); got != "query{any}" {
		t.Fatalf("String() = %q", got)
	}
	q := Query{Platform: "upnp", Ports: []PortTemplate{{Kind: Digital, Direction: Input, Type: "image/*"}}}
	got := q.String()
	if got == "query{any}" {
		t.Fatalf("String() = %q", got)
	}
}

// TestQueryMonotoneProperty: adding criteria can only shrink the match
// set.
func TestQueryMonotoneProperty(t *testing.T) {
	profiles := []Profile{tvProfile(), cameraProfile()}
	f := func(pickPlatform, pickName, pickNode bool) bool {
		var q Query
		base := 0
		for _, p := range profiles {
			if q.Matches(p) {
				base++
			}
		}
		if pickPlatform {
			q.Platform = "upnp"
		}
		if pickName {
			q.NameContains = "camera"
		}
		if pickNode {
			q.Node = "h1"
		}
		narrowed := 0
		for _, p := range profiles {
			if q.Matches(p) {
				narrowed++
			}
		}
		return narrowed <= base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMatchCacheEquivalenceProperty: the cache must be semantically
// invisible. For any (query, profile) pair — including repeat lookups
// served from the cache and profiles re-announced with changed
// query-visible fields under the same ID — the memoized answer equals
// the direct Query.Matches evaluation.
func TestMatchCacheEquivalenceProperty(t *testing.T) {
	cache := NewMatchCache(64) // small bound: exercises the wholesale reset too
	platforms := []string{"", "upnp", "bluetooth"}
	devices := []string{"", "urn:schemas-upnp-org:device:MediaRenderer:1"}
	names := []string{"", "tv", "camera", "living"}
	nodes := []string{"", "h1", "h2"}
	types := []DataType{"", "image/*", "image/jpeg", "text/plain"}
	attrSets := []map[string]string{nil, {"room": "living"}, {"room": "kitchen"}}
	profiles := []Profile{tvProfile(), cameraProfile()}

	f := func(pi, di, ni, hi, ti, ai, proi, mutNi byte, withPort, mutate bool) bool {
		q := Query{
			Platform:     platforms[int(pi)%len(platforms)],
			DeviceType:   devices[int(di)%len(devices)],
			NameContains: names[int(ni)%len(names)],
			Node:         nodes[int(hi)%len(nodes)],
			Attributes:   attrSets[int(ai)%len(attrSets)],
		}
		if withPort {
			q.Ports = []PortTemplate{{Kind: Digital, Direction: Input, Type: types[int(ti)%len(types)]}}
		}
		p := profiles[int(proi)%len(profiles)]
		if cache.Matches(q, p) != q.Matches(p) {
			return false
		}
		// Again: this time the entry exists and may be served cached.
		if cache.Matches(q, p) != q.Matches(p) {
			return false
		}
		if mutate {
			// Re-announce: same ID, changed query-visible fields. The
			// profile fingerprint must force re-evaluation.
			p.Name = names[int(mutNi)%len(names)]
			p.Node = nodes[int(mutNi)%len(nodes)]
			p.Attributes = attrSets[int(mutNi)%len(attrSets)]
			if cache.Matches(q, p) != q.Matches(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); hits == 0 || misses == 0 {
		t.Fatalf("property run did not exercise both cache paths: hits=%d misses=%d", hits, misses)
	}
}

// TestQueryCacheKeyDistinguishesFields: CacheKey must be injective over
// query-visible state — field values that could collide under naive
// string joining (shared substrings, separators inside values, values
// shifted between fields) must produce distinct keys.
func TestQueryCacheKeyDistinguishesFields(t *testing.T) {
	qs := []Query{
		{},
		{Platform: "ab"},
		{DeviceType: "ab"},
		{NameContains: "ab"},
		{Node: "ab"},
		{ExcludeID: "ab"},
		{Platform: "a", DeviceType: "b"},
		{Platform: "a:b"},
		{Platform: "a", Node: "b"},
		{Attributes: map[string]string{"a": "b"}},
		{Attributes: map[string]string{"a:b": ""}},
		{Attributes: map[string]string{"": "ab"}},
		{Ports: []PortTemplate{{Type: "ab"}}},
		{Ports: []PortTemplate{{Kind: Digital, Type: "ab"}}},
		{Ports: []PortTemplate{{Direction: Input, Type: "ab"}}},
		{Ports: []PortTemplate{{Direction: Output, Type: "ab"}}},
		{Ports: []PortTemplate{{Type: "a"}, {Type: "b"}}},
	}
	seen := map[string]int{}
	for i, q := range qs {
		k := q.CacheKey()
		if j, dup := seen[k]; dup {
			t.Fatalf("queries %d and %d share cache key %q", j, i, k)
		}
		seen[k] = i
	}
	// Attribute map iteration order must not leak into the key.
	q1 := Query{Attributes: map[string]string{"a": "1", "b": "2", "c": "3", "d": "4"}}
	q2 := Query{Attributes: map[string]string{"d": "4", "c": "3", "b": "2", "a": "1"}}
	for i := 0; i < 32; i++ {
		if q1.CacheKey() != q2.CacheKey() {
			t.Fatal("cache key depends on attribute map order")
		}
	}
}

// TestQueryCacheKeyGolden pins CacheKey's bytes: interest summaries
// hash them into the fingerprints peers exchange on the wire, so a
// change here is a wire change. AppendCacheKey must produce the same
// bytes after any prefix.
func TestQueryCacheKeyGolden(t *testing.T) {
	many := map[string]string{}
	for i := 0; i < 11; i++ {
		many[fmt.Sprintf("k%02d", 10-i)] = fmt.Sprintf("v%d", i)
	}
	cases := []struct {
		q    Query
		want string
	}{
		{Query{}, "0:0:0:0:0:"},
		{Query{Platform: "upnp"}, "4:upnp0:0:0:0:"},
		{Query{Platform: "webservice", NameContains: "living room lamp"}, "10:webservice0:16:living room lamp0:0:"},
		{Query{DeviceType: "camera", Attributes: map[string]string{"room": "room-12"}}, "0:6:camera0:0:0:a4:room7:room-12"},
		{Query{Node: "peer-1", DeviceType: "tv", Attributes: map[string]string{"room": "room-7"}}, "0:2:tv0:6:peer-10:a4:room6:room-7"},
		{Query{NameContains: "dev-99"}, "0:0:6:dev-990:0:"},
		{Query{ExcludeID: "h1/umiddle/own"}, "0:0:0:0:14:h1/umiddle/own"},
		{Query{Ports: []PortTemplate{{Direction: Input, Kind: Digital, Type: "image/jpeg"}}}, "0:0:0:0:0:p1110:image/jpeg"},
		{Query{Ports: []PortTemplate{{Direction: Output, Kind: Physical}}, Attributes: map[string]string{"room": "room-20"}}, "0:0:0:0:0:p220:a4:room7:room-20"},
		{Query{Ports: []PortTemplate{{}, {Type: "visible/*"}}}, "0:0:0:0:0:p000:p009:visible/*"},
		{Query{Attributes: map[string]string{"zone": "", "b": "2", "a": "1"}}, "0:0:0:0:0:a1:a1:1a1:b1:2a4:zone0:"},
		{Query{Attributes: map[string]string{"": "x"}}, "0:0:0:0:0:a0:1:x"},
		{Query{Attributes: many}, "0:0:0:0:0:a3:k003:v10a3:k012:v9a3:k022:v8a3:k032:v7a3:k042:v6a3:k052:v5a3:k062:v4a3:k072:v3a3:k082:v2a3:k092:v1a3:k102:v0"},
	}
	for i, c := range cases {
		if got := c.q.CacheKey(); got != c.want {
			t.Errorf("case %d: CacheKey = %q, want %q", i, got, c.want)
		}
		if got := string(c.q.AppendCacheKey([]byte("prefix"))); got != "prefix"+c.want {
			t.Errorf("case %d: AppendCacheKey = %q, want %q", i, got, "prefix"+c.want)
		}
	}
}

// Summarize must widen, never narrow: every profile the original query
// matches must also match the summary.
func TestQuerySummarizeOverApproximates(t *testing.T) {
	p := Profile{ID: "n1/upnp/tv", Name: "TV", Platform: "upnp", DeviceType: "display", Node: "n1"}
	q := Query{Platform: "upnp", ExcludeID: "n1/upnp/tv"}
	if q.Matches(p) {
		t.Fatal("sanity: ExcludeID should reject the profile")
	}
	s := q.Summarize()
	if !s.Matches(p) {
		t.Fatal("summary must drop ExcludeID and match the profile")
	}
	if s.ExcludeID != "" {
		t.Fatalf("summary retains ExcludeID %q", s.ExcludeID)
	}
	// All other criteria survive.
	if !s.Matches(p) || s.Matches(Profile{ID: "n1/ble/tag", Platform: "ble"}) {
		t.Fatal("summary must keep the platform criterion")
	}
}

// Fingerprint must be stable across attribute map order and distinguish
// distinct predicates.
func TestQueryFingerprint(t *testing.T) {
	q1 := Query{Attributes: map[string]string{"a": "1", "b": "2"}}
	q2 := Query{Attributes: map[string]string{"b": "2", "a": "1"}}
	if q1.Fingerprint() != q2.Fingerprint() {
		t.Fatal("fingerprint depends on attribute order")
	}
	if (Query{Platform: "upnp"}).Fingerprint() == (Query{Platform: "ble"}).Fingerprint() {
		t.Fatal("distinct queries share a fingerprint")
	}
	if (Query{}).Fingerprint() == 0 {
		t.Fatal("zero query should still hash to the FNV offset basis, not 0")
	}
}
