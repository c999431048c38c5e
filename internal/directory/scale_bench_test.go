package directory

import (
	"fmt"
	"testing"

	"repro/internal/core"
)

// benchProfile builds the i-th member of a synthetic remote population,
// cycling a few shapes so queries see realistic selectivity.
func benchProfile(node string, i int) core.Profile {
	shapes := [][]core.Port{
		{{Name: "image-out", Kind: core.Digital, Direction: core.Output, Type: "image/jpeg"}},
		{
			{Name: "image-in", Kind: core.Digital, Direction: core.Input, Type: "image/jpeg"},
			{Name: "screen", Kind: core.Physical, Direction: core.Output, Type: "visible/screen"},
		},
		{{Name: "reading", Kind: core.Digital, Direction: core.Output, Type: "text/plain"}},
	}
	p := core.Profile{
		ID:         core.MakeTranslatorID(node, "umiddle", fmt.Sprintf("dev-%d", i)),
		Name:       fmt.Sprintf("dev-%d", i),
		Platform:   "umiddle",
		DeviceType: []string{"camera", "tv", "sensor"}[i%3],
		Node:       node,
		Shape:      core.MustShape(shapes[i%len(shapes)]...),
		Attributes: map[string]string{"room": fmt.Sprintf("room-%d", i%50)},
	}
	p.SyncShapePorts()
	return p
}

// populate fills a standalone directory with local and remote entries.
func populate(b *testing.B, d *Directory, local, remote int) {
	b.Helper()
	for i := 0; i < local; i++ {
		p := benchProfile(d.Node(), i)
		if err := d.AddLocal(core.MustBase(p)); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < remote; i++ {
		node := fmt.Sprintf("peer-%d", i%4)
		d.handleAdvert(advert{Type: "announce", Node: node, Zone: node, Profiles: []core.Profile{benchProfile(node, local+i)}})
	}
}

// BenchmarkLookup10k is the binding-storm probe: a selective port query
// against a 10k-translator population.
func BenchmarkLookup10k(b *testing.B) {
	d := New("h1", nil, Options{})
	defer d.Close()
	populate(b, d, 100, 9900)
	q := core.QueryAccepting("image/jpeg", "visible/*")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Lookup(q)
	}
}

// BenchmarkLookupAfterMutation10k is the repo benchmark's lookup_mixed
// shape on one goroutine: a local add or remove, then 50 lookups drawn
// from selective queries, against a 10k-translator population. The
// reported cost is per lookup, the mutation's share of the republish
// included.
func BenchmarkLookupAfterMutation10k(b *testing.B) {
	d := New("h1", nil, Options{})
	defer d.Close()
	populate(b, d, 100, 9900)
	room := func(i int) map[string]string { return map[string]string{"room": fmt.Sprintf("room-%d", i)} }
	queries := []core.Query{
		{DeviceType: "camera", Attributes: room(12)},
		{Node: "peer-1", DeviceType: "tv", Attributes: room(7)},
		{Ports: []core.PortTemplate{{Direction: core.Input, Kind: core.Digital, Type: "image/jpeg"}}, Attributes: room(2)},
		{NameContains: "dev-99"},
		{Node: "peer-2", Attributes: room(40)},
		{Ports: []core.PortTemplate{{Direction: core.Output, Kind: core.Physical}}, Attributes: room(20)},
	}
	local := core.MustBase(benchProfile("h1", 20000))
	present := false
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%50 == 0 {
			var err error
			if present {
				_, err = d.RemoveLocal(local.ID())
			} else {
				err = d.AddLocal(local)
			}
			if err != nil {
				b.Fatal(err)
			}
			present = !present
		}
		d.Lookup(queries[i%len(queries)])
	}
}

// BenchmarkResolve measures the per-call cost of resolving one profile
// out of a large population (the transport does this per Connect and
// per failover rebind).
func BenchmarkResolve(b *testing.B) {
	d := New("h1", nil, Options{})
	defer d.Close()
	populate(b, d, 100, 9900)
	id := benchProfile("peer-1", 501).ID
	if _, err := d.Resolve(id); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Resolve(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnnounceBuild measures building one full-state advert for a
// 1k-translator node (the group is nil, so marshal/send is excluded —
// this isolates the profile-collection path).
func BenchmarkAnnounceBuild(b *testing.B) {
	d := New("h1", nil, Options{})
	defer d.Close()
	populate(b, d, 1000, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.AnnounceNow()
	}
}
