//go:build !race

package directory

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
)

// TestLookupAllocationBudget pins what a Lookup costs right after a
// population change at 10k profiles: republishing the view copies only
// the touched entry, the indexed base's cached result is reused, and
// the results share the sealed profiles instead of cloning them. Only
// the Lookup is measured, not the mutation before it. The race
// detector's instrumentation allocates, hence the build tag.
func TestLookupAllocationBudget(t *testing.T) {
	const population, runs = 10_000, 200
	d := New("h1", nil, Options{})
	defer d.Close()
	for start := 0; start < population; start += 1000 {
		profiles := make([]core.Profile, 0, 1000)
		for i := start; i < start+1000; i++ {
			p := equivProfileFor("h2", i, i)
			p.Attributes = map[string]string{"room": fmt.Sprintf("room-%d", i%50)}
			profiles = append(profiles, p)
		}
		d.handleAdvert(advert{Type: "add", Node: "h2", Zone: "h2", Profiles: profiles})
	}
	if _, remote := d.Size(); remote != population {
		t.Fatalf("population = %d, want %d", remote, population)
	}
	q := core.Query{DeviceType: "camera", Attributes: map[string]string{"room": "room-12"}}
	local := core.MustBase(equivProfileFor("h1", 0, 1))
	d.Lookup(q) // build the base and cache the query's result

	var total uint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		var err error
		if i%2 == 0 {
			err = d.AddLocal(local)
		} else {
			_, err = d.RemoveLocal(local.ID())
		}
		if err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		// The delta flusher allocates; keep it out of the measurement.
		waitFor(t, time.Second, func() bool { return deltaIdle(d) })
		runtime.ReadMemStats(&before)
		got := d.Lookup(q)
		runtime.ReadMemStats(&after)
		if len(got) == 0 {
			t.Fatal("empty lookup")
		}
		total += after.Mallocs - before.Mallocs
	}
	perLookup := float64(total) / runs
	t.Logf("%.2f allocations per Lookup after one mutation at %d profiles", perLookup, population)
	if perLookup > 16 {
		t.Fatalf("%.2f allocations per Lookup after one mutation, budget 16", perLookup)
	}
}

// TestLookupCacheHitAllocations: a Lookup answered from the query cache
// allocates only its result slice. The cache key is built on the stack.
func TestLookupCacheHitAllocations(t *testing.T) {
	d := New("h1", nil, Options{})
	defer d.Close()
	profiles := make([]core.Profile, 0, 100)
	for i := 0; i < 100; i++ {
		p := equivProfileFor("h2", i, i)
		p.Attributes = map[string]string{"room": fmt.Sprintf("room-%d", i%5)}
		profiles = append(profiles, p)
	}
	d.handleAdvert(advert{Type: "add", Node: "h2", Zone: "h2", Profiles: profiles})
	q := core.Query{
		DeviceType: "camera",
		Ports:      []core.PortTemplate{{Direction: core.Output}},
		Attributes: map[string]string{"room": "room-2"},
	}
	if len(d.Lookup(q)) == 0 {
		t.Fatal("empty lookup")
	}
	if got := testing.AllocsPerRun(100, func() { d.Lookup(q) }); got != 1 {
		t.Fatalf("cache-hit Lookup made %.1f allocations, want 1 (the result slice)", got)
	}
}
