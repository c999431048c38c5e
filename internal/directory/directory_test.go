package directory

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
	"repro/internal/qos"
)

// fastOpts keeps the announce cadence quick so tests converge fast.
func fastOpts() Options {
	return Options{AnnounceInterval: 20 * time.Millisecond, Lease: qos.LeasePolicy{ExpiryFactor: 4}}
}

func testProfile(node, local string) core.Profile {
	return core.Profile{
		ID:       core.MakeTranslatorID(node, "umiddle", local),
		Name:     local,
		Platform: "umiddle",
		Node:     node,
		Shape: core.MustShape(
			core.Port{Name: "out", Kind: core.Digital, Direction: core.Output, Type: "text/plain"},
		),
	}
}

func testTranslator(t *testing.T, node, local string) core.Translator {
	t.Helper()
	return core.MustBase(testProfile(node, local))
}

// remoteProfile builds an announce-ready profile (ShapePorts synced, as
// it would arrive on the wire) for a foreign node.
func remoteProfile(node, local string, ports ...core.Port) core.Profile {
	if len(ports) == 0 {
		ports = []core.Port{{Name: "out", Kind: core.Digital, Direction: core.Output, Type: "text/plain"}}
	}
	p := core.Profile{
		ID:       core.MakeTranslatorID(node, "umiddle", local),
		Name:     local,
		Platform: "umiddle",
		Node:     node,
		Shape:    core.MustShape(ports...),
	}
	p.SyncShapePorts()
	return p
}

// waitFor polls cond until true or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// deltaIdle reports whether d's delta flusher has finished: the flusher
// clears deltaPending only once it finds nothing left to send.
func deltaIdle(d *Directory) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return !d.deltaPending
}

// holdDelta keeps d's delta flusher from starting: AddLocal sees a flush
// already pending, so registrations and removals made meanwhile fold
// deterministically. The test releases them by calling d.flushDelta.
func holdDelta(d *Directory) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.deltaPending = true
}

// recorder is a thread-safe Listener implementation.
type recorder struct {
	mu       sync.Mutex
	mapped   []core.Profile
	unmapped []core.TranslatorID
}

func (r *recorder) TranslatorsMapped(ps []core.Profile) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mapped = append(r.mapped, ps...)
}

func (r *recorder) TranslatorsUnmapped(ids []core.TranslatorID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.unmapped = append(r.unmapped, ids...)
}

func (r *recorder) counts() (int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.mapped), len(r.unmapped)
}

func TestStandaloneLookup(t *testing.T) {
	d := New("h1", nil, Options{})
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer d.Close()

	tr := testTranslator(t, "h1", "svc-1")
	if err := d.AddLocal(tr); err != nil {
		t.Fatalf("AddLocal: %v", err)
	}
	got := d.Lookup(core.Query{})
	if len(got) != 1 || got[0].ID != tr.Profile().ID {
		t.Fatalf("Lookup = %v", got)
	}
	if _, ok := d.Local(tr.Profile().ID); !ok {
		t.Fatal("Local lookup failed")
	}
	p, err := d.Resolve(tr.Profile().ID)
	if err != nil || p.Name != "svc-1" {
		t.Fatalf("Resolve = %v, %v", p, err)
	}
	if _, err := d.Resolve("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Resolve(nope) err = %v", err)
	}
}

func TestAddLocalValidation(t *testing.T) {
	d := New("h1", nil, Options{})
	defer d.Close()

	// Wrong node.
	if err := d.AddLocal(testTranslator(t, "h2", "x")); err == nil {
		t.Error("foreign-node profile accepted")
	}
	// Duplicate.
	tr := testTranslator(t, "h1", "dup")
	if err := d.AddLocal(tr); err != nil {
		t.Fatalf("AddLocal: %v", err)
	}
	if err := d.AddLocal(tr); err == nil {
		t.Error("duplicate registration accepted")
	}
}

func TestRemoveLocal(t *testing.T) {
	d := New("h1", nil, Options{})
	defer d.Close()
	tr := testTranslator(t, "h1", "x")
	d.AddLocal(tr)
	got, err := d.RemoveLocal(tr.Profile().ID)
	if err != nil || got != tr {
		t.Fatalf("RemoveLocal = %v, %v", got, err)
	}
	if _, err := d.RemoveLocal(tr.Profile().ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second RemoveLocal err = %v", err)
	}
	if local, _ := d.Size(); local != 0 {
		t.Fatal("translator not removed")
	}
}

func TestCrossNodeAdvertisement(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")

	d1 := New("h1", h1, fastOpts())
	d2 := New("h2", h2, fastOpts())
	defer d1.Close()
	defer d2.Close()
	if err := d1.Start(); err != nil {
		t.Fatalf("Start d1: %v", err)
	}
	if err := d2.Start(); err != nil {
		t.Fatalf("Start d2: %v", err)
	}

	tr := testTranslator(t, "h1", "camera")
	if err := d1.AddLocal(tr); err != nil {
		t.Fatalf("AddLocal: %v", err)
	}

	waitFor(t, 2*time.Second, func() bool {
		_, remote := d2.Size()
		return remote == 1
	})
	got := d2.Lookup(core.Query{NameContains: "camera"})
	if len(got) != 1 || got[0].Node != "h1" {
		t.Fatalf("remote lookup = %v", got)
	}
	// Shape survives the wire.
	if _, ok := got[0].Shape.Port("out"); !ok {
		t.Fatal("shape lost in advertisement")
	}
}

func TestRemovePropagates(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	d1, d2 := New("h1", h1, fastOpts()), New("h2", h2, fastOpts())
	defer d1.Close()
	defer d2.Close()
	d1.Start()
	d2.Start()

	rec := &recorder{}
	d2.AddListener(rec)

	tr := testTranslator(t, "h1", "x")
	d1.AddLocal(tr)
	waitFor(t, 2*time.Second, func() bool { m, _ := rec.counts(); return m == 1 })

	d1.RemoveLocal(tr.Profile().ID)
	waitFor(t, 2*time.Second, func() bool { _, u := rec.counts(); return u == 1 })
}

func TestByeDropsNode(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	d1, d2 := New("h1", h1, fastOpts()), New("h2", h2, fastOpts())
	defer d2.Close()
	d1.Start()
	d2.Start()

	d1.AddLocal(testTranslator(t, "h1", "a"))
	d1.AddLocal(testTranslator(t, "h1", "b"))
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 2 })

	d1.Close() // sends bye
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 0 })
}

func TestExpiryOnSilentNode(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	d1, d2 := New("h1", h1, fastOpts()), New("h2", h2, fastOpts())
	defer d1.Close()
	defer d2.Close()
	d1.Start()
	d2.Start()

	d1.AddLocal(testTranslator(t, "h1", "a"))
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 1 })

	// Partition h1 from h2: announcements stop arriving; after the TTL
	// the translator expires. (Simulates a crashed node — no bye.)
	net.SetLinkDown("h1", "h2", true)
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 0 })
}

func TestPartitionHealRediscovers(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	d1, d2 := New("h1", h1, fastOpts()), New("h2", h2, fastOpts())
	defer d1.Close()
	defer d2.Close()
	d1.Start()
	d2.Start()

	d1.AddLocal(testTranslator(t, "h1", "a"))
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 1 })
	net.SetLinkDown("h1", "h2", true)
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 0 })
	net.SetLinkDown("h1", "h2", false)
	// Periodic announcements bring it back.
	waitFor(t, 2*time.Second, func() bool { _, r := d2.Size(); return r == 1 })
}

// TestListenerSeesExistingState: a listener added to a populated
// directory learns the whole population in one TranslatorsMapped call,
// and a ListenerFuncs sees every profile before AddListener returns.
func TestListenerSeesExistingState(t *testing.T) {
	d := New("h1", nil, Options{})
	defer d.Close()
	var want []core.TranslatorID
	for _, name := range []string{"pre-a", "pre-b", "pre-c", "pre-d", "pre-e"} {
		tr := testTranslator(t, "h1", name)
		d.AddLocal(tr)
		want = append(want, tr.Profile().ID)
	}

	rec := &batchRecorder{}
	d.AddListener(rec)
	mapped, _, mCalls, uCalls := rec.snapshot()
	if len(mapped) != len(want) {
		t.Fatalf("listener saw %d mapped, want %d (existing state replay)", len(mapped), len(want))
	}
	if mCalls != 1 || uCalls != 0 {
		t.Fatalf("replay took %d mapped and %d unmapped calls, want one mapped batch", mCalls, uCalls)
	}
	slices.Sort(mapped)
	if !slices.Equal(mapped, want) {
		t.Fatalf("replayed %v, want %v", mapped, want)
	}

	funcs, snap := funcsRecorder()
	d.AddListener(funcs)
	got, _ := snap()
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("ListenerFuncs saw %v before AddListener returned, want %v", got, want)
	}
}

func TestLateJoinerLearnsState(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := net.MustAddHost("h1")
	d1 := New("h1", h1, fastOpts())
	defer d1.Close()
	d1.Start()
	d1.AddLocal(testTranslator(t, "h1", "early"))

	// A node joining later still learns about h1's translators via
	// periodic announcements.
	h3 := net.MustAddHost("h3")
	d3 := New("h3", h3, fastOpts())
	defer d3.Close()
	d3.Start()
	waitFor(t, 2*time.Second, func() bool { _, r := d3.Size(); return r == 1 })
}

func TestThreeNodeMesh(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	dirs := make([]*Directory, 3)
	for i, name := range []string{"h1", "h2", "h3"} {
		h := net.MustAddHost(name)
		dirs[i] = New(name, h, fastOpts())
		defer dirs[i].Close()
		dirs[i].Start()
	}
	dirs[0].AddLocal(testTranslator(t, "h1", "a"))
	dirs[1].AddLocal(testTranslator(t, "h2", "b"))
	dirs[2].AddLocal(testTranslator(t, "h3", "c"))

	for _, d := range dirs {
		waitFor(t, 2*time.Second, func() bool {
			return len(d.Lookup(core.Query{})) == 3
		})
	}
}

func TestManyTranslatorsConverge(t *testing.T) {
	// Stress: 3 nodes x 20 translators each; every node converges on
	// the full population of 60.
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	const perNode = 20
	dirs := make([]*Directory, 3)
	for i, name := range []string{"n1", "n2", "n3"} {
		h := net.MustAddHost(name)
		dirs[i] = New(name, h, fastOpts())
		defer dirs[i].Close()
		if err := dirs[i].Start(); err != nil {
			t.Fatalf("Start: %v", err)
		}
	}
	for i, d := range dirs {
		for j := 0; j < perNode; j++ {
			name := []string{"n1", "n2", "n3"}[i]
			if err := d.AddLocal(testTranslator(t, name, fmt.Sprintf("svc-%d", j))); err != nil {
				t.Fatalf("AddLocal: %v", err)
			}
		}
	}
	for _, d := range dirs {
		waitFor(t, 5*time.Second, func() bool {
			return len(d.Lookup(core.Query{})) == 3*perNode
		})
	}
}

func TestConcurrentAddRemove(t *testing.T) {
	// Concurrent registration and removal must not race or corrupt the
	// registry.
	d := New("h1", nil, Options{})
	defer d.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr := testTranslator(t, "h1", fmt.Sprintf("g%d-i%d", g, i))
				if err := d.AddLocal(tr); err != nil {
					t.Errorf("AddLocal: %v", err)
					return
				}
				if i%2 == 0 {
					if _, err := d.RemoveLocal(tr.Profile().ID); err != nil {
						t.Errorf("RemoveLocal: %v", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	local, _ := d.Size()
	if local != 4*25 {
		t.Fatalf("local = %d, want 100", local)
	}
}
