package mappertest_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/mapper/mappertest"
	"repro/internal/netemu"
	"repro/internal/usdl"
)

// node is the importer's node name; every platform's mapper host uses it.
const node = "mapper-host"

// platform is one mapper under the conformance suite.
type platform struct {
	name string
	// localID is the first translator's local ID ("dev-1", "mote-1", ...).
	localID string
	// settle spans several discovery passes or announcements.
	settle time.Duration
	// rejoin is set when devices must reconnect to a restarted mapper:
	// motes dial the base station the mapper hosts.
	rejoin bool
	// setup builds the native world on net. It returns the mapper factory
	// and a function that brings one device up.
	setup func(t *testing.T, net *netemu.Network) (newMapper func(*mapper.Recorder) mapper.Mapper, addDevice func() device)
}

// device is one native device under test.
type device struct {
	down, up func()
	// emit makes the device raise a native event that the mapper's event
	// pump relays; nil when the platform has no event pump.
	emit func(imp *mappertest.Importer)
}

// rig is one case's world: a fresh network, importer and device.
type rig struct {
	t         *testing.T
	p         platform
	imp       *mappertest.Importer
	reg       *usdl.Registry
	newMapper func(*mapper.Recorder) mapper.Mapper
	addDevice func() device
}

func newRig(t *testing.T, p platform, reg *usdl.Registry) *rig {
	net := netemu.NewNetwork(netemu.Ethernet10Mbps())
	t.Cleanup(func() { net.Close() })
	newMapper, addDevice := p.setup(t, net)
	return &rig{t: t, p: p, imp: mappertest.NewWithUSDL(node, reg), reg: reg, newMapper: newMapper, addDevice: addDevice}
}

func (r *rig) start(rec *mapper.Recorder) mapper.Mapper {
	r.t.Helper()
	m := r.newMapper(rec)
	if err := m.Start(context.Background(), r.imp); err != nil {
		r.t.Fatalf("Start: %v", err)
	}
	r.t.Cleanup(func() { m.Close() })
	return m
}

func (r *rig) waitCount(n int) {
	r.t.Helper()
	if err := r.imp.WaitCount(n, 10*time.Second); err != nil {
		r.t.Fatal(err)
	}
}

func mappedCount(m mapper.Mapper) int { return m.(interface{ MappedCount() int }).MappedCount() }

// fullRegistry holds every built-in USDL document plus the toy's.
func fullRegistry() *usdl.Registry {
	reg := usdl.NewRegistry()
	addDocs(reg)
	return reg
}

func addDocs(reg *usdl.Registry) {
	for _, doc := range append(usdl.BuiltinDocuments(), toyUSDL) {
		if err := reg.AddString(doc); err != nil {
			panic(err)
		}
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func hasPanic(imp *mappertest.Importer, platform, value string) bool {
	for _, p := range imp.Panics() {
		if p == platform+": "+value {
			return true
		}
	}
	return false
}

// mapperGoroutines lists live goroutines running mapper code.
func mapperGoroutines() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "repro/internal/mapper.") || strings.Contains(g, "repro/internal/mappers/") {
			out = append(out, g)
		}
	}
	return out
}

var cases = []struct {
	name string
	run  func(r *rig)
}{
	{"appear_disappear", func(r *rig) {
		rec := mapper.NewRecorder()
		m := r.start(rec)
		d := r.addDevice()
		r.waitCount(1)
		want := core.MakeTranslatorID(node, r.p.name, r.p.localID)
		if p := r.imp.Profiles()[0]; p.ID != want || p.Node != node || p.Platform != r.p.name {
			r.t.Fatalf("profile = %v, want ID %s", p, want)
		}
		if got := mappedCount(m); got != 1 {
			r.t.Fatalf("MappedCount = %d, want 1", got)
		}
		if s := rec.Samples(); len(s) != 1 || s[0].Platform != r.p.name || s[0].Ports == 0 || s[0].Duration <= 0 {
			r.t.Fatalf("samples = %v", s)
		}
		d.down()
		r.waitCount(0)
		waitFor(r.t, "MappedCount 0", func() bool { return mappedCount(m) == 0 })
	}},
	{"describe_fails_then_succeeds", func(r *rig) {
		// The USDL document is missing at first, then the first import
		// fails: each failure must release the device for a retry.
		var imports atomic.Int32
		r.imp.OnImport = func(core.Profile) error {
			if imports.Add(1) == 1 {
				return errors.New("import refused")
			}
			return nil
		}
		m := r.start(nil)
		r.addDevice()
		time.Sleep(r.p.settle)
		if r.imp.Count() != 0 || imports.Load() != 0 {
			r.t.Fatalf("mapped without a USDL document: %d translators, %d imports", r.imp.Count(), imports.Load())
		}
		addDocs(r.reg)
		r.waitCount(1)
		if got := mappedCount(m); got != 1 {
			r.t.Fatalf("MappedCount = %d, want 1", got)
		}
	}},
	{"flap_faster_than_sweep", func(r *rig) {
		m := r.start(nil)
		d := r.addDevice()
		r.waitCount(1)
		for i := 0; i < 3; i++ {
			d.down()
			time.Sleep(5 * time.Millisecond)
			d.up()
		}
		time.Sleep(r.p.settle)
		r.waitCount(1)
		waitFor(r.t, "MappedCount 1", func() bool { return mappedCount(m) == 1 })
	}},
	{"duplicate_announce_maps_once", func(r *rig) {
		var imports atomic.Int32
		r.imp.OnImport = func(core.Profile) error { imports.Add(1); return nil }
		m := r.start(nil)
		r.addDevice()
		r.waitCount(1)
		time.Sleep(r.p.settle)
		if n := imports.Load(); n != 1 || mappedCount(m) != 1 {
			r.t.Fatalf("%d imports, MappedCount %d; want 1 and 1", n, mappedCount(m))
		}
	}},
	{"panic_in_discovery", func(r *rig) {
		// The import runs on the discovery goroutine: the sweep for
		// polling platforms, the push callback for UPnP and motes.
		var imports atomic.Int32
		r.imp.OnImport = func(core.Profile) error {
			if imports.Add(1) == 1 {
				panic("boom")
			}
			return nil
		}
		r.start(nil)
		r.addDevice()
		waitFor(r.t, "panic reported", func() bool { return hasPanic(r.imp, r.p.name, "boom") })
		r.waitCount(1) // the reservation was released and the device retried
	}},
	{"panic_in_event_pump", func(r *rig) {
		var emits atomic.Int32
		r.imp.OnEmit = func(mappertest.Emission) {
			if emits.Add(1) == 1 {
				panic("pump boom")
			}
		}
		r.start(nil)
		d := r.addDevice()
		if d.emit == nil {
			r.t.Skip("platform has no native event pump")
		}
		r.waitCount(1)
		waitFor(r.t, "panic reported", func() bool {
			d.emit(r.imp)
			return hasPanic(r.imp, r.p.name, "pump boom")
		})
	}},
	{"supervisor_restart", func(r *rig) {
		// What the runtime supervisor does to a panicked mapper: close the
		// incarnation, unmap what it imported, start a fresh one.
		old := r.start(nil)
		d := r.addDevice()
		r.waitCount(1)
		id := r.imp.Profiles()[0].ID
		old.Close()
		if err := r.imp.RemoveTranslator(id); err != nil {
			r.t.Fatal(err)
		}
		fresh := r.start(nil)
		if r.p.rejoin {
			d.down()
			d.up()
		}
		r.waitCount(1)
		if got := r.imp.Profiles()[0].ID; got != id {
			r.t.Fatalf("fresh incarnation mapped %s, want %s", got, id)
		}
		if got := mappedCount(fresh); got != 1 {
			r.t.Fatalf("MappedCount = %d, want 1", got)
		}
	}},
	{"close_during_blocked_describe", func(r *rig) {
		entered := make(chan struct{})
		release := make(chan struct{})
		var imports atomic.Int32
		r.imp.OnImport = func(core.Profile) error {
			if imports.Add(1) == 1 {
				close(entered)
				<-release
			}
			return nil
		}
		m := r.start(nil)
		r.addDevice()
		select {
		case <-entered:
		case <-time.After(10 * time.Second):
			r.t.Fatal("describe never reached the import")
		}
		closed := make(chan struct{})
		go func() {
			m.Close()
			close(closed)
		}()
		select {
		case <-closed:
			r.t.Fatal("Close returned while a describe was in flight")
		case <-time.After(100 * time.Millisecond):
		}
		close(release)
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			r.t.Fatal("Close did not return after the describe finished")
		}
		if n := r.imp.Count(); n != 0 {
			r.t.Fatalf("%d translators mapped after Close, want 0", n)
		}
		waitFor(r.t, "mapper goroutines gone", func() bool { return len(mapperGoroutines()) == 0 })
	}},
}

// TestConformance runs every case against every platform: the six
// bridged platforms and the toy.
func TestConformance(t *testing.T) {
	for _, p := range platforms() {
		t.Run(p.name, func(t *testing.T) {
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					reg := fullRegistry()
					if c.name == "describe_fails_then_succeeds" {
						reg = usdl.NewRegistry()
					}
					c.run(newRig(t, p, reg))
				})
			}
		})
	}
}

var hostSeq atomic.Int32

// freshHost adds a host with a unique name.
func freshHost(net *netemu.Network, prefix string) *netemu.Host {
	return net.MustAddHost(fmt.Sprintf("%s-%d", prefix, hostSeq.Add(1)))
}
