package transport

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netemu"
	"repro/internal/qos"
)

// orderedSink records every delivery in arrival order (cloning, per the
// tracked zero-copy contract) for the exactly-once audit.
type orderedSink struct {
	*core.Base
	mu   sync.Mutex
	seen []string
}

func newOrderedSink(node, local, deviceType string) *orderedSink {
	s := &orderedSink{
		Base: core.MustBase(core.Profile{
			ID:         core.MakeTranslatorID(node, "umiddle", local),
			Name:       local,
			Platform:   "umiddle",
			DeviceType: deviceType,
			Node:       node,
			Shape: core.MustShape(
				core.Port{Name: "in", Kind: core.Digital, Direction: core.Input, Type: "text/plain"},
			),
		}),
	}
	s.MustHandle("in", func(_ context.Context, msg core.Message) error {
		payload := string(msg.Payload) // copies: safe to retain
		s.mu.Lock()
		s.seen = append(s.seen, payload)
		s.mu.Unlock()
		return nil
	})
	return s
}

func (s *orderedSink) snapshot() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.seen...)
}

// TestShardedDispatchExactlyOnce is the race/soak audit for the
// per-core sharded group-commit: with WriteShards > 1 every outbound
// path is pinned to one of several striped connections per peer, so
// the single-leader flush convoy is gone — but the PR 3 contract must
// survive: every message delivered exactly once, in per-path order,
// nothing dropped, under directory churn and link faults, with the
// race detector watching the striped redial machinery.
func TestShardedDispatchExactlyOnce(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()

	retry := qos.RetryPolicy{MaxAttempts: 12, BaseDelay: 20 * time.Millisecond, MaxDelay: 300 * time.Millisecond, Multiplier: 2}
	mkNode := func(name string) *node {
		host := net.MustAddHost(name)
		dir := directory.New(name, host, directory.Options{AnnounceInterval: 30 * time.Millisecond})
		if err := dir.Start(); err != nil {
			t.Fatalf("directory start: %v", err)
		}
		mod := New(name, host, dir, Options{
			WriteShards:    4,
			DeliverTimeout: 5 * time.Second,
			DialTimeout:    2 * time.Second,
			Retry:          retry,
			Redial:         retry,
		})
		if err := mod.Start(); err != nil {
			t.Fatalf("transport start: %v", err)
		}
		t.Cleanup(func() {
			mod.Close()
			dir.Close()
		})
		return &node{name: name, dir: dir, mod: mod}
	}
	h1 := mkNode("h1")
	h2 := mkNode("h2")

	// Eight dynamic paths h1 → h2, each bound by a unique device-type
	// query; consecutive path stripes land on all four write stripes.
	const pairs = 8
	type pair struct {
		name string
		src  *core.Base
		sink *orderedSink
		id   PathID
	}
	var ps []*pair
	for i := 0; i < pairs; i++ {
		name := string(rune('a' + i))
		p := &pair{
			name: name,
			src:  producer("h1", "shard-src-"+name, "text/plain"),
			sink: newOrderedSink("h2", "shard-dst-"+name, "shard-sink-"+name),
		}
		h1.register(t, p.src)
		h2.register(t, p.sink)
		ps = append(ps, p)
	}
	for _, p := range ps {
		q := core.Query{DeviceType: "shard-sink-" + p.name}
		waitFor(t, 5*time.Second, func() bool { return len(h1.dir.Lookup(q)) == 1 })
		id, err := h1.mod.ConnectQuery(portRef(p.src, "out"), q)
		if err != nil {
			t.Fatalf("ConnectQuery %s: %v", p.name, err)
		}
		p.id = id
	}

	emitFor := 1500 * time.Millisecond
	if testing.Short() {
		emitFor = 500 * time.Millisecond
	}

	stop := make(chan struct{})
	var churnWG sync.WaitGroup

	// Directory churn: translators flap on h2 while deliveries flow —
	// every mapped/unmapped notification re-runs the dynamic-binding
	// handlers and invalidates the match cache under load.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(120 * time.Millisecond):
			}
			fl := producer("h2", fmt.Sprintf("shard-flapper-%d", i), "text/plain")
			fl.Bind(h2.mod)
			if err := h2.dir.AddLocal(fl); err != nil {
				continue
			}
			time.Sleep(60 * time.Millisecond)
			h2.dir.RemoveLocal(fl.Profile().ID) //nolint:errcheck
		}
	}()

	// Link faults: two cuts inside the retry budget. Every striped
	// connection dies with the link; each stripe must redial
	// independently and no frame may be lost or duplicated across the
	// reconnects.
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for _, at := range []time.Duration{emitFor / 4, emitFor * 2 / 3} {
			select {
			case <-stop:
				return
			case <-time.After(at):
			}
			net.SetLinkDown("h1", "h2", true)
			time.Sleep(150 * time.Millisecond)
			net.SetLinkDown("h1", "h2", false)
		}
	}()

	// Sequenced open emission: Block-policy buffers stall the producer
	// during a fault window instead of dropping.
	sent := make([]int, pairs)
	var emitWG sync.WaitGroup
	for pi, p := range ps {
		emitWG.Add(1)
		go func(pi int, p *pair) {
			defer emitWG.Done()
			deadline := time.Now().Add(emitFor)
			for i := 0; time.Now().Before(deadline); i++ {
				p.src.Emit("out", core.NewMessage("text/plain", []byte(fmt.Sprintf("%s:%d", p.name, i))))
				sent[pi] = i + 1
				time.Sleep(2 * time.Millisecond)
			}
		}(pi, p)
	}
	emitWG.Wait()
	close(stop)
	churnWG.Wait()

	// Drain, then audit: exactly once, in order, nothing dropped.
	for pi, p := range ps {
		waitFor(t, 10*time.Second, func() bool {
			p.sink.mu.Lock()
			got := len(p.sink.seen)
			p.sink.mu.Unlock()
			return got >= sent[pi]
		})
		seen := p.sink.snapshot()
		if len(seen) != sent[pi] {
			t.Fatalf("pair %s: delivered %d, sent %d (duplicates?)", p.name, len(seen), sent[pi])
		}
		for i, payload := range seen {
			if want := fmt.Sprintf("%s:%d", p.name, i); payload != want {
				t.Fatalf("pair %s: delivery %d = %q, want %q (lost, duplicated, or reordered)", p.name, i, payload, want)
			}
		}
		stats, ok := h1.mod.PathStats(p.id)
		if !ok {
			t.Fatalf("pair %s: path stats gone", p.name)
		}
		if stats.Dropped != 0 {
			t.Fatalf("pair %s: %d deliveries dropped", p.name, stats.Dropped)
		}
	}

	// The striping must actually have engaged: h1 holds stripe peers
	// for h2 beyond the primary connection.
	h1.mod.mu.Lock()
	stripes := 0
	for key := range h1.mod.peers {
		if strings.Contains(key, stripeSep) {
			stripes++
		}
	}
	h1.mod.mu.Unlock()
	if stripes == 0 {
		t.Fatal("no striped peer connections were established")
	}

	// No ownership violations and queues drained on both ends.
	for _, n := range []*node{h1, h2} {
		if got := n.mod.OwnershipViolations(); got != 0 {
			t.Fatalf("node %s: %d ownership violations", n.name, got)
		}
	}
}
