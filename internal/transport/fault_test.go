package transport

import (
	"context"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netemu"
	"repro/internal/qos"
)

// fastRetry keeps fault-tolerance cadence quick for tests.
func fastRetry() qos.RetryPolicy {
	return qos.RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond, Multiplier: 2, NoJitter: true}
}

// newNodeOpts is newNode with explicit transport options.
func newNodeOpts(t *testing.T, net *netemu.Network, name string, opts Options) *node {
	t.Helper()
	var host *netemu.Host
	if net != nil {
		host = net.MustAddHost(name)
	}
	dir := directory.New(name, host, directory.Options{AnnounceInterval: 20 * time.Millisecond})
	if err := dir.Start(); err != nil {
		t.Fatalf("directory start: %v", err)
	}
	mod := New(name, host, dir, opts)
	if err := mod.Start(); err != nil {
		t.Fatalf("transport start: %v", err)
	}
	t.Cleanup(func() {
		mod.Close()
		dir.Close()
	})
	return &node{name: name, dir: dir, mod: mod}
}

// rawSink listens on a host's transport port and swallows everything
// without ever replying — a peer that accepts but never acks.
func rawSink(t *testing.T, net *netemu.Network, name string, port int) {
	t.Helper()
	host := net.MustAddHost(name)
	l, err := host.Listen(port)
	if err != nil {
		t.Fatalf("rawSink listen: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn)
		}
	}()
}

// TestPendingRequestCleanedUpOnClose: a request cut short by module
// shutdown must remove its correlation entry from m.pending. The seed
// deleted the entry on the write-error and timeout arms only, so every
// request outstanding at Close leaked its channel for the life of the
// process.
func TestPendingRequestCleanedUpOnClose(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := newNodeOpts(t, net, "h1", Options{DeliverTimeout: time.Minute})
	rawSink(t, net, "h2", h1.mod.opts.Port)

	done := make(chan error, 1)
	go func() {
		_, err := h1.mod.request("h2", frame{header: frameHeader{Type: frameDisconnect, PathID: "h2#1"}})
		done <- err
	}()

	// Wait for the request to be registered, then shut down underneath it.
	deadline := time.Now().Add(2 * time.Second)
	for {
		h1.mod.mu.Lock()
		n := len(h1.mod.pending)
		h1.mod.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never registered in m.pending")
		}
		time.Sleep(2 * time.Millisecond)
	}
	h1.mod.Close()

	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("request err = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("request did not return after Close")
	}
	h1.mod.mu.Lock()
	leaked := len(h1.mod.pending)
	h1.mod.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d pending entries leaked after Close", leaked)
	}
}

// blockedCollector is a translator whose input handler parks until
// released, signalling entry.
type blockedCollector struct {
	*core.Base
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newBlockedCollector(node, local string, typ core.DataType) *blockedCollector {
	c := &blockedCollector{
		Base: core.MustBase(core.Profile{
			ID:       core.MakeTranslatorID(node, "umiddle", local),
			Name:     local,
			Platform: "umiddle",
			Node:     node,
			Shape: core.MustShape(
				core.Port{Name: "in", Kind: core.Digital, Direction: core.Input, Type: typ},
			),
		}),
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	c.MustHandle("in", func(_ context.Context, _ core.Message) error {
		c.once.Do(func() { close(c.entered) })
		<-c.release
		return nil
	})
	return c
}

// TestSlowDeliveryDoesNotBlockControlFrames: with a deliberately stuck
// translator on h2, a control request from h1 (which travels the same
// connection and needs h2's ack) must still complete promptly. The seed
// ran Translator.Deliver synchronously on the connection read loop, so
// the ack stalled behind the stuck delivery until DeliverTimeout.
func TestSlowDeliveryDoesNotBlockControlFrames(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	opts := Options{DeliverTimeout: 10 * time.Second}
	h1 := newNodeOpts(t, net, "h1", opts)
	h2 := newNodeOpts(t, net, "h2", opts)

	src := producer("h1", "src", "text/plain")
	stuck := newBlockedCollector("h2", "stuck", "text/plain")
	h1.register(t, src)
	h2.register(t, stuck)
	defer close(stuck.release)

	// A second source hosted on h2, so h1 can issue a forwarded Connect
	// that must round-trip an ack through h2's read loop.
	src2 := producer("h2", "src2", "text/plain")
	aux := newCollector("h2", "aux", "text/plain")
	h2.register(t, src2)
	h2.register(t, aux)

	deadline := time.Now().Add(3 * time.Second)
	for len(h1.dir.Lookup(core.Query{NameContains: "stuck"})) == 0 ||
		len(h1.dir.Lookup(core.Query{NameContains: "src2"})) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("h1 never learned h2's translators")
		}
		time.Sleep(10 * time.Millisecond)
	}

	if _, err := h1.mod.Connect(portRef(src, "out"), portRef(stuck, "in")); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	src.Emit("out", core.NewMessage("text/plain", []byte("jam")))
	select {
	case <-stuck.entered:
	case <-time.After(3 * time.Second):
		t.Fatal("delivery never reached the stuck translator")
	}

	// The deliver frame is now parked inside Translator.Deliver on h2.
	// A forwarded Connect must still ack quickly.
	start := time.Now()
	if _, err := h1.mod.Connect(portRef(src2, "out"), portRef(aux, "in")); err != nil {
		t.Fatalf("forwarded Connect while delivery stuck: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("control frame stalled %v behind a stuck delivery", elapsed)
	}
}

// TestDialTimeoutHonored: Options.DialTimeout bounds how long a caller
// blocks on an unreachable peer. The seed hardcoded 5 seconds.
func TestDialTimeoutHonored(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := newNodeOpts(t, net, "h1", Options{
		DialTimeout: 100 * time.Millisecond,
		Redial:      fastRetry(),
	})
	// h2 exists and listens, but 2s of one-way latency makes the dial
	// handshake take ~4s — far beyond DialTimeout.
	rawSink(t, net, "h2", h1.mod.opts.Port)
	net.SetLink("h1", "h2", netemu.LinkProfile{Latency: 2 * time.Second})

	start := time.Now()
	_, _, _, err := h1.mod.peerConn("h2", 0)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("peerConn succeeded across a 4s-RTT link with a 100ms DialTimeout")
	}
	if elapsed > time.Second {
		t.Fatalf("peerConn blocked %v, want ~DialTimeout (100ms)", elapsed)
	}
}

// TestDeadPeerFailsBounded: when every redial attempt fails, deliveries
// resolve with the cycle's error instead of hanging, and a later call
// starts a fresh cycle.
func TestDeadPeerFailsBounded(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := newNodeOpts(t, net, "h1", Options{
		DialTimeout: 2 * time.Second,
		Redial:      qos.RetryPolicy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Multiplier: 2, NoJitter: true},
	})
	net.MustAddHost("h2") // exists, nothing listening: dials are refused

	start := time.Now()
	_, _, _, err := h1.mod.peerConn("h2", 0)
	if err == nil {
		t.Fatal("peerConn to a dead node succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("dead-node peerConn took %v, want bounded by redial budget", elapsed)
	}
}

// TestConcurrentEmitDisconnectPeerDrop exercises Emit, path Disconnect,
// and forcible connection drops concurrently; run under -race.
func TestConcurrentEmitDisconnectPeerDrop(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	opts := Options{
		DeliverTimeout: 2 * time.Second,
		DialTimeout:    time.Second,
		Retry:          fastRetry(),
		Redial:         fastRetry(),
	}
	h1 := newNodeOpts(t, net, "h1", opts)
	h2 := newNodeOpts(t, net, "h2", opts)

	src := producer("h1", "src", "text/plain")
	dst := newCollector("h2", "dst", "text/plain")
	h1.register(t, src)
	h2.register(t, dst)

	deadline := time.Now().Add(3 * time.Second)
	for len(h1.dir.Lookup(core.Query{NameContains: "dst"})) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("h1 never saw dst")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := h1.mod.Connect(portRef(src, "out"), portRef(dst, "in")); err != nil {
		t.Fatalf("Connect: %v", err)
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // emitter
		defer wg.Done()
		for i := 0; i < 100; i++ {
			src.Emit("out", core.TextMessage("x"))
			time.Sleep(time.Millisecond)
		}
	}()
	go func() { // connection dropper
		defer wg.Done()
		for i := 0; i < 10; i++ {
			net.DropConnections("h1", "h2")
			time.Sleep(10 * time.Millisecond)
		}
	}()
	go func() { // path churner
		defer wg.Done()
		for i := 0; i < 20; i++ {
			id, err := h1.mod.Connect(portRef(src, "out"), portRef(dst, "in"))
			if err != nil {
				continue
			}
			time.Sleep(2 * time.Millisecond)
			h1.mod.Disconnect(id)
		}
	}()
	wg.Wait()
	// Deliveries should still flow on the surviving path afterwards.
	src.Emit("out", core.TextMessage("after-churn"))
	waitDeadline := time.Now().Add(5 * time.Second)
	for {
		if dst.count() > 0 {
			break
		}
		if time.Now().After(waitDeadline) {
			t.Fatal("no deliveries at all after churn")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
