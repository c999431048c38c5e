package transport

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netemu"
)

func TestMessageCopySemantics(t *testing.T) {
	// messageZeroCopy() must alias the frame buffer (that aliasing is
	// the whole point of zero-copy delivery).
	f := frame{
		header:  frameHeader{Type: frameDeliver, MsgType: "text/plain"},
		payload: []byte("abc"),
	}
	zc := f.messageZeroCopy()
	f.payload[0] = 'X'
	if string(zc.Payload) != "Xbc" {
		t.Fatalf("messageZeroCopy() does not alias the frame buffer: %q", zc.Payload)
	}
}

// ownershipNode stands up a node for the payload-ownership tests.
func ownershipNode(t *testing.T, net *netemu.Network, name string) *node {
	t.Helper()
	host := net.MustAddHost(name)
	dir := directory.New(name, host, directory.Options{AnnounceInterval: 20 * time.Millisecond})
	if err := dir.Start(); err != nil {
		t.Fatalf("directory start: %v", err)
	}
	mod := New(name, host, dir, Options{DeliverTimeout: 2 * time.Second})
	if err := mod.Start(); err != nil {
		t.Fatalf("transport start: %v", err)
	}
	t.Cleanup(func() {
		mod.Close()
		dir.Close()
	})
	return &node{name: name, dir: dir, mod: mod}
}

// rawRetainer is a translator that retains delivered messages without
// cloning, against the delivery contract. The retained slices are
// exactly what the aliasing tests inspect (and mutate).
type rawRetainer struct {
	*core.Base
	mu   sync.Mutex
	msgs []core.Message
}

func newRawRetainer(node, local string, typ core.DataType) *rawRetainer {
	r := &rawRetainer{
		Base: core.MustBase(core.Profile{
			ID:       core.MakeTranslatorID(node, "umiddle", local),
			Name:     local,
			Platform: "umiddle",
			Node:     node,
			Shape: core.MustShape(
				core.Port{Name: "in", Kind: core.Digital, Direction: core.Input, Type: typ},
			),
		}),
	}
	r.MustHandle("in", func(_ context.Context, msg core.Message) error {
		r.mu.Lock()
		r.msgs = append(r.msgs, msg)
		r.mu.Unlock()
		return nil
	})
	return r
}

func (r *rawRetainer) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

// connectWhenVisible waits for dst to appear in src's directory and
// installs a static path between them.
func connectWhenVisible(t *testing.T, n *node, src core.Translator, dst core.Translator) {
	t.Helper()
	waitFor(t, 3*time.Second, func() bool {
		_, err := n.dir.Resolve(dst.Profile().ID)
		return err == nil
	})
	if _, err := n.mod.Connect(portRef(src, "out"), portRef(dst, "in")); err != nil {
		t.Fatalf("Connect: %v", err)
	}
}

// TestTrackedOwnershipCleanRun: the tracked default delivers zero-copy;
// a conforming translator (clones before retaining) sees intact
// payloads across far more messages than the quarantine holds, and no
// violations are reported.
func TestTrackedOwnershipCleanRun(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := ownershipNode(t, net, "h1")
	h2 := ownershipNode(t, net, "h2")
	src := producer("h1", "src", "text/plain")
	dst := newCollector("h2", "dst", "text/plain") // clones on retain
	h1.register(t, src)
	h2.register(t, dst)
	connectWhenVisible(t, h1, src, dst)

	const n = 3 * quarantineDepth // force plenty of verified evictions
	for i := 0; i < n; i++ {
		src.Emit("out", core.NewMessage("text/plain", bytes.Repeat([]byte{byte(i)}, 64+i%512)))
	}
	waitFor(t, 10*time.Second, func() bool { return dst.count() >= n })

	dst.mu.Lock()
	defer dst.mu.Unlock()
	for i, msg := range dst.msgs {
		if len(msg.Payload) != 64+i%512 {
			t.Fatalf("msg %d: len = %d, want %d", i, len(msg.Payload), 64+i%512)
		}
		for j, b := range msg.Payload {
			if b != byte(i) {
				t.Fatalf("msg %d corrupted at byte %d: %#x != %#x", i, j, b, byte(i))
			}
		}
	}
	if got := h2.mod.OwnershipViolations(); got != 0 {
		t.Fatalf("clean run reported %d ownership violations", got)
	}
}

// TestTrackedOwnershipDetectsMutation is the aliasing regression test
// for the tracked default: a translator that mutates a delivered
// payload after its Deliver returned is caught by the quarantine
// checksum, counted, and its buffer discarded instead of recycled.
func TestTrackedOwnershipDetectsMutation(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := ownershipNode(t, net, "h1")
	h2 := ownershipNode(t, net, "h2")
	src := producer("h1", "src", "text/plain")
	dst := newRawRetainer("h2", "dst", "text/plain") // contract violator
	h1.register(t, src)
	h2.register(t, dst)
	connectWhenVisible(t, h1, src, dst)

	const n = 8
	for i := 0; i < n; i++ {
		src.Emit("out", core.NewMessage("text/plain", bytes.Repeat([]byte{byte(i)}, 256)))
	}
	waitFor(t, 5*time.Second, func() bool { return dst.count() >= n })

	// The violation: scribble into payloads the translator already
	// returned from Deliver. The buffers are quarantined, not yet
	// recycled — the mutation cannot corrupt later frames, but the
	// checksum verification at close must catch it.
	dst.mu.Lock()
	for i := range dst.msgs {
		if len(dst.msgs[i].Payload) > 0 {
			dst.msgs[i].Payload[0] ^= 0xff
		}
	}
	dst.mu.Unlock()

	if err := h2.mod.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := h2.mod.OwnershipViolations(); got < n {
		t.Fatalf("OwnershipViolations = %d, want >= %d", got, n)
	}
}

// TestTrackedOwnershipMultiHopIntegrity covers the forwarded-frame
// path: on a chain a—b—c the intermediary forwards frames zero-copy
// (the payload aliases its pooled read buffer until the group-commit
// writer has copied it into the outbound batch). Every payload must
// arrive intact at the far end under the tracked default, with no
// violations reported by any hop.
func TestTrackedOwnershipMultiHopIntegrity(t *testing.T) {
	net, err := netemu.NewMesh(netemu.Unlimited(), netemu.ChainTopology("a", "b", "c"))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	na := meshNode(t, net, "a", false)
	nb := meshNode(t, net, "b", true)
	nc := meshNode(t, net, "c", false)

	src := producer("a", "camera", "image/jpeg")
	dst := newCollector("c", "tv", "image/jpeg") // clones on retain
	na.register(t, src)
	nc.register(t, dst)
	waitFor(t, 3*time.Second, func() bool {
		if _, err := na.dir.Resolve(dst.Profile().ID); err != nil {
			return false
		}
		hops, ok := na.dir.Route("c")
		return ok && len(hops) == 1 && hops[0] == "b"
	})
	if _, err := na.mod.Connect(portRef(src, "out"), portRef(dst, "in")); err != nil {
		t.Fatalf("connect across segments: %v", err)
	}

	const n = 300
	for i := 0; i < n; i++ {
		na.mod.Emit(portRef(src, "out"),
			core.NewMessage("image/jpeg", bytes.Repeat([]byte{byte(i)}, 200+i)))
	}
	waitFor(t, 10*time.Second, func() bool { return dst.count() >= n })

	dst.mu.Lock()
	defer dst.mu.Unlock()
	for i, msg := range dst.msgs {
		if len(msg.Payload) != 200+i {
			t.Fatalf("msg %d: len = %d, want %d", i, len(msg.Payload), 200+i)
		}
		for j, b := range msg.Payload {
			if b != byte(i) {
				t.Fatalf("relayed msg %d corrupted at byte %d: %#x != %#x", i, j, b, byte(i))
			}
		}
	}
	if got := relayedCount(nb); got == 0 {
		t.Fatal("middle node forwarded no frames")
	}
	for _, nd := range []*node{na, nb, nc} {
		if got := nd.mod.OwnershipViolations(); got != 0 {
			t.Fatalf("node %s reported %d ownership violations", nd.name, got)
		}
	}
}
