package transport

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
	"repro/internal/qos"
)

// connPair builds two frameConns over an emulated connection.
func connPair(t *testing.T) (*frameConn, *frameConn) {
	t.Helper()
	client, server := linkPair(t, netemu.Unlimited())
	return newFrameConn(client), newFrameConn(server)
}

// linkPair dials one emulated connection over a link with profile p.
func linkPair(t *testing.T, p netemu.LinkProfile) (client, server net.Conn) {
	t.Helper()
	n := netemu.NewNetwork(p)
	t.Cleanup(func() { n.Close() })
	h1, h2 := n.MustAddHost("a"), n.MustAddHost("b")
	l, err := h2.Listen(7000)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	client, err = h1.Dial(context.Background(), "b:7000")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	return client, <-accepted
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := connPair(t)
	msg := core.NewMessage("image/jpeg", []byte("payload-bytes")).
		WithHeader("k", "v")
	msg.Seq = 42
	msg.Source = core.PortRef{Translator: "n/x/1", Port: "out"}
	f := deliverFrame("node-a", core.PortRef{Translator: "n/x/2", Port: "in"}, msg)
	if err := a.write(&f); err != nil {
		t.Fatalf("write: %v", err)
	}
	var got frame
	if err := b.read(&got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.header.Type != frameDeliver || got.header.From != "node-a" {
		t.Fatalf("header = %+v", got.header)
	}
	m := got.messageZeroCopy()
	if m.Type != "image/jpeg" || !bytes.Equal(m.Payload, msg.Payload) ||
		m.Seq != 42 || m.Header("k") != "v" || m.Source != msg.Source {
		t.Fatalf("message = %+v", m)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	a, b := connPair(t)
	if err := a.write(&frame{header: frameHeader{Type: frameHello, From: "x"}}); err != nil {
		t.Fatalf("write: %v", err)
	}
	var got frame
	if err := b.read(&got); err != nil {
		t.Fatalf("read: %v", err)
	}
	if got.header.Type != frameHello || got.payload != nil {
		t.Fatalf("frame = %+v", got)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	a, _ := connPair(t)
	big := &frame{
		header:  frameHeader{Type: frameDeliver},
		payload: make([]byte, maxFrameSize+1),
	}
	if err := a.write(big); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestFrameSequenceProperty(t *testing.T) {
	// Any sequence of frames with arbitrary payloads survives the wire
	// in order.
	a, b := connPair(t)
	f := func(payloads [][]byte) bool {
		if len(payloads) > 16 {
			payloads = payloads[:16]
		}
		go func() {
			for i, p := range payloads {
				a.write(&frame{ //nolint:errcheck
					header:  frameHeader{Type: frameDeliver, Seq: uint64(i)},
					payload: p,
				})
			}
		}()
		for i, want := range payloads {
			var got frame
			if err := b.read(&got); err != nil {
				return false
			}
			if got.header.Seq != uint64(i) {
				return false
			}
			if len(want) == 0 {
				if len(got.payload) != 0 {
					return false
				}
				continue
			}
			if !bytes.Equal(got.payload, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPathIDNode(t *testing.T) {
	if PathID("h1#3").node() != "h1" {
		t.Fatal("node extraction failed")
	}
	if PathID("bare").node() != "" {
		t.Fatal("bare path id should have no node")
	}
}

func TestPartitionMidPathRecordsErrors(t *testing.T) {
	// Failure injection: a cross-node path whose link goes down keeps
	// the path alive, counts delivery errors, and resumes after heal.
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := newNode(t, net, "h1")
	h2 := newNode(t, net, "h2")
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
	id, err := h1.mod.Connect(portRef(src, "out"), portRef(dst, "in"))
	if err != nil {
		t.Fatalf("Connect: %v", err)
	}
	src.Emit("out", core.TextMessage("before"))
	dst.wait(t, 3*time.Second)

	net.SetLinkDown("h1", "h2", true)
	src.Emit("out", core.TextMessage("during"))
	deadline = time.Now().Add(3 * time.Second)
	for {
		stats, _ := h1.mod.PathStats(id)
		if stats.Errors >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no delivery error recorded: %+v", stats)
		}
		time.Sleep(20 * time.Millisecond)
	}

	net.SetLinkDown("h1", "h2", false)
	// The broken peer connection is discarded; a new emission redials.
	deadline = time.Now().Add(5 * time.Second)
	for dst.count() < 2 {
		src.Emit("out", core.TextMessage("after"))
		if time.Now().After(deadline) {
			t.Fatal("delivery never resumed after heal")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestQoSByteRateLimiting(t *testing.T) {
	n := newNode(t, nil, "h1")
	src := producer("h1", "src", "text/plain")
	dst := newCollector("h1", "dst", "text/plain")
	n.register(t, src)
	n.register(t, dst)
	// 10 kB/s (burst = one second's worth): fifteen 1 kB messages
	// exceed the burst by 5 kB, so the tail is paced for >= ~400ms.
	_, err := n.mod.ConnectClass(portRef(src, "out"), portRef(dst, "in"), qos.Class{
		RateBytesPerSec: 10_000,
		BufferCapacity:  32,
	})
	if err != nil {
		t.Fatalf("ConnectClass: %v", err)
	}
	payload := make([]byte, 1000)
	start := time.Now()
	const count = 15
	for i := 0; i < count; i++ {
		src.Emit("out", core.NewMessage("text/plain", payload))
	}
	for i := 0; i < count; i++ {
		dst.wait(t, 5*time.Second)
	}
	if elapsed := time.Since(start); elapsed < 400*time.Millisecond {
		t.Fatalf("15 kB at 10 kB/s (10 kB burst) took %v, want >= 400ms", elapsed)
	}
}

func TestRemoteConnectCarriesQoSClass(t *testing.T) {
	// A QoS class attached to a remotely forwarded connect request is
	// applied on the owning node: LatestOnly drops stale messages there.
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := newNode(t, net, "h1")
	h2 := newNode(t, net, "h2")
	src := producer("h1", "src", "text/plain")
	slow := newCollector("h2", "slow", "text/plain")
	h1.register(t, src)
	h2.register(t, slow)
	deadline := time.Now().Add(3 * time.Second)
	for len(h2.dir.Lookup(core.Query{NameContains: "src"})) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("h2 never saw src")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Issue the class-carrying connect from h2 (source lives on h1).
	id, err := h2.mod.ConnectClass(portRef(src, "out"), portRef(slow, "in"), qos.Class{
		Policy: qos.LatestOnly,
	})
	if err != nil {
		t.Fatalf("remote ConnectClass: %v", err)
	}
	for i := 0; i < 50; i++ {
		src.Emit("out", core.TextMessage(fmt.Sprintf("%d", i)))
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		stats, ok := h1.mod.PathStats(id)
		if ok && stats.Buffer.Dropped > 0 && stats.Buffer.HighWater == 1 {
			break
		}
		if time.Now().After(deadline) {
			stats, _ := h1.mod.PathStats(id)
			t.Fatalf("LatestOnly class not applied remotely: %+v", stats)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gatedConn is a net.Conn whose Write parks until the test admits it —
// a peer that stopped reading — and then returns the admitted result.
// Only Write is implemented; the write side of a frameConn calls
// nothing else.
type gatedConn struct {
	net.Conn
	entered chan int   // each Write announces its length here, then parks
	admit   chan error // the result the parked Write returns
}

func newGatedConn() *gatedConn {
	return &gatedConn{entered: make(chan int), admit: make(chan error)}
}

func (c *gatedConn) Write(p []byte) (int, error) {
	c.entered <- len(p)
	if err := <-c.admit; err != nil {
		return 0, err
	}
	return len(p), nil
}

// discardConn accepts every write at once.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

// startWriters starts n goroutines writing f to fc, returning after all
// of their frames are in the pending batch, with the channel each
// writer's result arrives on.
func startWriters(t *testing.T, fc *frameConn, f *frame, n int) <-chan error {
	t.Helper()
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() { errs <- fc.write(f) }()
	}
	waitFor(t, 5*time.Second, func() bool {
		fc.wmu.Lock()
		defer fc.wmu.Unlock()
		return fc.batch != nil && fc.batch.frames == n
	})
	return errs
}

// TestWriteGroupCommitErrorFidelity: with the reader stalled, one
// leader flushes while three followers coalesce into the next batch.
// The followers take the result of the write that carried their frames
// — not the earlier write's success — and the error sticks to the
// connection afterwards.
func TestWriteGroupCommitErrorFidelity(t *testing.T) {
	gc := newGatedConn()
	fc := newFrameConn(gc)
	f := deliverFrame("a", core.PortRef{Translator: "b/umiddle/tv", Port: "in"},
		core.Message{Type: "text/plain", Payload: []byte("hello"), Seq: 1})
	wire, err := encodeFrame(f)
	if err != nil {
		t.Fatal(err)
	}

	leader := make(chan error, 1)
	go func() { leader <- fc.write(&f) }()
	if n := <-gc.entered; n != len(wire) {
		t.Fatalf("leader flushed %d bytes, want one frame (%d)", n, len(wire))
	}
	followers := startWriters(t, fc, &f, 3)

	gc.admit <- nil // the leader's own frame is through
	if n := <-gc.entered; n != 3*len(wire) {
		t.Fatalf("second flush carried %d bytes, want three frames (%d)", n, 3*len(wire))
	}
	select {
	case err := <-followers:
		t.Fatalf("a follower returned (%v) before the write carrying its frame finished", err)
	default:
	}
	boom := errors.New("boom")
	gc.admit <- boom
	for i := 0; i < 3; i++ {
		if err := <-followers; !errors.Is(err, boom) {
			t.Fatalf("follower %d: err = %v, want the failed write's error", i, err)
		}
	}
	<-leader
	// Sticky: the stream may hold a partial frame, so nothing more is
	// written (a Write would park on the gate and hang the test).
	if err := fc.write(&f); !errors.Is(err, boom) {
		t.Fatalf("write after failure: err = %v, want sticky %v", err, boom)
	}
}

// TestWriteBatchBuffersReused: the write ping-pong keeps both of its
// batches, each with its inline buffer and its reference list. A solo
// writer allocates nothing per 64 KiB frame, and a leader-plus-follower
// round ends holding the same backing arrays the round before it used.
func TestWriteBatchBuffersReused(t *testing.T) {
	f := deliverFrame("a", core.PortRef{Translator: "b/umiddle/tv", Port: "in"},
		core.Message{Type: "application/octet-stream", Payload: make([]byte, 64<<10), Seq: 1})

	solo := newFrameConn(discardConn{})
	if avg := testing.AllocsPerRun(100, func() {
		if err := solo.write(&f); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("solo writer: %.1f allocations per frame, want 0", avg)
	}

	type arrays struct {
		inline *byte
		refs   *payloadRef
	}
	gc := newGatedConn()
	fc := newFrameConn(gc)
	round := func() [2]arrays {
		leader := make(chan error, 1)
		go func() { leader <- fc.write(&f) }()
		<-gc.entered
		follower := startWriters(t, fc, &f, 1)
		gc.admit <- nil
		// A flush with a referenced payload is several Writes: admit
		// each until both writers return.
		for pending := 2; pending > 0; {
			var err error
			select {
			case <-gc.entered:
				gc.admit <- nil
				continue
			case err = <-leader:
			case err = <-follower:
			}
			if err != nil {
				t.Fatal(err)
			}
			pending--
		}
		fc.wmu.Lock()
		defer fc.wmu.Unlock()
		var got [2]arrays
		for i, b := range [2]*writeBatch{fc.batch, fc.spare} {
			if b == nil || cap(b.inline) == 0 || cap(b.refs) == 0 {
				t.Fatal("a batch buffer or reference list was dropped after a two-batch round")
			}
			got[i] = arrays{&b.inline[:1][0], &b.refs[:1][0]}
		}
		return got
	}
	first := round()
	for i := 0; i < 3; i++ {
		got := round()
		if got != first && got != [2]arrays{first[1], first[0]} {
			t.Fatalf("round %d ended with different batch buffers than the first round", i+2)
		}
	}
}

// TestInternTableBounded: a peer cycling through 10 000 translator
// names gets every frame decoded field-exact while the connection's
// intern table stays within its constants.
func TestInternTableBounded(t *testing.T) {
	const frames = 10_000
	long := strings.Repeat("x", internMaxString+1)
	var wire []byte
	want := make([]frameHeader, frames)
	for i := range want {
		f := deliverFrame("node-a",
			core.PortRef{Translator: core.TranslatorID(fmt.Sprintf("node-b/umiddle/sink-%d", i)), Port: "in"},
			core.Message{
				Type:    "text/plain",
				Source:  core.PortRef{Translator: core.TranslatorID(fmt.Sprintf("node-a/umiddle/src-%d", i)), Port: "out"},
				Seq:     uint64(i + 1),
				Headers: map[string]string{"k": strconv.Itoa(i)},
			})
		if i%1000 == 0 {
			f.header.Dst.Port = long // too long to be worth keeping
		}
		want[i] = f.header
		var err error
		if wire, err = appendFrameEncoded(wire, &f); err != nil {
			t.Fatal(err)
		}
	}

	r := bytes.NewReader(wire)
	br := bufio.NewReaderSize(r, largePayload)
	var st readState
	for i := range want {
		var got frame
		if err := readFrame(br, r, nil, &st, &got); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.header, want[i]) {
			t.Fatalf("frame %d decoded\n %+v\nwant\n %+v", i, got.header, want[i])
		}
		if n := len(st.names.m); n > internMaxEntries {
			t.Fatalf("frame %d: intern table holds %d entries, bound %d", i, n, internMaxEntries)
		}
		if st.names.bytes > internMaxBytes {
			t.Fatalf("frame %d: intern table holds %d bytes, bound %d", i, st.names.bytes, internMaxBytes)
		}
	}
	sum := 0
	for k, v := range st.names.m {
		if k != v || len(k) > internMaxString {
			t.Fatalf("intern table entry %q -> %q", k, v)
		}
		sum += len(k)
	}
	if sum != st.names.bytes {
		t.Fatalf("intern table accounts %d bytes, holds %d", st.names.bytes, sum)
	}
	if _, ok := st.names.m["node-a"]; !ok {
		t.Fatal("the name on every frame is not interned")
	}
	if cap(st.hdr) > hdrScratchMax {
		t.Fatalf("header scratch grew to %d bytes, bound %d", cap(st.hdr), hdrScratchMax)
	}
}
