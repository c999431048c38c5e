package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netemu"
	"repro/internal/transport"
)

const (
	streamPaths     = 4
	payloadVariants = 3  // per path; rotated so the sink can check content and order together
	payloadCheck    = 64 // verify the payload pattern on 1 message in this many
	opTimeout       = 2 * time.Second
	// tracedPingOps bounds the traced ping phase so the span file stays a
	// few MB; the untraced phase is bounded by time alone.
	tracedPingOps = 20000
)

// node is one uMiddle node without the mapper runtime: a directory and a
// transport module on one netemu host, both with default options.
type node struct {
	name string
	dir  *directory.Directory
	mod  *transport.Module
}

func newNode(net *netemu.Network, name string, dopts directory.Options) (*node, error) {
	host, err := net.AddHost(name)
	if err != nil {
		return nil, err
	}
	dir := directory.New(name, host, dopts)
	if err := dir.Start(); err != nil {
		return nil, fmt.Errorf("directory %s: %w", name, err)
	}
	mod := transport.New(name, host, dir, transport.Options{})
	if err := mod.Start(); err != nil {
		dir.Close()
		return nil, fmt.Errorf("transport %s: %w", name, err)
	}
	return &node{name: name, dir: dir, mod: mod}, nil
}

func (n *node) close() {
	n.mod.Close()
	n.dir.Close()
}

var (
	outPort = core.Port{Name: "out", Kind: core.Digital, Direction: core.Output, Type: "application/octet-stream"}
	inPort  = core.Port{Name: "in", Kind: core.Digital, Direction: core.Input, Type: "application/octet-stream"}
)

func endpoint(nodeName, local, deviceType string, port core.Port) *core.Base {
	return core.MustBase(core.Profile{
		ID:         core.MakeTranslatorID(nodeName, "umiddle", local),
		Name:       local,
		Platform:   "umiddle",
		DeviceType: deviceType,
		Node:       nodeName,
		Shape:      core.MustShape(port),
	})
}

// waitUntil polls cond every millisecond; set-up only, never in a window.
func waitUntil(timeout time.Duration, what string, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// streamSink is the receiving end of one path and its oracle. uMiddle
// runs one dispatch worker per destination at a time, so the handler is
// never concurrent with itself; the fields are atomics because the
// driver reads them from its own goroutine.
type streamSink struct {
	delivered atomic.Uint64 // published last, so the driver sees the stamps below
	lastSeq   atomic.Uint64
	bad       atomic.Uint64 // out-of-order, duplicate or corrupt messages
	inNs      atomic.Int64  // handler entry/exit of the latest message, ns since world.base
	outNs     atomic.Int64
}

// streamWorld is nodes a and b joined by four static paths. In the local
// variant b is a: the same paths with no wire and no netemu between the
// path worker and the sink, which isolates qos + path worker + dispatch.
type streamWorld struct {
	net      *netemu.Network
	a, b     *node
	base     time.Time
	srcs     [streamPaths]*core.Base
	sinkIDs  [streamPaths]core.TranslatorID
	sinks    [streamPaths]*streamSink
	payloads [streamPaths][payloadVariants][]byte
	sent     [streamPaths]uint64
	stamp    atomic.Bool // ping phase: handlers record their entry and exit times
}

func newStreamWorld(seed int64, payloadBytes, warmup int, local bool) (*streamWorld, error) {
	w := &streamWorld{net: netemu.NewNetwork(netemu.Unlimited()), base: time.Now()}
	var err error
	if w.a, err = newNode(w.net, "a", directory.Options{}); err != nil {
		w.close()
		return nil, err
	}
	if local {
		w.b = w.a
	} else if w.b, err = newNode(w.net, "b", directory.Options{}); err != nil {
		w.close()
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < streamPaths; i++ {
		for v := range w.payloads[i] {
			w.payloads[i][v] = make([]byte, payloadBytes)
			rng.Read(w.payloads[i][v])
		}
		sink := endpoint(w.b.name, fmt.Sprintf("sink-%d", i), "stream-sink", inPort)
		w.sinkIDs[i] = sink.ID()
		st := &streamSink{}
		w.sinks[i] = st
		variants := &w.payloads[i]
		sink.MustHandle("in", func(_ context.Context, msg core.Message) error {
			var in time.Time
			stamp := w.stamp.Load()
			if stamp {
				in = time.Now()
			}
			n := st.delivered.Load() + 1
			if msg.Seq != st.lastSeq.Load()+1 {
				st.bad.Add(1)
			}
			st.lastSeq.Store(msg.Seq)
			if n%payloadCheck == 0 && !bytes.Equal(msg.Payload, variants[(n-1)%payloadVariants]) {
				st.bad.Add(1)
			}
			if stamp {
				st.inNs.Store(int64(in.Sub(w.base)))
				st.outNs.Store(int64(time.Since(w.base)))
			}
			st.delivered.Store(n)
			return nil
		})
		sink.Bind(w.b.mod)
		if err := w.b.dir.AddLocal(sink); err != nil {
			w.close()
			return nil, err
		}
		w.srcs[i] = endpoint("a", fmt.Sprintf("src-%d", i), "stream-src", outPort)
		w.srcs[i].Bind(w.a.mod)
		if err := w.a.dir.AddLocal(w.srcs[i]); err != nil {
			w.close()
			return nil, err
		}
	}
	err = waitUntil(10*time.Second, "a to learn b's sinks", func() bool {
		return len(w.a.dir.Lookup(core.Query{DeviceType: "stream-sink"})) == streamPaths
	})
	for i := 0; err == nil && i < streamPaths; i++ {
		_, err = w.a.mod.Connect(
			core.PortRef{Translator: w.srcs[i].ID(), Port: "out"},
			core.PortRef{Translator: w.sinkIDs[i], Port: "in"})
	}
	if err == nil {
		_, _, err = w.pump(func(n int64) bool { return n >= int64(warmup) }, false)
	}
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *streamWorld) close() {
	if w.a != nil {
		w.a.close()
	}
	if w.b != nil && w.b != w.a {
		w.b.close()
	}
	w.net.Close()
}

func (w *streamWorld) emit(i int) {
	w.srcs[i].Emit("out", core.Message{Payload: w.payloads[i][w.sent[i]%payloadVariants]})
	w.sent[i]++
}

func (w *streamWorld) deliveredTotal() (n uint64) {
	for _, s := range w.sinks {
		n += s.delivered.Load()
	}
	return n
}

func (w *streamWorld) sentTotal() (n uint64) {
	for _, s := range w.sent {
		n += s
	}
	return n
}

// pump is the capacity driver: one goroutine emits round-robin over the
// paths back-to-back (Block back-pressure paces it) until done says stop,
// then waits for the last message to reach its sink. done is asked once
// per 256 messages. With timed set it also sums the time spent inside
// Emit.
func (w *streamWorld) pump(done func(n int64) bool, timed bool) (n, emitNs int64, err error) {
	for !done(n) {
		for k := 0; k < 256; k++ {
			if timed {
				t0 := time.Now()
				w.emit(k % streamPaths)
				emitNs += int64(time.Since(t0))
			} else {
				w.emit(k % streamPaths)
			}
		}
		n += 256
	}
	want := w.sentTotal()
	deadline := time.Now().Add(10 * time.Second)
	for w.deliveredTotal() < want {
		if time.Now().After(deadline) {
			return n, emitNs, fmt.Errorf("drain: %d of %d messages delivered", w.deliveredTotal(), want)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return n, emitNs, nil
}

// ping keeps exactly one message in flight: emit, spin until the sink's
// handler has run, repeat. It returns every op's latency, Emit call →
// sink handler entry.
func (w *streamWorld) ping(d time.Duration, tr *tracer) (opNs []int64, err error) {
	opNs = make([]int64, 0, 1<<20)
	w.stamp.Store(true)
	defer w.stamp.Store(false)
	end := time.Now().Add(d)
	for op := int64(0); ; op++ {
		i := int(op % streamPaths)
		st := w.sinks[i]
		want := st.delivered.Load() + 1
		t0 := time.Now()
		if t0.After(end) || (tr != nil && op >= tracedPingOps) {
			return opNs, nil
		}
		w.emit(i)
		var t1 time.Time
		if tr != nil {
			t1 = time.Now()
		}
		for spins := 1; st.delivered.Load() < want; spins++ {
			runtime.Gosched()
			if spins%4096 == 0 && time.Since(t0) > opTimeout {
				return opNs, fmt.Errorf("ping %d on path %d not delivered within %s", op, i, opTimeout)
			}
		}
		in, out := w.base.Add(time.Duration(st.inNs.Load())), w.base.Add(time.Duration(st.outNs.Load()))
		opNs = append(opNs, int64(in.Sub(t0)))
		if tr != nil {
			root := tr.add(rootSpan, -1, op, t0, out)
			tr.add("transport.emit_call", root, op, t0, t1)
			tr.add("transport.in_flight", root, op, t1, in)
			tr.add("core.handler", root, op, in, out)
		}
	}
}

// audit is the stream oracle: every message delivered exactly once, in
// Seq order, with an intact payload.
func (w *streamWorld) audit(r *result) {
	for i, st := range w.sinks {
		if got := st.delivered.Load(); got != w.sent[i] {
			r.fail(int64(max(w.sent[i], got)-min(w.sent[i], got)), "path %d: %d sent, %d delivered", i, w.sent[i], got)
		}
		if bad := st.bad.Load(); bad > 0 {
			r.fail(int64(bad), "path %d: %d messages out of order, duplicated or corrupt", i, bad)
		}
	}
}
