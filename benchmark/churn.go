package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netemu"
	"repro/internal/wal"
)

const (
	bgRate  = 2000.0 // background messages per second, Poisson
	walFile = "dir.wal"
)

func churnDevType(i int) string { return fmt.Sprintf("churn-sink-%d", i) }

// churnSink is one generation of a replaceable device.
type churnSink struct {
	base  *core.Base
	gotNs atomic.Int64 // first arrival, ns since world.base; 0 = none yet
	done  chan struct{}
}

// steadySink is the oracle of one background binding.
type steadySink struct {
	delivered atomic.Uint64
	lastSeq   atomic.Uint64
	bad       atomic.Uint64
}

// churnWorld is nodes a and b, both journaling to a WAL on their netemu
// disk, with one dynamic binding per device of b.
type churnWorld struct {
	net    *netemu.Network
	a, b   *node
	logs   []*wal.Log
	base   time.Time
	srcs   []*core.Base
	sinks  []*churnSink // current generation of the replaceable bindings; nil below len(steady)
	gen    []int
	steady []*steadySink

	// The app listener on a: the driver names the translator it waits
	// for, the listener stamps the moment a's directory reported it.
	await    atomic.Pointer[core.TranslatorID]
	mappedNs atomic.Int64
	mapped   chan struct{}

	bgMu   sync.Mutex
	bgLat  []int64 // delivery latency from refTime, ns
	bgSent []uint64

	convergeS      float64
	connectQueryNs int64 // mean ConnectQuery call
}

// openWALNode is the PR 9 production shape: the directory journals to a
// log on the node's emulated disk.
func openWALNode(net *netemu.Network, name string) (*node, *wal.Log, error) {
	log, err := wal.OpenFile(net.Disk(name).Open(walFile), name+":"+walFile)
	if err != nil {
		return nil, nil, err
	}
	n, err := newNode(net, name, directory.Options{WAL: log})
	if err != nil {
		log.Close()
		return nil, nil, err
	}
	return n, log, nil
}

func newChurnWorld(seed int64, bindings, steady, warmup int) (*churnWorld, error) {
	w := &churnWorld{
		net:    netemu.NewNetwork(netemu.Unlimited()),
		base:   time.Now(),
		mapped: make(chan struct{}, 1),
		srcs:   make([]*core.Base, bindings),
		sinks:  make([]*churnSink, bindings),
		gen:    make([]int, bindings),
		steady: make([]*steadySink, steady),
		bgSent: make([]uint64, steady),
	}
	fail := func(err error) (*churnWorld, error) { w.close(); return nil, err }
	for _, name := range []string{"a", "b"} {
		n, log, err := openWALNode(w.net, name)
		if err != nil {
			return fail(err)
		}
		w.logs = append(w.logs, log)
		if name == "a" {
			w.a = n
		} else {
			w.b = n
		}
	}
	// All sinks, all sources, converge, then all paths — each step against
	// an empty path table, so set-up stays linear. internal/load awaits
	// convergence before the sources; here it is awaited after them,
	// because registering a's sources does not need b's sinks and the wait
	// is a timer, not work: after about one bulk registration in five a
	// is still short of some sinks when b has sent its last delta, and is
	// made whole only by the anti-entropy round of the next announce tick
	// but one, a second later. Awaited first, that made setup_s bimodal,
	// 5.7 or 6.7 s (README.md, "Findings").
	for i := 0; i < bindings; i++ {
		var tr core.Translator
		if i < steady {
			tr = w.newSteadySink(i)
		} else {
			w.sinks[i] = w.newChurnSink(i)
			tr = w.sinks[i].base
		}
		tr.Bind(w.b.mod)
		if err := w.b.dir.AddLocal(tr); err != nil {
			return fail(err)
		}
	}
	if err := w.checkpoint(); err != nil {
		return fail(err)
	}
	for i := range w.srcs {
		w.srcs[i] = endpoint("a", fmt.Sprintf("src-%d", i), "churn-src", outPort)
		w.srcs[i].Bind(w.a.mod)
		if err := w.a.dir.AddLocal(w.srcs[i]); err != nil {
			return fail(err)
		}
	}
	lastAdd := time.Now()
	if err := waitUntil(60*time.Second, "a to learn b's sinks", func() bool {
		_, remote := w.a.dir.Size()
		return remote == bindings
	}); err != nil {
		return fail(err)
	}
	w.convergeS = time.Since(lastAdd).Seconds()
	cqStart := time.Now()
	for i := range w.srcs {
		ref := core.PortRef{Translator: w.srcs[i].ID(), Port: "out"}
		if _, err := w.a.mod.ConnectQuery(ref, core.Query{DeviceType: churnDevType(i)}); err != nil {
			return fail(err)
		}
	}
	w.connectQueryNs = int64(time.Since(cqStart)) / int64(bindings)
	w.a.dir.AddListener(directory.ListenerFuncs{Mapped: func(p core.Profile) {
		if id := w.await.Load(); id != nil && p.ID == *id {
			w.mappedNs.Store(int64(time.Since(w.base)))
			select {
			case w.mapped <- struct{}{}:
			default:
			}
		}
	}})
	rng := rand.New(rand.NewSource(seed ^ 0x77))
	for k := 0; k < warmup; k++ {
		if _, err := w.replace(w.pick(rng), int64(-1-k), nil); err != nil {
			return fail(err)
		}
	}
	return w, nil
}

// checkpoint compacts both journals to one snapshot of the state so far,
// as an operator does with `pads persist` after a join. Left to its
// announce tick, a directory compacts when the tick finds a quarter of the
// population changed, and an append to a netemu MemFile copies the whole
// file: whether a's tick fell before or after its 4000 source
// registrations moved set-up by a gigabyte of copying (7.6 to 8.7 GB
// allocated, 4.7 to 5.4 s). Checkpointing between b's sinks and a's
// sources makes every set-up the slower case (8.7 to 8.8 GB).
func (w *churnWorld) checkpoint() error {
	for _, n := range []*node{w.a, w.b} {
		if err := n.dir.SnapshotNow(); err != nil {
			return fmt.Errorf("checkpoint %s: %w", n.name, err)
		}
	}
	return nil
}

func (w *churnWorld) close() {
	for _, n := range []*node{w.a, w.b} {
		if n != nil {
			n.close()
		}
	}
	for _, l := range w.logs {
		l.Close()
	}
	w.net.Close()
}

func (w *churnWorld) newSteadySink(i int) core.Translator {
	st := &steadySink{}
	w.steady[i] = st
	sink := endpoint("b", fmt.Sprintf("sink-%d", i), churnDevType(i), inPort)
	sink.MustHandle("in", func(_ context.Context, msg core.Message) error {
		lat := int64(time.Since(msg.Time))
		if msg.Seq != st.lastSeq.Load()+1 {
			st.bad.Add(1)
		}
		st.lastSeq.Store(msg.Seq)
		st.delivered.Add(1)
		w.bgMu.Lock()
		w.bgLat = append(w.bgLat, lat)
		w.bgMu.Unlock()
		return nil
	})
	return sink
}

// newChurnSink builds the next generation of device i under a fresh
// translator ID (see README.md, "Reused IDs").
func (w *churnWorld) newChurnSink(i int) *churnSink {
	cs := &churnSink{done: make(chan struct{})}
	cs.base = endpoint("b", fmt.Sprintf("sink-%d-g%d", i, w.gen[i]), churnDevType(i), inPort)
	w.gen[i]++
	cs.base.MustHandle("in", func(context.Context, core.Message) error {
		if cs.gotNs.CompareAndSwap(0, int64(time.Since(w.base))) {
			close(cs.done)
		}
		return nil
	})
	return cs
}

func (w *churnWorld) pick(rng *rand.Rand) int {
	return len(w.steady) + rng.Intn(len(w.sinks)-len(w.steady))
}

var probePayload = []byte{0x5a}

// replace is one bind_churn op on binding i: register the replacement
// device on b, wait until a's directory reports it, emit a probe on the
// binding's source and wait for it at the new device; then retire the old
// one. It returns the op latency (AddLocal start → probe at the new
// sink's handler).
func (w *churnWorld) replace(i int, op int64, tr *tracer) (time.Duration, error) {
	next := w.newChurnSink(i)
	next.base.Bind(w.b.mod)
	id := next.base.ID()
	w.await.Store(&id)
	select {
	case <-w.mapped:
	default:
	}
	timer := time.NewTimer(opTimeout)
	defer timer.Stop()

	// A replacement that fails is withdrawn, so b's devices stay what the
	// final view check expects.
	abandon := func(format string, args ...any) (time.Duration, error) {
		w.b.dir.RemoveLocal(id) //nolint:errcheck // the op has failed already
		return 0, fmt.Errorf(format, args...)
	}
	t0 := time.Now()
	if err := w.b.dir.AddLocal(next.base); err != nil {
		return 0, err
	}
	t1 := time.Now()
	select {
	case <-w.mapped:
	case <-timer.C:
		return abandon("binding %d: a never heard of %s", i, id)
	}
	t2 := w.base.Add(time.Duration(w.mappedNs.Load()))
	t2e := time.Now()
	w.srcs[i].Emit("out", core.Message{Payload: probePayload})
	select {
	case <-next.done:
	case <-timer.C:
		return abandon("binding %d: probe never reached %s", i, id)
	}
	t3 := w.base.Add(time.Duration(next.gotNs.Load()))

	old := w.sinks[i]
	w.sinks[i] = next
	t4 := time.Now()
	_, err := w.b.dir.RemoveLocal(old.base.ID())
	if tr != nil {
		t5 := time.Now()
		root := tr.add(rootSpan, -1, op, t0, t3)
		tr.add("directory.add_local", root, op, t0, t1)
		tr.add("directory.propagate", root, op, t1, t2)
		tr.add("transport.first_deliver", root, op, t2e, t3)
		tr.add("directory.remove_local", -1, op, t4, t5)
	}
	return t3.Sub(t0), err
}

// refTime is the instant a background message's latency is counted from:
// its intended send time, or the pacer's last wake-up if that was later.
// A pacer that overslept releases a burst; charging each message of the
// burst from its intended time would bill uMiddle for the timer.
func refTime(intended, lastWake time.Time) time.Time {
	if lastWake.After(intended) {
		return lastWake
	}
	return intended
}

// background offers bgRate Poisson messages per second round-robin over
// the steady bindings until stop closes. It returns how late the pacer
// ran (refTime − intended) per message.
func (w *churnWorld) background(seed int64, stop <-chan struct{}) (lateNs []int64) {
	rng := rand.New(rand.NewSource(seed ^ 0xb6))
	payload := make([]byte, 64)
	rng.Read(payload)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	next, wake := time.Now(), time.Now()
	for k := 0; ; k++ {
		next = next.Add(time.Duration(rng.ExpFloat64() * float64(time.Second) / bgRate))
		if d := time.Until(next); d > 0 {
			timer.Reset(d)
			select {
			case <-stop:
				return lateNs
			case <-timer.C:
			}
			wake = time.Now()
		}
		select {
		case <-stop:
			return lateNs
		default:
		}
		ref := refTime(next, wake)
		lateNs = append(lateNs, int64(ref.Sub(next)))
		i := k % len(w.steady)
		w.srcs[i].Emit("out", core.Message{Payload: payload, Time: ref})
		w.bgSent[i]++
	}
}

// churnWindow is what one measured bind_churn window yields.
type churnWindow struct {
	parts  []slice
	opNs   []int64
	lateNs []int64
	failed []error
}

// run replaces randomly drawn devices one at a time for d, with the
// background flowing, in windowSlices parts; each part is charged with
// everything the process did meanwhile.
func (w *churnWorld) run(seed int64, d time.Duration, tr *tracer) churnWindow {
	var cw churnWindow
	rng := rand.New(rand.NewSource(seed))
	stop := make(chan struct{})
	bgDone := make(chan []int64)
	go func() { bgDone <- w.background(seed, stop) }()
	for k := 0; k < windowSlices; k++ {
		start := readCounters()
		end := start.wall.Add(d / windowSlices)
		done := len(cw.opNs)
		for time.Now().Before(end) {
			lat, err := w.replace(w.pick(rng), int64(len(cw.opNs)+len(cw.failed)), tr)
			if err != nil {
				cw.failed = append(cw.failed, err)
				continue
			}
			cw.opNs = append(cw.opNs, int64(lat))
		}
		cw.parts = append(cw.parts, slice{int64(len(cw.opNs) - done), readCounters().since(start)})
	}
	close(stop)
	cw.lateNs = <-bgDone
	return cw
}

// audit is the bind_churn oracle beyond per-op failures: the background
// arrived exactly once and in order, a's view of b equals b's devices, and
// no netemu group inbox overflowed.
func (w *churnWorld) audit(r *result) {
	err := waitUntil(opTimeout, "background to drain", func() bool {
		for i, st := range w.steady {
			if st.delivered.Load() < w.bgSent[i] {
				return false
			}
		}
		return true
	})
	if err != nil {
		r.fail(1, "%v", err)
	}
	for i, st := range w.steady {
		if got := st.delivered.Load(); got != w.bgSent[i] {
			r.fail(1, "steady binding %d: %d sent, %d delivered", i, w.bgSent[i], got)
		}
		if bad := st.bad.Load(); bad > 0 {
			r.fail(int64(bad), "steady binding %d: %d messages out of order or duplicated", i, bad)
		}
	}
	want := make(map[core.TranslatorID]bool, len(w.sinks))
	for i := range w.sinks {
		if i < len(w.steady) {
			want[core.MakeTranslatorID("b", "umiddle", fmt.Sprintf("sink-%d", i))] = true
		} else {
			want[w.sinks[i].base.ID()] = true
		}
	}
	viewEqual := func() bool {
		got := w.a.dir.Lookup(core.Query{Node: "b"})
		if len(got) != len(want) {
			return false
		}
		for _, p := range got {
			if !want[p.ID] {
				return false
			}
		}
		return true
	}
	if err := waitUntil(5*time.Second, "a's view of b to equal b's devices", viewEqual); err != nil {
		r.fail(1, "%v (a sees %d, b has %d)", err, len(w.a.dir.Lookup(core.Query{Node: "b"})), len(want))
	}
	if drops := w.net.GroupDrops(); drops > 0 {
		r.fail(int64(drops), "netemu group inboxes dropped %d datagrams", drops)
	}
}
