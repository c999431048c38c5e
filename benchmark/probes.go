package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/mappers/upnpmap"
	"repro/internal/netemu"
	"repro/internal/obs"
	"repro/internal/platform/upnp"
	"repro/internal/qos"
	"repro/internal/runtime"
	"repro/internal/usdl"
	"repro/internal/wal"
)

// The probes time one layer at a time through its public functions, with
// nothing else running: the floor a workload's share of that layer cannot
// go below. Each is a fixed amount of work, not a fixed time. They do not
// depend on the workload or the seed.

// sinkhole keeps results alive so the compiler cannot drop a probed call.
var sinkhole int

// perCall runs fn n times and returns the mean nanoseconds per call.
func perCall(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(n)
}

// runProbes runs every probe. Each does its full amount of work divided
// by div: 1 in the benchmark, more in the smoke test.
func runProbes(pl map[string]value, div int) error {
	for _, probe := range []func(map[string]value, int) error{
		probeTransportLocal, probeWAL, probeNetemuConn, probeNetemuGroup,
		probeQoS, probeCore, probeObs, probeMapper, probeUSDL,
	} {
		if err := probe(pl, div); err != nil {
			return err
		}
	}
	return nil
}

// probeTransportLocal runs the stream phases over same-node paths — qos
// buffer, path worker and dispatch with no wire — and times Resolve on
// that node's directory.
func probeTransportLocal(pl map[string]value, div int) error {
	w, err := newStreamWorld(1, 64, 100000/div, true)
	if err != nil {
		return err
	}
	defer w.close()
	t0 := time.Now()
	n, _, err := w.pump(func(n int64) bool { return n >= int64(400000/div) }, false)
	if err != nil {
		return err
	}
	pl["transport.local_ops_per_s"] = value{float64(n) / time.Since(t0).Seconds(), "1/s"}
	ps, err := w.ping(time.Second/time.Duration(div), nil)
	if err != nil {
		return err
	}
	pl["transport.local_ping_p50_us"] = value{p50us(ps), "us"}
	var rerr error
	pl["directory.resolve_ns"] = value{perCall(500000/div, func(i int) {
		p, err := w.a.dir.Resolve(w.sinkIDs[i%streamPaths])
		if err != nil {
			rerr = err
		}
		sinkhole += len(p.ID)
	}), "ns"}
	return rerr
}

// probeWAL appends 4000 advert-sized records — the journal bind_churn's
// set-up writes — to an empty log on a netemu disk, then reopens it to
// time the replay. The mean append depends on that count: netemu's MemFile
// copies the whole file on every write that grows it.
func probeWAL(pl map[string]value, div int) error {
	records := 4000 / div
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	disk := net.Disk("probe")
	log, err := wal.OpenFile(disk.Open("probe.wal"), "probe")
	if err != nil {
		return err
	}
	payload := make([]byte, 512)
	var aerr error
	pl["wal.append_us"] = value{perCall(records, func(int) {
		if err := log.Append(1, payload); err != nil {
			aerr = err
		}
	}) / 1e3, "us"}
	if aerr != nil {
		return aerr
	}
	if err := log.Close(); err != nil {
		return err
	}
	t0 := time.Now()
	log, err = wal.OpenFile(disk.Open("probe.wal"), "probe")
	if err != nil {
		return err
	}
	if got := len(log.Replayed()); got != records {
		return fmt.Errorf("wal probe: replayed %d of %d records", got, records)
	}
	pl["wal.replay_ms_per_10k"] = value{float64(time.Since(t0)) / 1e6 * 10000 / float64(records), "ms"}
	return log.Close()
}

// probeNetemuConn measures a netemu stream connection on an unlimited
// link: round trips of 64 bytes against an echo peer, then one-way bulk
// in 64 KiB writes.
func probeNetemuConn(pl map[string]value, div int) error {
	pings, bulkWrites := 20000/div, 4000/div
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	server, client := net.MustAddHost("server"), net.MustAddHost("client")
	l, err := server.Listen(9000)
	if err != nil {
		return err
	}
	defer l.Close()
	srvErr := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			srvErr <- err
			return
		}
		defer conn.Close()
		small := make([]byte, 64)
		for i := 0; i < pings; i++ {
			if _, err := io.ReadFull(conn, small); err != nil {
				srvErr <- err
				return
			}
			if _, err := conn.Write(small); err != nil {
				srvErr <- err
				return
			}
		}
		_, err = io.CopyN(io.Discard, conn, int64(bulkWrites)*(64<<10))
		if err == nil {
			_, err = conn.Write(small[:1]) // the bulk has arrived
		}
		srvErr <- err
	}()
	conn, err := client.Dial(context.Background(), "server:9000")
	if err != nil {
		return err
	}
	defer conn.Close()
	buf := make([]byte, 64)
	rtt := make([]int64, 0, pings)
	for i := 0; i < pings; i++ {
		t0 := time.Now()
		if _, err := conn.Write(buf); err != nil {
			return err
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			return err
		}
		rtt = append(rtt, int64(time.Since(t0)))
	}
	pl["netemu.conn_rtt_64b_us"] = value{p50us(rtt), "us"}
	big := make([]byte, 64<<10)
	t0 := time.Now()
	for i := 0; i < bulkWrites; i++ {
		if _, err := conn.Write(big); err != nil {
			return err
		}
	}
	if _, err := io.ReadFull(conn, buf[:1]); err != nil {
		return err
	}
	pl["netemu.conn_mb_per_s_64k"] = value{float64(bulkWrites*(64<<10)) / 1e6 / time.Since(t0).Seconds(), "MB/s"}
	return <-srvErr
}

// probeNetemuGroup times a 256-byte datagram from Send on one host to
// Recv on another, one in flight at a time.
func probeNetemuGroup(pl map[string]value, div int) error {
	datagrams := 20000 / div
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	tx, err := net.MustAddHost("tx").JoinGroup("probe")
	if err != nil {
		return err
	}
	defer tx.Close()
	rx, err := net.MustAddHost("rx").JoinGroup("probe")
	if err != nil {
		return err
	}
	defer rx.Close()
	base := time.Now()
	oneWay := make([]int64, 0, datagrams)
	payload := make([]byte, 256)
	for i := 0; i < datagrams; i++ {
		binary.LittleEndian.PutUint64(payload, uint64(time.Since(base)))
		if err := tx.Send(payload); err != nil {
			return err
		}
		dg, err := rx.Recv()
		if err != nil {
			return err
		}
		sent := time.Duration(binary.LittleEndian.Uint64(dg.Payload))
		oneWay = append(oneWay, int64(time.Since(base)-sent))
	}
	pl["netemu.group_oneway_us"] = value{p50us(oneWay), "us"}
	return nil
}

// probeQoS times the translation buffer: push+pop on one goroutine, and a
// producer handing items to a consumer goroutine.
func probeQoS(pl map[string]value, div int) error {
	ctx := context.Background()
	buf := qos.NewBuffer[int](1024, qos.Block)
	pl["qos.push_pop_ns"] = value{perCall(2000000/div, func(i int) {
		buf.Push(ctx, i) //nolint:errcheck // an open Block buffer with room cannot refuse
		v, _ := buf.Pop(ctx)
		sinkhole += v
	}), "ns"}
	items := 1000000 / div
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < items; i++ {
			v, _ := buf.Pop(ctx)
			sinkhole += v
		}
	}()
	t0 := time.Now()
	for i := 0; i < items; i++ {
		buf.Push(ctx, i) //nolint:errcheck // as above; a full buffer blocks
	}
	<-done
	pl["qos.handoff_ns"] = value{float64(time.Since(t0)) / float64(items), "ns"}
	buf.Close()
	return nil
}

// probeCore times matching, the match cache, profile cloning and
// Base.Deliver on lookup_mixed's own profiles and queries.
func probeCore(pl map[string]value, div int) error {
	profiles := make([]core.Profile, 600)
	for i := range profiles {
		profiles[i] = mixProfile("n1", i)
	}
	queries := lookupQueries()
	pair := func(i int) (core.Query, core.Profile) {
		return queries[i%len(queries)], profiles[(i/len(queries))%len(profiles)]
	}
	count := func(hit bool) {
		if hit {
			sinkhole++
		}
	}
	pl["core.query_match_ns"] = value{perCall(1000000/div, func(i int) { q, p := pair(i); count(q.Matches(p)) }), "ns"}
	cache := core.NewMatchCache(0)
	for i := 0; i < len(queries)*len(profiles); i++ {
		q, p := pair(i)
		cache.Matches(q, p)
	}
	pl["core.matchcache_hit_ns"] = value{perCall(1000000/div, func(i int) { q, p := pair(i); count(cache.Matches(q, p)) }), "ns"}
	pl["core.profile_clone_ns"] = value{perCall(500000/div, func(i int) {
		sinkhole += len(profiles[i%len(profiles)].Clone().Attributes)
	}), "ns"}
	sink := endpoint("n1", "probe-sink", "probe", inPort)
	sink.MustHandle("in", func(_ context.Context, msg core.Message) error { sinkhole += len(msg.Payload); return nil })
	msg := core.Message{Type: inPort.Type, Payload: probePayload}
	var derr error
	pl["core.base_deliver_ns"] = value{perCall(2000000/div, func(int) {
		if err := sink.Deliver(context.Background(), "in", msg); err != nil {
			derr = err
		}
	}), "ns"}
	return derr
}

func probeObs(pl map[string]value, div int) error {
	reg := obs.NewRegistry()
	ctr := reg.Counter("probe_total", obs.Labels{"node": "probe"})
	pl["obs.counter_add_ns"] = value{perCall(5000000/div, func(int) { ctr.Inc() }), "ns"}
	var hist obs.LogHistogram
	pl["obs.loghist_record_ns"] = value{perCall(5000000/div, func(i int) { hist.Record(int64(i)) }), "ns"}
	return nil
}

// probeMapper starts and closes a runtime a few times, then maps one UPnP
// binary light through upnpmap over the paper's 10 Mbps hub and reports
// the mapper's own discovery-to-mapped sample (Figure 10's quantity).
func probeMapper(pl map[string]value, _ int) error {
	net := netemu.NewNetwork(netemu.Ethernet10Mbps())
	defer net.Close()
	host := net.MustAddHost("rt")
	var startClose []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		rt, err := runtime.New(runtime.Config{Node: "rt", Host: host})
		if err == nil {
			err = rt.Start()
		}
		if err != nil {
			return err
		}
		if err := rt.Close(); err != nil {
			return err
		}
		startClose = append(startClose, float64(time.Since(t0))/1e6)
	}
	pl["runtime.start_close_ms"] = value{medianFloat(startClose), "ms"}

	rt, err := runtime.New(runtime.Config{Node: "rt", Host: host})
	if err == nil {
		err = rt.Start()
	}
	if err != nil {
		return err
	}
	defer rt.Close()
	rec := mapper.NewRecorder()
	if err := rt.AddMapper(upnpmap.New(host, upnpmap.Options{SearchInterval: 100 * time.Millisecond, Recorder: rec})); err != nil {
		return err
	}
	light := upnp.NewBinaryLight(net.MustAddHost("dev"), "probe-light", "Probe Light", upnp.DeviceOptions{})
	if err := light.Publish(); err != nil {
		return err
	}
	defer light.Unpublish()
	if err := waitUntil(10*time.Second, "upnpmap to map the light", func() bool { return len(rec.Samples()) > 0 }); err != nil {
		return err
	}
	pl["mapper.upnp_light_map_ms"] = value{float64(rec.Samples()[0].Duration) / 1e6, "ms"}
	return nil
}

func probeUSDL(pl map[string]value, div int) error {
	var perr error
	pl["usdl.parse_us"] = value{perCall(2000/div, func(int) {
		doc, err := usdl.ParseString(usdl.UPnPLightUSDL)
		if err != nil {
			perr = err
			return
		}
		sinkhole += len(doc.Services)
	}) / 1e3, "us"}
	return perr
}
