package main

import (
	"time"

	"repro/internal/obs"
)

// layerDef names one per-layer metric; the layer is the module name
// before the dot. Per-layer metrics come from the traced run and are
// never gated. A metric of a layer the workload does not exercise reads 0
// on that workload (see README.md, "Per-layer metrics").
type layerDef struct {
	Name   string
	Unit   string
	Better string
}

var perLayer = []layerDef{
	{"transport.emit_call_ns", "ns", "lower"},
	{"transport.in_flight_p50_us", "us", "lower"},
	{"transport.local_ops_per_s", "1/s", "higher"},
	{"transport.local_ping_p50_us", "us", "lower"},
	{"transport.write_batch_mean", "count", "higher"},
	{"transport.frame_pool_miss_ratio", "ratio", "lower"},
	{"transport.retries", "count", "lower"},
	{"transport.redials", "count", "lower"},
	{"transport.dropped", "count", "lower"},
	{"transport.failovers", "count", "lower"},
	{"transport.ownership_violations", "count", "lower"},
	{"transport.connect_query_us", "us", "lower"},
	{"transport.first_deliver_p50_us", "us", "lower"},
	{"transport.bg_p99_us", "us", "lower"},
	{"directory.add_local_us", "us", "lower"},
	{"directory.remove_local_us", "us", "lower"},
	{"directory.propagate_p50_us", "us", "lower"},
	{"directory.lookup_hit_p50_us", "us", "lower"},
	{"directory.lookup_miss_p50_us", "us", "lower"},
	{"directory.lookup_rebuild_p50_us", "us", "lower"},
	{"directory.query_cache_hit_ratio", "ratio", "higher"},
	{"directory.advert_bytes_per_op", "B", "lower"},
	{"directory.converge_s", "s", "lower"},
	{"directory.resolve_ns", "ns", "lower"},
	{"wal.append_us", "us", "lower"},
	{"wal.replay_ms_per_10k", "ms", "lower"},
	{"wal.bytes_per_op", "B", "lower"},
	{"netemu.conn_rtt_64b_us", "us", "lower"},
	{"netemu.conn_mb_per_s_64k", "MB/s", "higher"},
	{"netemu.group_oneway_us", "us", "lower"},
	{"netemu.group_drops", "count", "lower"},
	{"qos.push_pop_ns", "ns", "lower"},
	{"qos.handoff_ns", "ns", "lower"},
	{"core.query_match_ns", "ns", "lower"},
	{"core.matchcache_hit_ns", "ns", "lower"},
	{"core.profile_clone_ns", "ns", "lower"},
	{"core.base_deliver_ns", "ns", "lower"},
	{"core.handler_p50_us", "us", "lower"},
	{"obs.counter_add_ns", "ns", "lower"},
	{"obs.loghist_record_ns", "ns", "lower"},
	{"obs.snapshot_ms", "ms", "lower"},
	{"mapper.upnp_light_map_ms", "ms", "lower"},
	{"usdl.parse_us", "us", "lower"},
	{"runtime.start_close_ms", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.bg_gen_late_p99_us", "us", "lower"},
	{"bench.gc_cycles", "count", "lower"},
	{"bench.trace_ops", "count", "higher"},
}

// layerCounters is the slice of uMiddle's own exported counters the
// benchmark attributes to layers: read through Obs().Snapshot() and
// PersistStats(), summed over a world's nodes.
type layerCounters struct {
	retries, redials, dropped, failovers, violations float64
	poolGets, poolMisses                             float64
	batchSum, batchCount                             float64
	cacheHits, cacheMisses                           float64
	advertBytes, walBytes                            float64
	snapshotMs                                       float64 // time the snapshots themselves took
}

func readLayerCounters(regs ...*obs.Registry) layerCounters {
	var c layerCounters
	t0 := time.Now()
	for _, reg := range regs {
		snap := reg.Snapshot()
		for _, s := range snap.Counters {
			v := float64(s.Value)
			switch s.Name {
			case "umiddle_transport_path_retries_total":
				c.retries += v
			case "umiddle_transport_path_redials_total":
				c.redials += v
			case "umiddle_transport_path_dropped_total":
				c.dropped += v
			case "umiddle_transport_failovers_total":
				c.failovers += v
			case "umiddle_transport_ownership_violations_total":
				c.violations += v
			case "umiddle_transport_frame_pool_gets_total":
				c.poolGets += v
			case "umiddle_transport_frame_pool_misses_total":
				c.poolMisses += v
			case "umiddle_directory_query_cache_hits_total":
				c.cacheHits += v
			case "umiddle_directory_query_cache_misses_total":
				c.cacheMisses += v
			case "umiddle_directory_advert_bytes_total":
				c.advertBytes += v
			}
		}
		for _, h := range snap.Histograms {
			if h.Name == "umiddle_transport_write_batch_frames" {
				c.batchSum += h.Sum
				c.batchCount += float64(h.Count)
			}
		}
	}
	c.snapshotMs = float64(time.Since(t0)) / 1e6
	return c
}

func (c layerCounters) since(b layerCounters) layerCounters {
	return layerCounters{
		retries: c.retries - b.retries, redials: c.redials - b.redials, dropped: c.dropped - b.dropped,
		failovers: c.failovers - b.failovers, violations: c.violations - b.violations,
		poolGets: c.poolGets - b.poolGets, poolMisses: c.poolMisses - b.poolMisses,
		batchSum: c.batchSum - b.batchSum, batchCount: c.batchCount - b.batchCount,
		cacheHits: c.cacheHits - b.cacheHits, cacheMisses: c.cacheMisses - b.cacheMisses,
		advertBytes: c.advertBytes - b.advertBytes, walBytes: c.walBytes - b.walBytes,
		snapshotMs: c.snapshotMs,
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// into reports the counter deltas every workload shares.
func (c layerCounters) into(pl map[string]value) {
	pl["transport.retries"] = value{c.retries, "count"}
	pl["transport.redials"] = value{c.redials, "count"}
	pl["transport.dropped"] = value{c.dropped, "count"}
	pl["transport.failovers"] = value{c.failovers, "count"}
	pl["transport.ownership_violations"] = value{c.violations, "count"}
	pl["transport.write_batch_mean"] = value{ratio(c.batchSum, c.batchCount), "count"}
	pl["transport.frame_pool_miss_ratio"] = value{ratio(c.poolMisses, c.poolGets), "ratio"}
	pl["directory.query_cache_hit_ratio"] = value{ratio(c.cacheHits, c.cacheHits+c.cacheMisses), "ratio"}
	pl["obs.snapshot_ms"] = value{c.snapshotMs, "ms"}
}

func (w *streamWorld) counters() layerCounters {
	return readLayerCounters(w.a.mod.Obs(), w.b.mod.Obs(), w.a.dir.Obs(), w.b.dir.Obs())
}

func (w *churnWorld) counters() layerCounters {
	c := readLayerCounters(w.a.mod.Obs(), w.b.mod.Obs(), w.a.dir.Obs(), w.b.dir.Obs())
	for _, n := range []*node{w.a, w.b} {
		if st, ok := n.dir.PersistStats(); ok {
			c.walBytes += float64(st.AppendedBytes)
		}
	}
	return c
}

func (w *lookupWorld) counters() layerCounters {
	return readLayerCounters(w.dirs[0].Obs(), w.dirs[1].Obs(), w.dirs[2].Obs())
}
