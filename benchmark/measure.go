package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
)

// counters is a snapshot of the process-wide costs a window is charged
// with: wall clock, user+sys CPU, and the allocator's running totals.
type counters struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	numGC   uint32
}

// readCounters stops the world once (ReadMemStats); call it only at the
// edges of a window, never inside one.
func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		wall:    time.Now(),
		cpu:     processCPU(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		numGC:   ms.NumGC,
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// windowCost is the difference of two counter snapshots.
type windowCost struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func (c counters) since(start counters) windowCost {
	return windowCost{
		wall:    c.wall.Sub(start.wall),
		cpu:     c.cpu - start.cpu,
		mallocs: c.mallocs - start.mallocs,
		bytes:   c.bytes - start.bytes,
		gcs:     c.numGC - start.numGC,
	}
}

// windowSlices is how many equal parts a measured window is cut into.
// The four rate metrics are the median over the parts, so interference
// from outside the process (the box is a shared VM) moves them only when
// it lasts for most of the window.
const windowSlices = 5

// slice is one part of a measured window: the ops it completed and what
// the process spent meanwhile.
type slice struct {
	ops  int64
	cost windowCost
}

// medianOver is the median over the parts of a per-part quantity.
func medianOver(parts []slice, f func(slice) float64) float64 {
	vals := make([]float64, len(parts))
	for i, p := range parts {
		vals[i] = f(p)
	}
	return medianFloat(vals)
}

// opsPerSec is completed ops per second of wall time.
func opsPerSec(parts []slice) float64 {
	return medianOver(parts, func(p slice) float64 { return float64(p.ops) / p.cost.wall.Seconds() })
}

// rateMetrics fills the four metrics every workload takes from its
// ops_per_s window. A part in which every op failed has no rate.
func rateMetrics(parts []slice, into map[string]value) {
	parts = slices.DeleteFunc(slices.Clone(parts), func(p slice) bool { return p.ops == 0 })
	if len(parts) == 0 {
		return
	}
	into["ops_per_s"] = value{opsPerSec(parts), "1/s"}
	into["cpu_us_per_op"] = value{medianOver(parts, func(p slice) float64 { return float64(p.cost.cpu) / 1e3 / float64(p.ops) }), "us"}
	into["allocs_per_op"] = value{medianOver(parts, func(p slice) float64 { return float64(p.cost.mallocs) / float64(p.ops) }), "count"}
	into["alloc_bytes_per_op"] = value{medianOver(parts, func(p slice) float64 { return float64(p.cost.bytes) / float64(p.ops) }), "B"}
}

// liveMiB is the retained footprint after set-up: heap in use plus
// goroutine stacks, after two collections so that sync.Pool victims and
// finalizer-held objects of the set-up phase are gone.
func liveMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc+ms.StackInuse) / (1 << 20)
}
