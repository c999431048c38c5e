// Package mapper defines the mapper abstraction: "a mapper establishes
// service-level and transport-level bridges ... It discovers a native
// device via a platform-specific discovery protocol, and imports it into
// the intermediary semantic space by instantiating the device-specific
// translator. It also contains a base-protocol support for the target
// platform" (paper Section 3.2).
//
// One mapper exists per bridged platform (UPnP, Bluetooth, RMI,
// MediaBroker, Motes, web services). Extending uMiddle to a new
// communication platform means writing a new Mapper plus a set of USDL
// documents — the paper's second extensibility dimension.
package mapper

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/usdl"
)

// Importer is the runtime-side interface mappers use to map and unmap
// translators. The uMiddle runtime implements it.
type Importer interface {
	// Node returns the hosting runtime's node name, used to mint
	// translator IDs.
	Node() string
	// USDL returns the runtime's USDL registry.
	USDL() *usdl.Registry
	// ImportTranslator maps a translator into the intermediary semantic
	// space: it is bound to the transport sink, registered with the
	// directory, and announced to peer runtimes.
	ImportTranslator(tr core.Translator) error
	// RemoveTranslator unmaps a translator (native device disappeared).
	RemoveTranslator(id core.TranslatorID) error
}

// Mapper bridges one native platform.
type Mapper interface {
	// Platform returns the platform name ("upnp", "bluetooth", ...).
	Platform() string
	// Start begins native discovery and keeps the imported translator
	// population in sync with native device presence until ctx is done
	// or Close is called.
	Start(ctx context.Context, imp Importer) error
	// Close stops discovery and tears down native protocol state.
	// Translators already imported stay mapped until removed explicitly
	// or the runtime closes.
	Close() error
}

// PanicReporter is implemented by importers that supervise their mappers.
// Guard routes recovered panics here; importers without it (test doubles)
// simply swallow the panic after recovery.
type PanicReporter interface {
	// MapperPanicked reports that a goroutine or callback belonging to
	// the named platform's mapper panicked with the recovered value.
	MapperPanicked(platform string, recovered any)
}

// Guard runs fn with panic recovery, reporting any panic to the importer
// when it supervises mappers. Mappers wrap every goroutine body and
// discovery callback in Guard so a buggy device description or protocol
// edge case degrades one platform bridge instead of crashing the node:
// the supervisor observes the panic and restarts the mapper.
func Guard(imp Importer, platform string, fn func()) {
	defer func() {
		if r := recover(); r != nil {
			if pr, ok := imp.(PanicReporter); ok {
				pr.MapperPanicked(platform, r)
			}
		}
	}()
	fn()
}

// Sample is one service-level bridging measurement: the time from
// native-platform discovery of a device to its translator being mapped
// into uMiddle. Figure 10 of the paper plots exactly these.
type Sample struct {
	// Platform is the native platform.
	Platform string
	// DeviceType is the native device type or profile.
	DeviceType string
	// Duration is discovery-to-mapped latency.
	Duration time.Duration
	// Ports is the resulting translator's port count (the paper ties
	// mapping cost to translator complexity).
	Ports int
}

// Recorder collects mapping samples; mappers record into it when
// configured, and the Figure 10 benchmark reads it back.
type Recorder struct {
	mu      sync.Mutex
	samples []Sample
}

// NewRecorder creates an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends a sample. A nil recorder discards.
func (r *Recorder) Record(s Sample) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = append(r.samples, s)
}

// Samples returns a copy of all samples.
func (r *Recorder) Samples() []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Sample, len(r.samples))
	copy(out, r.samples)
	return out
}

// Reset clears recorded samples.
func (r *Recorder) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.samples = nil
}

// RegistryOf returns the importer's metrics registry when it exposes
// one (the uMiddle runtime does, via an Obs accessor). Importers that
// don't — notably test doubles — yield nil, which every obs handle
// treats as "discard".
func RegistryOf(imp Importer) *obs.Registry {
	if p, ok := imp.(interface{ Obs() *obs.Registry }); ok {
		return p.Obs()
	}
	return nil
}

// observeMapped feeds one mapping sample into the registry's
// discovery-to-mapped latency histogram, labeled by node and platform.
// The reconciler calls this alongside Recorder.Record so the same
// measurement backs both the Figure 10 benchmark and the /metrics
// endpoint.
func observeMapped(reg *obs.Registry, node string, s Sample) {
	reg.Histogram("umiddle_mapper_map_latency_seconds",
		obs.Labels{"node": node, "platform": s.Platform}, nil).ObserveDuration(s.Duration)
}

// Summary aggregates samples per (platform, device type).
type Summary struct {
	Platform   string
	DeviceType string
	Count      int
	Mean       time.Duration
	Min        time.Duration
	Max        time.Duration
	// PerSecond is the instantiation rate implied by the mean — the
	// unit Figure 10's discussion uses ("approximately four instances
	// per second").
	PerSecond float64
}

// Summarize groups samples by platform and device type, sorted by
// platform then device type.
func Summarize(samples []Sample) []Summary {
	type key struct{ platform, deviceType string }
	groups := make(map[key][]time.Duration)
	for _, s := range samples {
		k := key{s.Platform, s.DeviceType}
		groups[k] = append(groups[k], s.Duration)
	}
	out := make([]Summary, 0, len(groups))
	for k, ds := range groups {
		sum := Summary{Platform: k.platform, DeviceType: k.deviceType, Count: len(ds)}
		var total time.Duration
		sum.Min = ds[0]
		for _, d := range ds {
			total += d
			if d < sum.Min {
				sum.Min = d
			}
			if d > sum.Max {
				sum.Max = d
			}
		}
		sum.Mean = total / time.Duration(len(ds))
		if sum.Mean > 0 {
			sum.PerSecond = float64(time.Second) / float64(sum.Mean)
		}
		out = append(out, sum)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Platform != out[j].Platform {
			return out[i].Platform < out[j].Platform
		}
		return out[i].DeviceType < out[j].DeviceType
	})
	return out
}
