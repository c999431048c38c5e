// Package load is the open-loop load harness: it stands up a netemu
// mesh populated with N concurrent dynamic bindings (one source
// translator, one sink translator, and one ConnectQuery path each),
// offers traffic at a target rate with a Poisson or fixed-interval
// arrival process, and reports coordinated-omission-safe latency
// quantiles plus achieved-vs-offered throughput.
//
// Open loop means the arrival schedule is fixed before the system's
// behavior is observed: every message carries its *intended* start time
// and latency is measured intended-start → delivery at the sink. A
// closed-loop generator (emit, wait, emit) silently re-anchors the
// clock whenever the system stalls, hiding exactly the tail the SLO is
// about — the coordinated omission problem. Here a stall simply makes
// the next arrivals late, and their recorded latency grows by the
// backlog, as it would for real independent clients.
package load

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
	"repro/internal/obs"
	"repro/internal/qos"
	"repro/internal/transport"
)

// Arrival selects the inter-arrival process of the open-loop schedule.
type Arrival string

const (
	// Poisson draws exponential inter-arrival gaps (memoryless, the
	// default — bursty the way independent clients are).
	Poisson Arrival = "poisson"
	// Uniform spaces arrivals at exactly 1/rate (fixed interval).
	Uniform Arrival = "uniform"
)

// Config parameterizes one harness run.
type Config struct {
	// Bindings is the number of concurrent dynamic bindings (source
	// translator + sink translator + ConnectQuery path). Required.
	Bindings int
	// Rate is the total offered message rate across all bindings,
	// messages per second. Default 1000.
	Rate float64
	// Duration is the emission window. Default 5s.
	Duration time.Duration
	// Arrival is the inter-arrival process. Default Poisson.
	Arrival Arrival
	// PayloadBytes sizes each message payload. Default 64.
	PayloadBytes int
	// Workers is the number of emitter goroutines, each carrying
	// Rate/Workers of the schedule. Default 4.
	Workers int
	// Pairs spreads the bindings over this many (source-host,
	// sink-host) netemu pairs. Default 1 (two hosts).
	Pairs int
	// ChurnPerSec injects device churn: this many sink flaps per second
	// (RemoveLocal, a down window, AddLocal) while traffic flows.
	// Default 0 (no churn).
	ChurnPerSec float64
	// ChurnDownFor is how long a flapped device stays unregistered.
	// Default 100ms.
	ChurnDownFor time.Duration
	// WriteShards overrides the per-peer striped write connection count
	// (0 = transport default: GOMAXPROCS capped at 16).
	WriteShards int
	// Seed fixes the arrival schedule and churn choices. Default 1.
	Seed int64
	// DrainTimeout bounds the post-emission wait for in-flight
	// deliveries. Default 30s.
	DrainTimeout time.Duration
	// SetupTimeout bounds directory population and propagation.
	// Default 120s.
	SetupTimeout time.Duration
	// Obs receives the harness's own metrics (the netemu group-drop
	// counter). Nil allocates a private registry.
	Obs *obs.Registry
	// Logf receives progress lines; nil disables them.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Rate <= 0 {
		c.Rate = 1000
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.Arrival == "" {
		c.Arrival = Poisson
	}
	if c.PayloadBytes <= 0 {
		c.PayloadBytes = 64
	}
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Pairs <= 0 {
		c.Pairs = 1
	}
	if c.ChurnDownFor <= 0 {
		c.ChurnDownFor = 100 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.SetupTimeout <= 0 {
		c.SetupTimeout = 120 * time.Second
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// LatencyMs is the SLO quantile set, in milliseconds, of
// intended-start → delivery latency.
type LatencyMs struct {
	P50  float64 `json:"p50_ms"`
	P99  float64 `json:"p99_ms"`
	P999 float64 `json:"p999_ms"`
	Max  float64 `json:"max_ms"`
	Mean float64 `json:"mean_ms"`
}

// Report is one run's SLO summary.
type Report struct {
	Bindings       int       `json:"bindings"`
	Pairs          int       `json:"pairs"`
	Arrival        Arrival   `json:"arrival"`
	OfferedPerSec  float64   `json:"offered_per_sec"`
	AchievedPerSec float64   `json:"achieved_per_sec"`
	DurationSec    float64   `json:"duration_sec"`
	SetupSec       float64   `json:"setup_sec"`
	Sent           uint64    `json:"sent"`
	Delivered      uint64    `json:"delivered"`
	Dropped        uint64    `json:"dropped"`
	ChurnFlaps     uint64    `json:"churn_flaps"`
	GroupDrops     uint64    `json:"netemu_group_drops"`
	Latency        LatencyMs `json:"latency"`
}

// binding is one concurrent dynamic binding: a source port wired by a
// unique device-type query to a sink translator.
type binding struct {
	src    *core.Base
	sink   *core.Base
	sinkOn *directory.Directory // the sink's home directory (churn target)
}

// Run executes one open-loop load run and returns its SLO report.
// It returns an error — with the report still populated — when the
// run's numbers cannot be trusted: a netemu group inbox overflowed
// (dropped adverts skew the binding population and the latency tail)
// or setup did not converge.
func Run(cfg Config) (Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Bindings <= 0 {
		return Report{}, fmt.Errorf("load: Config.Bindings must be positive")
	}
	setupStart := time.Now()
	cfg.Obs.Describe("umiddle_netemu_group_drops_total",
		"Messages dropped by netemu group inboxes during the run (overflow).")
	groupDropCtr := cfg.Obs.Counter("umiddle_netemu_group_drops_total", nil)

	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()

	hist := &obs.LogHistogram{}
	var delivered atomic.Uint64
	var lastDelivery atomic.Int64 // UnixNano of the most recent delivery

	// Stand up the host pairs.
	type pairNode struct {
		dir *directory.Directory
		mod *transport.Module
	}
	mkNode := func(name string) (*pairNode, error) {
		host := net.MustAddHost(name)
		dir := directory.New(name, host, directory.Options{})
		if err := dir.Start(); err != nil {
			return nil, fmt.Errorf("load: directory %s: %w", name, err)
		}
		retry := qos.RetryPolicy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: 200 * time.Millisecond, Multiplier: 2}
		mod := transport.New(name, host, dir, transport.Options{
			WriteShards:        cfg.WriteShards,
			DisablePathMetrics: true, // 8 series per path is untenable at 100k+ paths
			DeliverTimeout:     5 * time.Second,
			DialTimeout:        2 * time.Second,
			Retry:              retry,
			Redial:             retry,
		})
		if err := mod.Start(); err != nil {
			dir.Close()
			return nil, fmt.Errorf("load: transport %s: %w", name, err)
		}
		return &pairNode{dir: dir, mod: mod}, nil
	}
	srcNodes := make([]*pairNode, cfg.Pairs)
	snkNodes := make([]*pairNode, cfg.Pairs)
	for p := 0; p < cfg.Pairs; p++ {
		var err error
		if srcNodes[p], err = mkNode(fmt.Sprintf("src%d", p)); err != nil {
			return Report{}, err
		}
		if snkNodes[p], err = mkNode(fmt.Sprintf("snk%d", p)); err != nil {
			return Report{}, err
		}
	}
	defer func() {
		for p := 0; p < cfg.Pairs; p++ {
			if srcNodes[p] != nil {
				srcNodes[p].mod.Close()
				srcNodes[p].dir.Close()
			}
			if snkNodes[p] != nil {
				snkNodes[p].mod.Close()
				snkNodes[p].dir.Close()
			}
		}
	}()

	// Register every sink first: at this point no dynamic paths exist
	// anywhere, so the resulting advert storm costs one cheap batched
	// listener pass per advert that finds nothing to bind.
	cfg.Logf("load: registering %d sinks across %d pair(s)", cfg.Bindings, cfg.Pairs)
	bindings := make([]binding, cfg.Bindings)
	for i := range bindings {
		p := i % cfg.Pairs
		node := fmt.Sprintf("snk%d", p)
		sink := core.MustBase(core.Profile{
			ID:         core.MakeTranslatorID(node, "umiddle", fmt.Sprintf("sink-%d", i)),
			Name:       fmt.Sprintf("sink-%d", i),
			Platform:   "umiddle",
			DeviceType: devType(i),
			Node:       node,
			Shape: core.MustShape(
				core.Port{Name: "in", Kind: core.Digital, Direction: core.Input, Type: "application/octet-stream"},
			),
		})
		sink.MustHandle("in", func(_ context.Context, msg core.Message) error {
			// Coordinated-omission-safe: msg.Time is the intended start
			// stamped by the scheduler, not the moment Emit ran.
			hist.RecordDuration(time.Since(msg.Time))
			delivered.Add(1)
			lastDelivery.Store(time.Now().UnixNano())
			return nil
		})
		sink.Bind(snkNodes[p].mod)
		if err := snkNodes[p].dir.AddLocal(sink); err != nil {
			return Report{}, fmt.Errorf("load: add sink %d: %w", i, err)
		}
		bindings[i].sink = sink
		bindings[i].sinkOn = snkNodes[p].dir
	}

	// Wait until every source node's directory holds the full sink
	// population (all hosts share the advert bus, so remote size
	// reaching the sink count means the queries below will all hit).
	deadline := time.Now().Add(cfg.SetupTimeout)
	for p := 0; p < cfg.Pairs; p++ {
		for {
			_, remote := srcNodes[p].dir.Size()
			if remote >= cfg.Bindings {
				break
			}
			if time.Now().After(deadline) {
				return Report{}, fmt.Errorf("load: setup timeout: src%d sees %d/%d sinks", p, remote, cfg.Bindings)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}

	// Register every source before installing any path: each
	// ConnectQuery reads the directory, and a read after a mutation
	// republishes its view, rebuilding the sorted base once more than √n
	// IDs were touched. Registering and connecting interleaved, 20000
	// bindings took 14.3 s to set up against 0.9 s in this order (2-core
	// VM, go1.24.0).
	cfg.Logf("load: registering %d sources", cfg.Bindings)
	for i := range bindings {
		p := i % cfg.Pairs
		node := fmt.Sprintf("src%d", p)
		src := core.MustBase(core.Profile{
			ID:       core.MakeTranslatorID(node, "umiddle", fmt.Sprintf("src-%d", i)),
			Name:     fmt.Sprintf("src-%d", i),
			Platform: "umiddle",
			Node:     node,
			Shape: core.MustShape(
				core.Port{Name: "out", Kind: core.Digital, Direction: core.Output, Type: "application/octet-stream"},
			),
		})
		src.Bind(srcNodes[p].mod)
		if err := srcNodes[p].dir.AddLocal(src); err != nil {
			return Report{}, fmt.Errorf("load: add source %d: %w", i, err)
		}
		bindings[i].src = src
	}

	// One dynamic path per binding. The unique device type per binding
	// keeps every ConnectQuery lookup on the indexed O(1) path.
	cfg.Logf("load: installing %d dynamic bindings", cfg.Bindings)
	for i := range bindings {
		p := i % cfg.Pairs
		ref := core.PortRef{Translator: bindings[i].src.Profile().ID, Port: "out"}
		if _, err := srcNodes[p].mod.ConnectQuery(ref, core.Query{DeviceType: devType(i)}); err != nil {
			return Report{}, fmt.Errorf("load: connect binding %d: %w", i, err)
		}
		if i%4096 == 0 && time.Now().After(deadline) {
			return Report{}, fmt.Errorf("load: setup timeout installing binding %d/%d", i, cfg.Bindings)
		}
	}
	setupDur := time.Since(setupStart)
	cfg.Logf("load: setup complete in %.1fs; offering %.0f msg/s for %s (%s arrivals)",
		setupDur.Seconds(), cfg.Rate, cfg.Duration, cfg.Arrival)

	// Churn: flap random sinks while traffic flows. Each flap unmaps
	// the device (paths fail over to nothing and spend their retry
	// budget) and re-registers it after the down window.
	var flaps atomic.Uint64
	churnStop := make(chan struct{})
	var churnWG sync.WaitGroup
	if cfg.ChurnPerSec > 0 {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
			interval := time.Duration(float64(time.Second) / cfg.ChurnPerSec)
			for {
				select {
				case <-churnStop:
					return
				case <-time.After(interval):
				}
				b := bindings[rng.Intn(len(bindings))]
				id := b.sink.Profile().ID
				if _, err := b.sinkOn.RemoveLocal(id); err != nil {
					continue
				}
				flaps.Add(1)
				select {
				case <-churnStop:
					// Run teardown expects the device back.
				case <-time.After(cfg.ChurnDownFor):
				}
				b.sinkOn.AddLocal(b.sink) //nolint:errcheck
			}
		}()
	}

	// Open-loop emission: each worker owns a fixed slice of the
	// schedule (rate/Workers) and a fixed partition of the bindings.
	// The intended start of arrival k is start + sum of drawn gaps —
	// never re-anchored to "now", so a slow system makes messages late
	// rather than making the schedule lie.
	var sent atomic.Uint64
	start := time.Now()
	end := start.Add(cfg.Duration)
	var emitWG sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		emitWG.Add(1)
		go func(w int) {
			defer emitWG.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
			rate := cfg.Rate / float64(cfg.Workers)
			next := start
			for k := w; ; k += cfg.Workers {
				switch cfg.Arrival {
				case Uniform:
					next = next.Add(time.Duration(float64(time.Second) / rate))
				default: // Poisson
					next = next.Add(time.Duration(rng.ExpFloat64() * float64(time.Second) / rate))
				}
				if next.After(end) {
					return
				}
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				b := bindings[k%len(bindings)]
				payload := make([]byte, cfg.PayloadBytes)
				msg := core.Message{Type: "application/octet-stream", Payload: payload, Time: next}
				b.src.Emit("out", msg)
				sent.Add(1)
			}
		}(w)
	}
	emitWG.Wait()
	close(churnStop)
	churnWG.Wait()

	// Drain: deliveries stop either when everything sent has arrived or
	// when the count has been quiet for a full second (churned-down
	// bindings legitimately drop their traffic).
	drainDeadline := time.Now().Add(cfg.DrainTimeout)
	for {
		d := delivered.Load()
		if d >= sent.Load() {
			break
		}
		last := time.Unix(0, lastDelivery.Load())
		if delivered.Load() > 0 && time.Since(last) > time.Second {
			break
		}
		if time.Now().After(drainDeadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Assemble the report. Achieved rate is measured over the window
	// from first intended arrival to last observed delivery.
	snap := hist.Snapshot()
	elapsed := cfg.Duration
	if last := time.Unix(0, lastDelivery.Load()); last.After(start.Add(elapsed)) {
		elapsed = last.Sub(start)
	}
	gd := net.GroupDrops()
	groupDropCtr.Add(gd)
	rep := Report{
		Bindings:       cfg.Bindings,
		Pairs:          cfg.Pairs,
		Arrival:        cfg.Arrival,
		OfferedPerSec:  cfg.Rate,
		AchievedPerSec: float64(delivered.Load()) / elapsed.Seconds(),
		DurationSec:    cfg.Duration.Seconds(),
		SetupSec:       setupDur.Seconds(),
		Sent:           sent.Load(),
		Delivered:      delivered.Load(),
		Dropped:        sent.Load() - delivered.Load(),
		ChurnFlaps:     flaps.Load(),
		GroupDrops:     gd,
		Latency: LatencyMs{
			P50:  ms(snap.P50),
			P99:  ms(snap.P99),
			P999: ms(snap.P999),
			Max:  ms(snap.Max),
			Mean: snap.Mean / float64(time.Millisecond),
		},
	}
	if gd > 0 {
		// Loud failure: a full group inbox silently ate adverts or
		// frames, so the binding population and the latency tail are
		// both suspect. Refuse to bless the numbers.
		return rep, fmt.Errorf("load: netemu group inboxes dropped %d messages; run invalid (raise inbox depth or lower advert pressure)", gd)
	}
	return rep, nil
}

// devType is the unique per-binding device type the dynamic query keys
// on — unique so every lookup stays on the directory's indexed path.
func devType(i int) string { return fmt.Sprintf("load-sink-%d", i) }

func ms(v int64) float64 { return float64(v) / float64(time.Millisecond) }
