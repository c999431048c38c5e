package bench

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/directory"
	"repro/internal/netemu"
	"repro/internal/qos"
	"repro/umiddle"
)

// RestartRow is the restart chaos experiment: a node holding a large
// replicated directory restarts — once cold (empty durability log, full
// rediscovery over the paper's 10 Mbps Ethernet) and once warm (replaying
// the log written by its previous incarnation) — while a driver node
// keeps a bound path under load. In between, hot-reload config documents
// are applied to both ends of the live path, which must not drop a
// single message.
type RestartRow struct {
	// Test labels the row ("restart N=100000").
	Test string
	// Entries is the remote population the restarting node carries.
	Entries int
	// PeerNodes is how many peer directories share the population.
	PeerNodes int
	// ColdJoinMillis is empty-log start to full population integration
	// and first delivery on the bound path — the rediscovery cost a
	// restart without durable state pays.
	ColdJoinMillis float64
	// RestartToFirstDeliveryMillis is the planned-restart downtime:
	// CloseForRestart (snapshot + farewell) through host crash, log
	// replay, and re-registration, to the first message landing on the
	// re-claimed translator.
	RestartToFirstDeliveryMillis float64
	// WarmColdRatio is restart time over cold-join time; the tentpole
	// claim is that it stays well under 0.10.
	WarmColdRatio float64
	// ReplayedRemotes and ReplayedLocals count what the warm restart
	// recovered from the log instead of the network.
	ReplayedRemotes int
	ReplayedLocals  int
	// RestartEpoch is the directory epoch after the warm restart (one
	// per replay; 2 means exactly one restart of a fresh log).
	RestartEpoch uint64
	// ConfigApplies is how many hot-reload documents were applied while
	// the path carried traffic.
	ConfigApplies int
	// ConfigApplySent and ConfigApplyDelivered count the messages
	// offered and delivered during the hot-reload window.
	ConfigApplySent      int
	ConfigApplyDelivered int
	// ConfigApplyDroppedMsgs is Sent minus Delivered after the drain —
	// the gate holds it at zero.
	ConfigApplyDroppedMsgs float64
}

const (
	// restartPeers is how many peer nodes share the population.
	restartPeers = 4
	// restartAnnounce is the announce cadence: the production default,
	// not a test-fast value, so the cold join pays realistic detection
	// and sync-scheduling rounds.
	restartAnnounce = 500 * time.Millisecond
	// restartExpiryFactor stretches liveness leases the way the mesh
	// benchmark does at scale: multi-megabyte sync transfers over the
	// 10 Mbps bus take whole seconds, and a production federation at
	// this population would tune leases up rather than flap.
	restartExpiryFactor = 40
	// restartEmitEvery paces the driver's delivery probes.
	restartEmitEvery = 10 * time.Millisecond
	// restartConfigMsgs / restartConfigEvery shape the hot-reload
	// window: one message every 5ms with a config document applied
	// every 60 messages.
	restartConfigMsgs  = 400
	restartConfigEvery = 5 * time.Millisecond
)

// restartSinkID is fixed (not salted like NewService names) so the
// restarted incarnation re-claims the warm directory entry.
func restartSinkID() core.TranslatorID {
	return core.MakeTranslatorID("p0", "umiddle", "sink")
}

func newRestartSink(got *atomic.Int64) *core.Base {
	base := core.MustBase(core.Profile{
		ID:       restartSinkID(),
		Name:     "sink",
		Platform: "umiddle",
		Node:     "p0",
		Shape: core.MustShape(
			core.Port{Name: "in", Kind: core.Digital, Direction: core.Input, Type: "text/plain"},
		),
	})
	base.MustHandle("in", func(_ context.Context, _ core.Message) error {
		got.Add(1)
		return nil
	})
	return base
}

// restartConfigDocs are the hot-reload documents cycled during the
// loaded window: retry/redial swaps on the sending node, boundary rule
// swaps (a ghost-node mount and an ACL for a node that never appears)
// on the receiving node, then a clearing document. None touches the
// live path's namespace — the point is that swapping config around a
// bound path leaves it untouched.
var restartConfigDocs = []struct {
	target string // "drv" or "p0"
	doc    string
}{
	{"drv", `{"retry":{"maxAttempts":12,"baseDelayMillis":20,"maxDelayMillis":200},"redial":{"maxAttempts":24,"baseDelayMillis":20,"maxDelayMillis":150}}`},
	{"p0", `{"boundary":{"remap":[{"node":"ghost-node","mount":"annex"}],"acl":[{"action":"deny","node":"intruder"}]}}`},
	{"drv", `{"retry":{"maxAttempts":10,"baseDelayMillis":25,"maxDelayMillis":250,"multiplier":1.5}}`},
	{"p0", `{"boundary":{"acl":[{"action":"deny","idPrefix":"intruder/"}]}}`},
	{"drv", `{"redial":{"maxAttempts":24,"baseDelayMillis":20,"maxDelayMillis":120}}`},
	{"p0", `{"boundary":{}}`},
}

// RunRestart measures one population point of the restart experiment.
func RunRestart(entries int, logf func(string, ...any)) (RestartRow, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if entries < 2*restartPeers {
		entries = 2 * restartPeers
	}
	row := RestartRow{
		Test:      fmt.Sprintf("restart N=%d", entries),
		Entries:   entries,
		PeerNodes: restartPeers,
	}

	// The paper's shared 10 Mbps Ethernet: rediscovery must ship the
	// whole population over it, which is exactly the cost a durable log
	// avoids.
	net := netemu.NewNetwork(netemu.Ethernet10Mbps())
	defer net.Close()

	convergeTimeout := 120*time.Second + time.Duration(entries/500)*time.Second

	// Peer nodes carry the population the protagonist must (re)learn.
	dirs := make([]*directory.Directory, restartPeers)
	for i := range dirs {
		name := fmt.Sprintf("n%d", i+1)
		host, err := net.AddHost(name)
		if err != nil {
			return row, err
		}
		dirs[i] = directory.New(name, host, directory.Options{
			AnnounceInterval: restartAnnounce,
			Lease:            qos.LeasePolicy{ExpiryFactor: restartExpiryFactor},
		})
		if err := dirs[i].Start(); err != nil {
			return row, err
		}
		defer dirs[i].Close()
	}
	per := entries / restartPeers
	idx := 0
	for i, d := range dirs {
		n := per
		if i == 0 {
			n += entries - per*restartPeers
		}
		for j := 0; j < n; j++ {
			if err := d.AddLocal(core.MustBase(dirScaleProfile(d.Node(), idx))); err != nil {
				return row, err
			}
			idx++
		}
	}
	if err := waitCond(convergeTimeout, func() bool {
		for _, d := range dirs {
			if l, r := d.Size(); l+r != entries {
				return false
			}
		}
		return true
	}); err != nil {
		return row, fmt.Errorf("peer population %d did not converge: %w", entries, err)
	}
	logf("restart N=%d: %d peers converged", entries, restartPeers)

	// The driver holds the other end of the bound path. Generous retry
	// and redial budgets: its probes must survive the restart window,
	// not measure it away as drops.
	drv, err := umiddle.NewRuntime(umiddle.RuntimeConfig{
		Node:             "drv",
		Network:          net,
		AnnounceInterval: restartAnnounce,
		Lease:            umiddle.LeasePolicy{ExpiryFactor: restartExpiryFactor},
		Transport: umiddle.TransportOptions{
			Retry:  umiddle.RetryPolicy{MaxAttempts: 12, BaseDelay: 20 * time.Millisecond, MaxDelay: 200 * time.Millisecond},
			Redial: umiddle.RetryPolicy{MaxAttempts: 24, BaseDelay: 20 * time.Millisecond, MaxDelay: 150 * time.Millisecond},
		},
	})
	if err != nil {
		return row, err
	}
	defer drv.Close()
	producer, err := drv.NewService("producer", core.MustShape(
		core.Port{Name: "out", Kind: core.Digital, Direction: core.Output, Type: "text/plain"},
	), nil)
	if err != nil {
		return row, err
	}
	if err := waitCond(convergeTimeout, func() bool {
		_, r := drv.Internal().Directory().Size()
		return r >= entries
	}); err != nil {
		return row, fmt.Errorf("driver did not integrate the population: %w", err)
	}

	// Cold join: the protagonist starts with an empty durability log and
	// pays full rediscovery — detection rounds, per-zone sync transfers
	// over the shared bus, integration — before it is operational (full
	// population plus first delivery on a freshly bound path).
	p0cfg := umiddle.RuntimeConfig{
		Node:             "p0",
		Network:          net,
		AnnounceInterval: restartAnnounce,
		PersistPath:      "dir.wal",
		Lease:            umiddle.LeasePolicy{ExpiryFactor: restartExpiryFactor},
	}
	var got atomic.Int64
	coldStart := time.Now()
	p0, err := umiddle.NewRuntime(p0cfg)
	if err != nil {
		return row, err
	}
	if err := p0.Register(newRestartSink(&got)); err != nil {
		p0.Close()
		return row, err
	}
	if _, err := drv.WaitFor(umiddle.Query{Node: "p0"}, 1, convergeTimeout); err != nil {
		p0.Close()
		return row, fmt.Errorf("driver never saw the sink: %w", err)
	}
	if _, err := drv.Connect(producer.Port("out"), umiddle.PortRef{Translator: restartSinkID(), Port: "in"}); err != nil {
		p0.Close()
		return row, err
	}
	for got.Load() == 0 {
		producer.Emit("out", umiddle.NewMessage("text/plain", []byte("probe")))
		time.Sleep(restartEmitEvery)
	}
	if err := waitCond(convergeTimeout, func() bool {
		_, r := p0.Internal().Directory().Size()
		return r >= entries
	}); err != nil {
		p0.Close()
		return row, fmt.Errorf("cold join did not converge: %w", err)
	}
	coldJoin := time.Since(coldStart)
	row.ColdJoinMillis = float64(coldJoin) / float64(time.Millisecond)
	logf("restart N=%d: cold join %.0fms", entries, row.ColdJoinMillis)

	// Settle: the emit-until-first-delivery loop above fires probes faster
	// than the convergence wait consumes them, and at-least-once retries
	// can duplicate — let the counter go quiet before opening the
	// accounting window, or cold-phase stragglers land inside it and
	// Delivered overshoots Sent.
	settled := got.Load()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); {
		time.Sleep(1 * time.Second)
		if v := got.Load(); v == settled {
			break
		} else {
			settled = v
		}
	}

	// Hot-reload window: steady traffic on the bound path while config
	// documents swap retry policies on the sender and boundary rules on
	// the receiver. Every offered message must land.
	preGot := got.Load()
	applies := 0
	for i := 0; i < restartConfigMsgs; i++ {
		if i%(restartConfigMsgs/len(restartConfigDocs)) == 0 && applies < len(restartConfigDocs) {
			d := restartConfigDocs[applies]
			hc, err := umiddle.ParseHotConfig([]byte(d.doc))
			if err != nil {
				p0.Close()
				return row, fmt.Errorf("config doc %d: %w", applies, err)
			}
			target := drv
			if d.target == "p0" {
				target = p0
			}
			if err := target.ApplyConfig(hc); err != nil {
				p0.Close()
				return row, fmt.Errorf("apply config doc %d to %s: %w", applies, d.target, err)
			}
			applies++
		}
		producer.Emit("out", umiddle.NewMessage("text/plain", []byte("cfg-window")))
		time.Sleep(restartConfigEvery)
	}
	// Drain: retries may still be in flight.
	waitCond(30*time.Second, func() bool {
		return got.Load() >= preGot+restartConfigMsgs
	})
	row.ConfigApplies = applies
	row.ConfigApplySent = restartConfigMsgs
	row.ConfigApplyDelivered = int(got.Load() - preGot)
	// At-least-once duplicates can push Delivered past Sent; the gated
	// metric is drops, so it clamps at zero instead of going negative.
	row.ConfigApplyDroppedMsgs = float64(row.ConfigApplySent - row.ConfigApplyDelivered)
	if row.ConfigApplyDroppedMsgs < 0 {
		row.ConfigApplyDroppedMsgs = 0
	}
	logf("restart N=%d: %d config applies, %d/%d delivered", entries,
		applies, row.ConfigApplyDelivered, row.ConfigApplySent)

	// Warm restart: the driver keeps probing throughout. The clock runs
	// from the farewell (snapshot included — it is part of a planned
	// restart) through host crash, log replay, and re-registration, to
	// the first probe landing on the re-claimed translator.
	stopProbe := make(chan struct{})
	probeDone := make(chan struct{})
	go func() {
		defer close(probeDone)
		for {
			select {
			case <-stopProbe:
				return
			default:
			}
			producer.Emit("out", umiddle.NewMessage("text/plain", []byte("probe")))
			time.Sleep(restartEmitEvery)
		}
	}()
	defer func() { close(stopProbe); <-probeDone }()

	restartStart := time.Now()
	if err := p0.CloseForRestart(); err != nil {
		return row, err
	}
	logf("restart N=%d: farewell+snapshot %v", entries, time.Since(restartStart).Round(time.Millisecond))
	if _, err := net.CrashNode("p0"); err != nil {
		return row, err
	}
	baseline := got.Load()
	p0b, err := umiddle.NewRuntime(p0cfg)
	if err != nil {
		return row, fmt.Errorf("warm restart: %w", err)
	}
	defer p0b.Close()
	logf("restart N=%d: replayed runtime up at %v", entries, time.Since(restartStart).Round(time.Millisecond))
	if err := p0b.Register(newRestartSink(&got)); err != nil {
		return row, err
	}
	if err := waitCond(120*time.Second, func() bool {
		return got.Load() > baseline
	}); err != nil {
		return row, fmt.Errorf("no delivery after warm restart: %w", err)
	}
	restartTime := time.Since(restartStart)
	row.RestartToFirstDeliveryMillis = float64(restartTime) / float64(time.Millisecond)
	row.WarmColdRatio = row.RestartToFirstDeliveryMillis / row.ColdJoinMillis

	rep := p0b.ReplayedState()
	row.ReplayedRemotes = rep.Remotes
	row.ReplayedLocals = rep.Locals
	row.RestartEpoch = p0b.RestartEpoch()
	if row.RestartEpoch != 2 {
		return row, fmt.Errorf("restart epoch = %d, want 2", row.RestartEpoch)
	}
	if rep.Remotes < entries {
		return row, fmt.Errorf("warm restart replayed %d of %d remotes — log missed the population", rep.Remotes, entries)
	}
	if drops := net.GroupDrops(); drops > 0 {
		logf("restart N=%d: %d group datagrams dropped network-wide", entries, drops)
	}
	logf("restart N=%d: warm restart %.0fms (%.1f%% of cold join), replayed %d remotes",
		entries, row.RestartToFirstDeliveryMillis, 100*row.WarmColdRatio, rep.Remotes)
	return row, nil
}
