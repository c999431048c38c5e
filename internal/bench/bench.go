// Package bench implements the paper's evaluation (Section 5) against
// the emulated substrate: Figure 10 (service-level bridging), the
// Section 5.2 in-text device-level measurements, Figure 11
// (transport-level bridging) and the Section 5.3 translation-buffer
// ablation. Each experiment returns structured rows pairing the paper's
// reported value with the measured one. The package's tests assert each
// claim's shape (who wins, by roughly what factor); cmd/benchharness
// prints and records the rows.
//
// Absolute numbers are not expected to match a 2006 Pentium M testbed —
// EXPERIMENTS.md records both.
package bench

import (
	"fmt"
	"time"

	"repro/internal/directory"
	"repro/internal/netemu"
	"repro/internal/runtime"
	"repro/internal/transport"
)

// fastAnnounce keeps the directory cadence quick so experiments converge
// promptly.
const fastAnnounce = 30 * time.Millisecond

// newRuntime builds and starts a runtime node on the network; a nil
// network yields a standalone node.
func newRuntime(net *netemu.Network, node string) (*runtime.Runtime, error) {
	var host *netemu.Host
	if net != nil {
		host = net.Host(node)
		if host == nil {
			var err error
			host, err = net.AddHost(node)
			if err != nil {
				return nil, err
			}
		}
	}
	rt, err := runtime.New(runtime.Config{
		Node:      node,
		Host:      host,
		Directory: directory.Options{AnnounceInterval: fastAnnounce},
		Transport: transport.Options{DeliverTimeout: 30 * time.Second},
	})
	if err != nil {
		return nil, err
	}
	if err := rt.Start(); err != nil {
		return nil, err
	}
	return rt, nil
}

// waitCond polls until cond is true or the timeout passes.
func waitCond(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: condition not reached within %v", timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// mbps converts bytes over a duration to megabits per second.
func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) * 8 / d.Seconds() / 1e6
}
