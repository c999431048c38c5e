package bench

import (
	"testing"
	"time"
)

// Each paper claim of Section 5 has one test here: the runner at a
// small size, asserting the claim's shape. cmd/benchharness regenerates
// the full-size rows.

func TestRunFigure10Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	rows, err := RunFigure10(1)
	if err != nil {
		t.Fatalf("RunFigure10: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	var clock Figure10Row
	for _, r := range rows {
		if r.Samples != 1 || r.MeasuredMean <= 0 {
			t.Errorf("row %+v has no samples", r)
		}
		t.Logf("%s: %d ports, %v", r.Device, r.Ports, r.MeasuredMean)
		if r.Device == "UPnP Clock" {
			clock = r
		}
	}
	if clock.Ports != 14 {
		t.Errorf("clock ports = %d, want 14", clock.Ports)
	}
	// Shape criterion: the clock (14 ports, 3 services) maps slowest of
	// all four devices.
	for _, r := range rows {
		if r.Device != clock.Device && r.MeasuredMean >= clock.MeasuredMean {
			t.Errorf("clock (%v) should map slower than %s (%v)", clock.MeasuredMean, r.Device, r.MeasuredMean)
		}
	}
}

func TestRunSec52UPnPSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	row, err := RunSec52UPnP(4)
	if err != nil {
		t.Fatalf("RunSec52UPnP: %v", err)
	}
	// The actuation delay dominates both paths.
	if row.MeasuredNative < UPnPActuationDelay {
		t.Errorf("native = %v, want >= actuation delay", row.MeasuredNative)
	}
	// uMiddle's own overhead is microseconds here, so total and native
	// differ only within noise; allow a small negative slack.
	if row.MeasuredTotal < row.MeasuredNative-5*time.Millisecond {
		t.Errorf("total %v < native %v beyond noise", row.MeasuredTotal, row.MeasuredNative)
	}
	// Shape criterion: the infrastructure contributes little — a
	// measured, nonzero share well under half the native-domain cost
	// (paper: 10 ms of 160 ms).
	if !(row.MeasuredUMiddle > 0 && row.MeasuredUMiddle < row.MeasuredNative/2) {
		t.Errorf("uMiddle share %v not in (0, native/2 = %v)", row.MeasuredUMiddle, row.MeasuredNative/2)
	}
	t.Logf("per action: total %v, native %v, uMiddle %v", row.MeasuredTotal, row.MeasuredNative, row.MeasuredUMiddle)
}

func TestRunSec52BluetoothSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	row, err := RunSec52Bluetooth(5)
	if err != nil {
		t.Fatalf("RunSec52Bluetooth: %v", err)
	}
	if row.MeasuredTotal <= 0 {
		t.Fatalf("no latency measured: %+v", row)
	}
	// Shape criterion: tens of milliseconds, not hundreds (the shaped
	// 5 ms radio latency appears twice in the click+release pair).
	if row.MeasuredTotal > 200*time.Millisecond {
		t.Errorf("click translation = %v, want well under 200ms", row.MeasuredTotal)
	}
}

func TestRunFigure11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	// The paper's bars in its strict order, TCP > MB > RMI > RMI-MB,
	// each with a floor at half its committed BENCH_fig11.json value.
	bars := []struct {
		run   func(int) (Figure11Row, error)
		msgs  int
		floor float64
	}{
		{RunFigure11TCP, 200, 4.80},
		{RunFigure11MB, 200, 2.39},
		{RunFigure11RMI, 100, 1.64},
		{RunFigure11RMIMB, 100, 0.98},
	}
	rows := make([]Figure11Row, len(bars))
	for i, b := range bars {
		row, err := b.run(b.msgs)
		if err != nil {
			t.Fatalf("%s: %v", row.Test, err)
		}
		if row.MeasuredMbps < b.floor {
			t.Errorf("%s %.2f Mbps below its floor %.2f", row.Test, row.MeasuredMbps, b.floor)
		}
		if i > 0 && !(rows[i-1].MeasuredMbps > row.MeasuredMbps) {
			t.Errorf("%s %.2f should beat %s %.2f", rows[i-1].Test, rows[i-1].MeasuredMbps, row.Test, row.MeasuredMbps)
		}
		rows[i] = row
	}
	tcp := rows[0]
	if tcp.MeasuredMbps > 10 {
		t.Errorf("tcp baseline %.2f exceeds the 10 Mbps link", tcp.MeasuredMbps)
	}
	for _, r := range rows {
		t.Logf("%s: %.2f Mbps, %.2f of TCP (paper %.2f)", r.Test, r.MeasuredMbps,
			r.MeasuredMbps/tcp.MeasuredMbps, r.PaperMbps/tcp.PaperMbps)
	}
}

func TestMbpsHelper(t *testing.T) {
	got := mbps(1_250_000, time.Second) // 10 Mbit in 1s
	if got < 9.99 || got > 10.01 {
		t.Fatalf("mbps = %f, want 10", got)
	}
	if mbps(100, 0) != 0 {
		t.Fatal("zero duration should yield 0")
	}
}

func TestRunQoSAblationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	rows, err := RunQoSAblation(400*time.Millisecond, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("RunQoSAblation: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byPolicy := map[string]QoSRow{}
	for _, r := range rows {
		byPolicy[r.Policy.String()] = r
	}
	block := byPolicy["block"]
	dropOldest := byPolicy["drop-oldest"]
	latest := byPolicy["latest-only"]
	// Block never drops; backpressure throttles the producer instead.
	if block.Dropped != 0 {
		t.Errorf("block dropped %d", block.Dropped)
	}
	if block.Produced >= dropOldest.Produced {
		t.Errorf("backpressure did not throttle: block produced %d >= drop-oldest %d",
			block.Produced, dropOldest.Produced)
	}
	// Dropping policies drop under overload.
	if dropOldest.Dropped == 0 || latest.Dropped == 0 {
		t.Errorf("dropping policies did not drop: %+v / %+v", dropOldest, latest)
	}
	// The accumulation effect: block's delivered messages are the most
	// stale; latest-only's the freshest.
	if block.MeanStaleness <= latest.MeanStaleness {
		t.Errorf("staleness ordering wrong: block %v <= latest %v",
			block.MeanStaleness, latest.MeanStaleness)
	}
}
