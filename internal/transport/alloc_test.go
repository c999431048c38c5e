//go:build !race

package transport

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
)

// streamAllocs pushes warm+n messages of the given payload size from h1
// to h2 over one static path on an unlimited network and returns the
// process-wide mallocs and bytes allocated per message over the last n
// — the whole deliver path, Emit to the sink's handler, both modules.
// The race detector's instrumentation allocates, hence the build tag.
func streamAllocs(t *testing.T, payloadBytes, warm, n int) (mallocs, bytes float64) {
	t.Helper()
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1 := newNode(t, net, "h1")
	h2 := newNode(t, net, "h2")
	src := producer("h1", "src", "application/octet-stream")
	sink := core.MustBase(core.Profile{
		ID:       core.MakeTranslatorID("h2", "umiddle", "sink"),
		Name:     "sink",
		Platform: "umiddle",
		Node:     "h2",
		Shape: core.MustShape(
			core.Port{Name: "in", Kind: core.Digital, Direction: core.Input, Type: "application/octet-stream"},
		),
	})
	var delivered atomic.Int64
	sink.MustHandle("in", func(context.Context, core.Message) error {
		delivered.Add(1)
		return nil
	})
	h1.register(t, src)
	h2.register(t, sink)
	connectWhenVisible(t, h1, src, sink)

	// One payload for every message: Emit hands ownership to the
	// transport, which treats it as immutable.
	payload := make([]byte, payloadBytes)
	emit := func(count int) {
		want := delivered.Load() + int64(count)
		for i := 0; i < count; i++ {
			src.Emit("out", core.Message{Type: "application/octet-stream", Payload: payload})
		}
		deadline := time.Now().Add(30 * time.Second)
		for delivered.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("delivered %d of %d", delivered.Load(), want)
			}
			runtime.Gosched()
		}
	}
	emit(warm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	emit(n)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestDeliverPathAllocationBudget pins the garbage the steady-state
// deliver path makes per message. What remains is the lazy deadline
// context of each Deliver (kept on purpose: a handler may retain its
// ctx) and the occasional dispatcher queue re-created after a drain;
// the budgets leave room for the directories' announce ticks running
// beside the stream.
func TestDeliverPathAllocationBudget(t *testing.T) {
	t.Run("64B", func(t *testing.T) {
		mallocs, _ := streamAllocs(t, 64, 20_000, 100_000)
		t.Logf("%.2f allocations per 64-byte message", mallocs)
		if mallocs > 4 {
			t.Fatalf("%.2f allocations per delivered 64-byte message, budget 4", mallocs)
		}
	})
	t.Run("64KiB", func(t *testing.T) {
		_, bytes := streamAllocs(t, 64<<10, 20_000, 100_000)
		t.Logf("%.0f bytes allocated per 64 KiB message", bytes)
		if bytes > 2<<10 {
			t.Fatalf("%.0f bytes allocated per delivered 64 KiB message, budget 2048", bytes)
		}
	})
}
