package directory

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netemu"
)

// batchRecorder is a Listener recording every id plus how many calls
// it took.
type batchRecorder struct {
	mu            sync.Mutex
	mapped        []core.TranslatorID
	unmapped      []core.TranslatorID
	mappedCalls   int
	unmappedCalls int
}

func (r *batchRecorder) TranslatorsMapped(ps []core.Profile) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mappedCalls++
	for i := range ps {
		r.mapped = append(r.mapped, ps[i].ID)
	}
}

func (r *batchRecorder) TranslatorsUnmapped(ids []core.TranslatorID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.unmappedCalls++
	r.unmapped = append(r.unmapped, ids...)
}

func (r *batchRecorder) snapshot() (mapped, unmapped []core.TranslatorID, mCalls, uCalls int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]core.TranslatorID(nil), r.mapped...),
		append([]core.TranslatorID(nil), r.unmapped...),
		r.mappedCalls, r.unmappedCalls
}

// funcsRecorder returns a ListenerFuncs that logs every id it is called
// with, and a snapshot of the two logs.
func funcsRecorder() (ListenerFuncs, func() (mapped, unmapped []core.TranslatorID)) {
	var mu sync.Mutex
	var mapped, unmapped []core.TranslatorID
	l := ListenerFuncs{
		Mapped: func(p core.Profile) {
			mu.Lock()
			mapped = append(mapped, p.ID)
			mu.Unlock()
		},
		Unmapped: func(id core.TranslatorID) {
			mu.Lock()
			unmapped = append(unmapped, id)
			mu.Unlock()
		},
	}
	return l, func() ([]core.TranslatorID, []core.TranslatorID) {
		mu.Lock()
		defer mu.Unlock()
		return slices.Clone(mapped), slices.Clone(unmapped)
	}
}

// TestBatchListenerCoalescesAdvert: an advert carrying many profiles
// reaches a Listener in far fewer calls than profiles — and a node
// death unmaps all of them in one call. A ListenerFuncs registered
// alongside still sees every per-translator event, in batch order.
func TestBatchListenerCoalescesAdvert(t *testing.T) {
	net := netemu.NewNetwork(netemu.Unlimited())
	defer net.Close()
	h1, h2 := net.MustAddHost("h1"), net.MustAddHost("h2")
	d1, d2 := New("h1", h1, fastOpts()), New("h2", h2, fastOpts())
	defer d1.Close()
	defer d2.Close()
	d1.Start()
	d2.Start()

	batched := &batchRecorder{}
	plain, plainSnap := funcsRecorder()
	d2.AddListener(batched)
	d2.AddListener(plain)

	const n = 40
	for i := 0; i < n; i++ {
		if err := d1.AddLocal(testTranslator(t, "h1", "dev-"+string(rune('a'+i%26))+string(rune('0'+i/26)))); err != nil {
			t.Fatalf("AddLocal %d: %v", i, err)
		}
	}
	// The ListenerFuncs is called after the recorder for each batch:
	// wait for both.
	waitFor(t, 3*time.Second, func() bool {
		mapped, _, _, _ := batched.snapshot()
		pm, _ := plainSnap()
		return len(mapped) >= n && len(pm) >= n
	})
	mapped, _, mCalls, _ := batched.snapshot()
	if len(mapped) != n {
		t.Fatalf("batched listener saw %d mapped, want %d", len(mapped), n)
	}
	if mCalls >= n {
		t.Fatalf("batching never engaged: %d calls for %d mapped translators", mCalls, n)
	}
	if pm, _ := plainSnap(); !slices.Equal(pm, mapped) {
		t.Fatalf("ListenerFuncs saw mapped %v, want the batch order %v", pm, mapped)
	}

	// Node death: all n entries drop in one batched unmap.
	d1.Close() // bye
	waitFor(t, 3*time.Second, func() bool {
		_, unmapped, _, _ := batched.snapshot()
		_, pu := plainSnap()
		return len(unmapped) >= n && len(pu) >= n
	})
	_, unmapped, _, uCalls := batched.snapshot()
	if len(unmapped) != n {
		t.Fatalf("batched listener saw %d unmapped, want %d", len(unmapped), n)
	}
	if uCalls != 1 {
		t.Fatalf("node death took %d unmap calls, want 1 batched call", uCalls)
	}
	if _, pu := plainSnap(); !slices.Equal(pu, unmapped) {
		t.Fatalf("ListenerFuncs saw unmapped %v, want the batch order %v", pu, unmapped)
	}
}
