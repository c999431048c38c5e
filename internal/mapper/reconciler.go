package mapper

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/usdl"
)

// Adapter is everything a platform mapper supplies to a Reconciler:
// discovery (Poll, or push calls to Seen and Bye), description
// (Describe), and the port bridge each Desc carries. The reconciler owns
// the rest of the lifecycle — reservations, translator IDs, USDL lookup,
// import, the Figure 10 sample, absence reaping and Close.
type Adapter[N any] struct {
	// Platform is the bridged platform's name.
	Platform string
	// IDPrefix mints translator local IDs "<IDPrefix>-1", "-2", ... for
	// descriptions that do not name their own.
	IDPrefix string
	// Interval is the discovery pass cadence; zero runs no passes.
	Interval time.Duration
	// MissThreshold is how many consecutive passes a mapped device may go
	// unseen before it is unmapped. Zero never reaps on absence: the
	// platform's own bye (Bye) is then the only way out.
	MissThreshold int
	// Poll runs once per pass and reports the devices present. Sightings
	// are mapped even when it fails, but a failed pass never counts as
	// absence. Push platforms leave it nil, or use it to solicit
	// announcements and return no sightings.
	Poll func(ctx context.Context) ([]Sighting[N], error)
	// Describe turns one native sighting into a translator description.
	// It may block on the network; ctx is cancelled by Close.
	Describe func(ctx context.Context, key string, native N) (Desc, error)
	// Recorder receives the Figure 10 samples; nil discards.
	Recorder *Recorder
	// Logger receives diagnostics; nil disables logging.
	Logger *slog.Logger
}

// Sighting is one native device seen by discovery, under its platform
// key (USN, address/profile, registry name, ...).
type Sighting[N any] struct {
	Key    string
	Native N
}

// Desc is a platform's description of one native device.
type Desc struct {
	// Profile describes the translator. The reconciler fills in ID, Node
	// and Platform; DeviceType selects the USDL document.
	Profile core.Profile
	// LocalID names the translator within its platform; empty mints the
	// next "<IDPrefix>-N".
	LocalID string
	// Driver performs the USDL-bound actions on the native device.
	Driver usdl.Driver
	// Attach, when set, connects native event sources to the built
	// translator before it is imported; an error abandons the mapping.
	Attach func(gt *usdl.GenericTranslator) error
	// Pump, when set, relays native events into the imported translator
	// on a guarded goroutine until the native source closes.
	Pump func(gt *usdl.GenericTranslator)
	// Cleanup, when set, releases the native resources Describe acquired.
	// It runs when the mapping fails, when the device is unmapped, and on
	// Close.
	Cleanup func()
}

// Reconciler keeps one mapper's imported translators in step with
// native presence: discover → reserve → describe → USDL lookup →
// import → sample → reap on absence or bye → Close.
type Reconciler[N any] struct {
	a   Adapter[N]
	log *slog.Logger

	mu      sync.Mutex
	imp     Importer
	ctx     context.Context
	cancel  context.CancelFunc
	entries map[string]*entry // nil value: reserved, mapping in flight
	nextID  int
	closed  bool
	wg      sync.WaitGroup
}

// entry is one mapped device.
type entry struct {
	id      core.TranslatorID
	gt      *usdl.GenericTranslator
	cleanup func()
	seen    bool // seen during the current pass
	misses  int  // consecutive passes unseen
}

// NewReconciler creates a reconciler for one mapper incarnation.
func NewReconciler[N any](a Adapter[N]) *Reconciler[N] {
	log := a.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	return &Reconciler[N]{a: a, log: log, entries: make(map[string]*entry)}
}

// Start begins discovery passes on behalf of imp. It fails after Close.
func (r *Reconciler[N]) Start(ctx context.Context, imp Importer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("%s mapper: closed", r.a.Platform)
	}
	r.imp = imp
	r.ctx, r.cancel = context.WithCancel(ctx)
	if r.a.Interval > 0 {
		r.goLocked(r.loop)
	}
	return nil
}

// Close stops discovery, runs every mapped device's cleanup, and waits
// for all of the reconciler's goroutines and in-flight describes. A
// describe that completes after Close has begun unmaps what it imported.
// Translators mapped earlier stay imported; their owner removes them.
func (r *Reconciler[N]) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	var cleanups []func()
	for _, e := range r.entries {
		if e != nil && e.cleanup != nil {
			cleanups = append(cleanups, e.cleanup)
		}
	}
	cancel := r.cancel
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	for _, fn := range cleanups {
		fn()
	}
	r.wg.Wait()
}

// Guard runs fn with the mapper's panic recovery (see Guard).
func (r *Reconciler[N]) Guard(fn func()) { Guard(r.imp, r.a.Platform, fn) }

// Go runs fn on a guarded goroutine that Close waits for. After Close it
// does nothing.
func (r *Reconciler[N]) Go(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.goLocked(fn)
	}
}

func (r *Reconciler[N]) goLocked(fn func()) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		r.Guard(fn)
	}()
}

// Seen records that the device under key is present, mapping it first
// if it is new. It returns the device's translator, or nil while the
// device is unmapped, being mapped elsewhere, or after a failed mapping
// (the next sighting retries).
func (r *Reconciler[N]) Seen(key string, native N) *usdl.GenericTranslator {
	r.mu.Lock()
	if r.closed || r.imp == nil {
		r.mu.Unlock()
		return nil
	}
	if e, known := r.entries[key]; known {
		defer r.mu.Unlock()
		if e == nil {
			return nil
		}
		e.seen = true
		return e.gt
	}
	r.entries[key] = nil
	r.wg.Add(1)
	ctx, imp := r.ctx, r.imp
	r.mu.Unlock()
	defer r.wg.Done()
	return r.mapKey(ctx, imp, key, native)
}

// mapKey maps a reserved key. Whatever fails — including a panic — it
// undoes what it did and releases the reservation.
func (r *Reconciler[N]) mapKey(ctx context.Context, imp Importer, key string, native N) *usdl.GenericTranslator {
	start := time.Now()
	var (
		d        Desc
		gt       *usdl.GenericTranslator
		imported bool
		done     bool
	)
	defer func() {
		if done {
			return
		}
		if imported {
			imp.RemoveTranslator(gt.Profile().ID) //nolint:errcheck // best effort
		}
		if gt != nil {
			gt.Close()
		}
		if d.Cleanup != nil {
			d.Cleanup()
		}
		r.mu.Lock()
		if r.entries[key] == nil {
			delete(r.entries, key)
		}
		r.mu.Unlock()
	}()

	d, err := r.a.Describe(ctx, key, native)
	if err == nil {
		gt, err = r.translator(imp, d)
	}
	if err == nil && d.Attach != nil {
		err = d.Attach(gt)
	}
	if err == nil {
		err = imp.ImportTranslator(gt)
		imported = err == nil
	}
	if err != nil {
		r.log.Warn("mapper: mapping failed", "platform", r.a.Platform, "key", key, "err", err)
		return nil
	}

	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil // Close began mid-describe: the deferred undo unmaps
	}
	r.entries[key] = &entry{id: gt.Profile().ID, gt: gt, cleanup: d.Cleanup, seen: true}
	if d.Pump != nil {
		r.goLocked(func() { d.Pump(gt) })
	}
	r.mu.Unlock()
	done = true

	profile := gt.Profile()
	s := Sample{
		Platform:   r.a.Platform,
		DeviceType: profile.DeviceType,
		Duration:   time.Since(start),
		Ports:      profile.Shape.Len(),
	}
	r.a.Recorder.Record(s)
	observeMapped(RegistryOf(imp), imp.Node(), s)
	r.log.Info("mapper: mapped", "platform", r.a.Platform, "key", key, "id", profile.ID, "took", s.Duration)
	return gt
}

// translator looks up the description's USDL document, mints its ID,
// and builds the generic translator.
func (r *Reconciler[N]) translator(imp Importer, d Desc) (*usdl.GenericTranslator, error) {
	p := d.Profile
	svc, ok := imp.USDL().Find(r.a.Platform, p.DeviceType)
	if !ok {
		return nil, fmt.Errorf("no USDL document for %q", p.DeviceType)
	}
	local := d.LocalID
	if local == "" {
		r.mu.Lock()
		r.nextID++
		local = fmt.Sprintf("%s-%d", r.a.IDPrefix, r.nextID)
		r.mu.Unlock()
	}
	p.ID = core.MakeTranslatorID(imp.Node(), r.a.Platform, local)
	p.Node = imp.Node()
	p.Platform = r.a.Platform
	return usdl.NewGenericTranslator(p, svc, d.Driver)
}

// Bye unmaps every mapped device whose key matches: the platform said
// the device left.
func (r *Reconciler[N]) Bye(match func(key string) bool) {
	r.mu.Lock()
	var gone []*entry
	for key, e := range r.entries {
		if e != nil && !r.closed && match(key) {
			gone = append(gone, e)
			delete(r.entries, key)
		}
	}
	r.mu.Unlock()
	r.unmap(gone)
}

func (r *Reconciler[N]) loop() {
	ticker := time.NewTicker(r.a.Interval)
	defer ticker.Stop()
	for {
		r.Guard(r.pass)
		select {
		case <-r.ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// pass runs one discovery pass and charges a miss to every mapped
// device not seen since the previous one.
func (r *Reconciler[N]) pass() {
	if r.a.Poll != nil {
		found, err := r.a.Poll(r.ctx)
		for _, s := range found {
			r.Seen(s.Key, s.Native)
		}
		if err != nil {
			if r.ctx.Err() == nil {
				r.log.Warn("mapper: discovery failed", "platform", r.a.Platform, "err", err)
			}
			return
		}
	}
	if r.a.MissThreshold <= 0 {
		return
	}
	r.mu.Lock()
	var gone []*entry
	for key, e := range r.entries {
		switch {
		case e == nil || r.closed:
		case e.seen:
			e.seen, e.misses = false, 0
		default:
			if e.misses++; e.misses >= r.a.MissThreshold {
				gone = append(gone, e)
				delete(r.entries, key)
			}
		}
	}
	r.mu.Unlock()
	r.unmap(gone)
}

func (r *Reconciler[N]) unmap(gone []*entry) {
	for _, e := range gone {
		if e.cleanup != nil {
			e.cleanup()
		}
		if err := r.imp.RemoveTranslator(e.id); err != nil {
			r.log.Warn("mapper: unmap failed", "platform", r.a.Platform, "id", e.id, "err", err)
		}
	}
}

// MappedCount returns the number of currently mapped devices.
func (r *Reconciler[N]) MappedCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.entries {
		if e != nil {
			n++
		}
	}
	return n
}
