package usdl

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// Driver is the native-side adapter a generic translator drives. Each
// mapper supplies a driver per discovered device; the driver speaks the
// native protocol (SOAP action, OBEX operation, RMI call, ...).
type Driver interface {
	// Invoke performs a native action with resolved string arguments and
	// an optional raw payload, returning the native result payload.
	Invoke(ctx context.Context, action string, args map[string]string, payload []byte) ([]byte, error)
	// Close tears down the native connection.
	Close() error
}

// DriverFunc adapts a function to a Driver with a no-op Close.
type DriverFunc func(ctx context.Context, action string, args map[string]string, payload []byte) ([]byte, error)

// Invoke calls f.
func (f DriverFunc) Invoke(ctx context.Context, action string, args map[string]string, payload []byte) ([]byte, error) {
	return f(ctx, action, args, payload)
}

// Close is a no-op.
func (DriverFunc) Close() error { return nil }

// GenericTranslator is the paper's "generic translator implementation
// ... mechanically parameterized for any given device by a USDL
// document" (Section 3.4). It routes input-port deliveries to native
// actions through a Driver and native events to output-port emissions.
type GenericTranslator struct {
	base   *core.Base
	svc    Service
	driver Driver

	mu    sync.Mutex
	stats Stats
}

// Stats counts translator activity, used by the benchmarks.
type Stats struct {
	// Delivered counts input-port deliveries handled.
	Delivered uint64
	// Invoked counts native actions invoked.
	Invoked uint64
	// Events counts native events emitted into uMiddle.
	Events uint64
	// InvokeTime is the cumulative time spent inside the driver's
	// native actions.
	InvokeTime time.Duration
}

var _ core.Translator = (*GenericTranslator)(nil)

// NewGenericTranslator parameterizes a generic translator with a USDL
// service definition and a native driver. The profile's shape is built
// from the document; the caller supplies identity and metadata.
func NewGenericTranslator(profile core.Profile, svc *Service, driver Driver) (*GenericTranslator, error) {
	if svc == nil {
		return nil, fmt.Errorf("usdl: nil service definition")
	}
	if driver == nil {
		return nil, fmt.Errorf("usdl: nil driver")
	}
	shape, err := svc.Shape()
	if err != nil {
		return nil, err
	}
	profile.Shape = shape
	if profile.Name == "" {
		profile.Name = svc.Name
	}
	base, err := core.NewBase(profile)
	if err != nil {
		return nil, err
	}
	g := &GenericTranslator{base: base, svc: *svc, driver: driver}
	for _, pd := range svc.Ports {
		if pd.Bind == nil {
			continue
		}
		bind := *pd.Bind
		if err := base.Handle(pd.Name, g.bindHandler(bind)); err != nil {
			return nil, err
		}
	}
	base.OnClose(driver.Close)
	return g, nil
}

func (g *GenericTranslator) bindHandler(bind Bind) core.InputHandler {
	return func(ctx context.Context, msg core.Message) error {
		args := make(map[string]string, len(bind.Args))
		for _, a := range bind.Args {
			v, err := a.Resolve(msg)
			if err != nil {
				return err
			}
			args[a.Name] = v
		}
		start := time.Now()
		result, err := g.driver.Invoke(ctx, bind.Action, args, msg.Payload)
		g.mu.Lock()
		g.stats.Delivered++
		g.stats.Invoked++
		g.stats.InvokeTime += time.Since(start)
		g.mu.Unlock()
		if err != nil {
			return fmt.Errorf("usdl: action %q on %s: %w", bind.Action, g.base.ID(), err)
		}
		if bind.Result != "" {
			g.base.Emit(bind.Result, core.Message{Payload: result})
		}
		return nil
	}
}

// Profile implements core.Translator.
func (g *GenericTranslator) Profile() core.Profile { return g.base.Profile() }

// Deliver implements core.Translator.
func (g *GenericTranslator) Deliver(ctx context.Context, port string, msg core.Message) error {
	return g.base.Deliver(ctx, port, msg)
}

// Bind implements core.Translator.
func (g *GenericTranslator) Bind(sink core.Sink) { g.base.Bind(sink) }

// Close implements core.Translator.
func (g *GenericTranslator) Close() error { return g.base.Close() }

// NativeEvent injects a native event: if the USDL document binds the
// event name to an output port, the message is emitted there. Unbound
// events are dropped (semantic loss of mediated translation, Section
// 2.2.1 — the common representation cannot carry every native nuance).
func (g *GenericTranslator) NativeEvent(native string, msg core.Message) {
	e, ok := g.svc.EventFor(native)
	if !ok {
		return
	}
	if e.Type != "" {
		msg.Type = core.DataType(e.Type)
	}
	g.mu.Lock()
	g.stats.Events++
	g.mu.Unlock()
	g.base.Emit(e.Port, msg)
}

// Stats returns a snapshot of activity counters.
func (g *GenericTranslator) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}

// Service returns the USDL service definition the translator was built
// from.
func (g *GenericTranslator) Service() Service { return g.svc }
