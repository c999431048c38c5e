package mappertest_test

import (
	"context"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/usdl"
)

// The toy platform is the smallest complete mapper: an in-memory table
// of lamps, bridged by nothing but a mapper.Adapter — a poll, a describe
// and a port bridge. Copy it to start a new platform.

const toyPlatform = "toy"

const toyUSDL = `<usdl version="1.0">
  <service name="Toy Lamp" platform="toy">
    <match deviceType="lamp"/>
    <port name="switch" kind="digital" direction="input" type="control/power"><bind action="Switch"/></port>
    <port name="state-out" kind="digital" direction="output" type="text/event"/>
    <event native="Changed" port="state-out"/>
  </service>
</usdl>`

// toyLamp is one native lamp; events carries its state changes.
type toyLamp struct {
	present bool
	events  chan string
}

type toyWorld struct {
	mu    sync.Mutex
	lamps map[string]*toyLamp
}

func (w *toyWorld) set(name string, present bool) *toyLamp {
	w.mu.Lock()
	defer w.mu.Unlock()
	l := w.lamps[name]
	if l == nil {
		l = &toyLamp{events: make(chan string, 16)}
		w.lamps[name] = l
	}
	l.present = present
	return l
}

type toyMapper struct{ r *mapper.Reconciler[*toyLamp] }

func newToyMapper(w *toyWorld, rec *mapper.Recorder) *toyMapper {
	return &toyMapper{r: mapper.NewReconciler(mapper.Adapter[*toyLamp]{
		Platform: toyPlatform, IDPrefix: "lamp", Interval: 20 * time.Millisecond, MissThreshold: 1, Recorder: rec,
		Poll: func(context.Context) ([]mapper.Sighting[*toyLamp], error) {
			w.mu.Lock()
			defer w.mu.Unlock()
			var out []mapper.Sighting[*toyLamp]
			for name, l := range w.lamps {
				if l.present {
					out = append(out, mapper.Sighting[*toyLamp]{Key: name, Native: l})
				}
			}
			return out, nil
		},
		Describe: func(_ context.Context, name string, l *toyLamp) (mapper.Desc, error) {
			done := make(chan struct{})
			return mapper.Desc{
				Profile: core.Profile{Name: name, DeviceType: "lamp"},
				Driver: usdl.DriverFunc(func(context.Context, string, map[string]string, []byte) ([]byte, error) {
					return nil, nil
				}),
				Pump: func(gt *usdl.GenericTranslator) {
					for {
						select {
						case v := <-l.events:
							gt.NativeEvent("Changed", core.NewMessage("text/event", []byte(v)))
						case <-done:
							return
						}
					}
				},
				Cleanup: func() { close(done) },
			}, nil
		},
	})}
}

func (m *toyMapper) Platform() string                                     { return toyPlatform }
func (m *toyMapper) Start(ctx context.Context, imp mapper.Importer) error { return m.r.Start(ctx, imp) }
func (m *toyMapper) Close() error                                         { m.r.Close(); return nil }
func (m *toyMapper) MappedCount() int                                     { return m.r.MappedCount() }
