// Package mappertest provides a fake mapper.Importer for unit-testing
// platform mappers without a full runtime: imported translators are
// recorded, bound to a capturing sink, and can be inspected or awaited.
package mappertest

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/mapper"
	"repro/internal/usdl"
)

// Importer is an in-memory mapper.Importer. It also implements
// mapper.PanicReporter, recording every panic a mapper's Guard recovers.
type Importer struct {
	node string
	reg  *usdl.Registry

	// OnImport, when set, runs first in every ImportTranslator call: a
	// non-nil error fails the import, and it may block or panic to model
	// a slow or faulty runtime. Set it before the mapper starts.
	OnImport func(core.Profile) error
	// OnEmit, when set, runs before each emission is captured; it may
	// panic. Set it before the mapper starts.
	OnEmit func(Emission)

	mu          sync.Mutex
	translators map[core.TranslatorID]core.Translator
	emissions   []Emission
	panics      []string
}

var (
	_ mapper.Importer      = (*Importer)(nil)
	_ mapper.PanicReporter = (*Importer)(nil)
)

// Emission is one message captured from any imported translator.
type Emission struct {
	Src core.PortRef
	Msg core.Message
}

// New creates a fake importer for a node, using the built-in USDL
// vocabulary.
func New(node string) *Importer { return NewWithUSDL(node, usdl.MustDefaultRegistry()) }

// NewWithUSDL creates a fake importer that looks USDL documents up in
// reg, which the test may fill in later.
func NewWithUSDL(node string, reg *usdl.Registry) *Importer {
	return &Importer{
		node:        node,
		reg:         reg,
		translators: make(map[core.TranslatorID]core.Translator),
	}
}

// Node implements mapper.Importer.
func (i *Importer) Node() string { return i.node }

// USDL implements mapper.Importer.
func (i *Importer) USDL() *usdl.Registry { return i.reg }

// ImportTranslator implements mapper.Importer.
func (i *Importer) ImportTranslator(tr core.Translator) error {
	p := tr.Profile()
	if i.OnImport != nil {
		if err := i.OnImport(p); err != nil {
			return err
		}
	}
	if err := p.Validate(); err != nil {
		return err
	}
	tr.Bind(core.SinkFunc(func(src core.PortRef, msg core.Message) {
		e := Emission{Src: src, Msg: msg.Clone()}
		if i.OnEmit != nil {
			i.OnEmit(e)
		}
		i.mu.Lock()
		defer i.mu.Unlock()
		i.emissions = append(i.emissions, e)
	}))
	i.mu.Lock()
	defer i.mu.Unlock()
	if _, dup := i.translators[p.ID]; dup {
		return fmt.Errorf("mappertest: duplicate translator %q", p.ID)
	}
	i.translators[p.ID] = tr
	return nil
}

// RemoveTranslator implements mapper.Importer.
func (i *Importer) RemoveTranslator(id core.TranslatorID) error {
	i.mu.Lock()
	tr, ok := i.translators[id]
	if ok {
		delete(i.translators, id)
	}
	i.mu.Unlock()
	if !ok {
		return fmt.Errorf("mappertest: unknown translator %q", id)
	}
	return tr.Close()
}

// MapperPanicked implements mapper.PanicReporter.
func (i *Importer) MapperPanicked(platform string, recovered any) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.panics = append(i.panics, fmt.Sprintf("%s: %v", platform, recovered))
}

// Panics returns the recovered panics reported so far, each as
// "platform: value".
func (i *Importer) Panics() []string {
	i.mu.Lock()
	defer i.mu.Unlock()
	return append([]string(nil), i.panics...)
}

// Count returns the number of currently imported translators.
func (i *Importer) Count() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return len(i.translators)
}

// Profiles returns the imported profiles.
func (i *Importer) Profiles() []core.Profile {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make([]core.Profile, 0, len(i.translators))
	for _, tr := range i.translators {
		out = append(out, tr.Profile())
	}
	return out
}

// Translator returns the first imported translator matching the query.
func (i *Importer) Translator(q core.Query) (core.Translator, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	for _, tr := range i.translators {
		if q.Matches(tr.Profile()) {
			return tr, true
		}
	}
	return nil, false
}

// Emissions returns captured emissions.
func (i *Importer) Emissions() []Emission {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make([]Emission, len(i.emissions))
	copy(out, i.emissions)
	return out
}

// WaitCount polls until n translators are imported.
func (i *Importer) WaitCount(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if i.Count() == n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("mappertest: have %d translators, want %d", i.Count(), n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// WaitEmission polls until an emission on the given port name arrives
// and returns it.
func (i *Importer) WaitEmission(port string, timeout time.Duration) (Emission, error) {
	deadline := time.Now().Add(timeout)
	seen := 0
	for {
		all := i.Emissions()
		for _, e := range all[seen:] {
			if e.Src.Port == port {
				return e, nil
			}
		}
		seen = len(all)
		if time.Now().After(deadline) {
			return Emission{}, fmt.Errorf("mappertest: no emission on %q", port)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
