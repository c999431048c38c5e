package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Port describes one communication endpoint of a translator: its name,
// whether it is digital or physical, its direction, and its data type.
type Port struct {
	// Name identifies the port within its translator ("image-out").
	Name string `json:"name"`
	// Kind is Digital or Physical.
	Kind PortKind `json:"kind"`
	// Direction is Input or Output.
	Direction Direction `json:"direction"`
	// Type is the port's data type tag (MIME type for digital ports,
	// perception/media for physical ports).
	Type DataType `json:"type"`
	// Description is optional human-readable documentation carried from
	// the USDL document.
	Description string `json:"description,omitempty"`
}

// Validate checks structural invariants of the port.
func (p Port) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("core: port has empty name")
	}
	if p.Kind != Digital && p.Kind != Physical {
		return fmt.Errorf("core: port %q has invalid kind %d", p.Name, int(p.Kind))
	}
	if p.Direction != Input && p.Direction != Output {
		return fmt.Errorf("core: port %q has invalid direction %d", p.Name, int(p.Direction))
	}
	if !p.Type.Valid() {
		return fmt.Errorf("core: port %q has malformed type %q", p.Name, p.Type)
	}
	if p.Kind == Physical {
		perception, _ := p.Type.Split()
		switch perception {
		case PerceptionVisible, PerceptionAudible, PerceptionTangible, "*":
		default:
			return fmt.Errorf("core: physical port %q has unknown perception type %q", p.Name, perception)
		}
	}
	return nil
}

// String renders the port as "name(kind direction type)".
func (p Port) String() string {
	return fmt.Sprintf("%s(%s %s %s)", p.Name, p.Kind, p.Direction, p.Type)
}

// Shape is the full set of ports of a translator — "the affordances of
// the device with which the translator is attached" (paper Section 3.3).
type Shape struct {
	ports []Port
}

// NewShape builds a shape from ports, validating each and rejecting
// duplicate port names.
func NewShape(ports ...Port) (Shape, error) {
	seen := make(map[string]struct{}, len(ports))
	copied := make([]Port, len(ports))
	for i, p := range ports {
		if err := p.Validate(); err != nil {
			return Shape{}, err
		}
		if _, dup := seen[p.Name]; dup {
			return Shape{}, fmt.Errorf("core: duplicate port name %q", p.Name)
		}
		seen[p.Name] = struct{}{}
		copied[i] = p
	}
	return Shape{ports: copied}, nil
}

// MustShape is NewShape that panics on error; for tests and fixtures.
func MustShape(ports ...Port) Shape {
	s, err := NewShape(ports...)
	if err != nil {
		panic(err)
	}
	return s
}

// Ports returns a copy of the shape's ports.
func (s Shape) Ports() []Port {
	out := make([]Port, len(s.ports))
	copy(out, s.ports)
	return out
}

// Equal reports whether two shapes hold the same ports in the same
// order, without copying either.
func (s Shape) Equal(o Shape) bool { return slices.Equal(s.ports, o.ports) }

// Len returns the number of ports.
func (s Shape) Len() int { return len(s.ports) }

// Port looks up a port by name.
func (s Shape) Port(name string) (Port, bool) {
	for _, p := range s.ports {
		if p.Name == name {
			return p, true
		}
	}
	return Port{}, false
}

// Inputs returns all input ports, optionally filtered by kind (0 = all).
func (s Shape) Inputs(kind PortKind) []Port {
	return s.filter(Input, kind)
}

// Outputs returns all output ports, optionally filtered by kind (0 = all).
func (s Shape) Outputs(kind PortKind) []Port {
	return s.filter(Output, kind)
}

func (s Shape) filter(dir Direction, kind PortKind) []Port {
	var out []Port
	for _, p := range s.ports {
		if p.Direction == dir && (kind == 0 || p.Kind == kind) {
			out = append(out, p)
		}
	}
	return out
}

// FirstMatching returns the first port matching the given direction,
// kind (0 = any), and type pattern.
func (s Shape) FirstMatching(dir Direction, kind PortKind, pattern DataType) (Port, bool) {
	for _, p := range s.ports {
		if p.Direction != dir {
			continue
		}
		if kind != 0 && p.Kind != kind {
			continue
		}
		if p.Type.Matches(pattern) {
			return p, true
		}
	}
	return Port{}, false
}

// Satisfies reports whether the shape provides every port required by the
// template: for each template port there must exist a port with the same
// kind and direction whose type matches the template's (wildcard-capable)
// type. Port names in the template are ignored — shaping is structural.
func (s Shape) Satisfies(template Shape) bool {
	for _, want := range template.ports {
		if _, ok := s.FirstMatching(want.Direction, want.Kind, want.Type); !ok {
			return false
		}
	}
	return true
}

// CompatibleWith reports whether some digital output of s can feed some
// digital input of other (or vice versa) — the device-to-device
// compatibility check applications use ("check interoperability of any
// two translators simply by comparing MIME-types", paper Section 3.3).
func (s Shape) CompatibleWith(other Shape) bool {
	feeds := func(a, b Shape) bool {
		for _, out := range a.Outputs(Digital) {
			for _, in := range b.Inputs(Digital) {
				if Compatible(out.Type, in.Type) {
					return true
				}
			}
		}
		return false
	}
	return feeds(s, other) || feeds(other, s)
}

// Fingerprint returns a stable FNV-1a hash of the shape's ports (name,
// kind, direction, type — everything matching and binding look at).
// Two shapes with equal port lists hash equal; MatchCache uses the hash
// to detect a re-announced translator whose shape changed.
func (s Shape) Fingerprint() uint64 {
	h := fnvOffset
	for _, p := range s.ports {
		h = fnvString(h, p.Name)
		h = fnvByte(h, byte(p.Kind))
		h = fnvByte(h, byte(p.Direction))
		h = fnvString(h, string(p.Type))
	}
	return h
}

// FNV-1a, inlined so hashing a shape allocates nothing.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	// Separator keeps ("ab","c") distinct from ("a","bc").
	return (h ^ 0xff) * fnvPrime
}

// String renders a deterministic summary of the shape.
func (s Shape) String() string {
	parts := make([]string, len(s.ports))
	for i, p := range s.ports {
		parts[i] = p.String()
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}
