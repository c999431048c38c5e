package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// PortTemplate is one port requirement inside a Query: kind, direction,
// and a wildcard-capable data type pattern.
type PortTemplate struct {
	// Kind restricts the port kind; zero matches any kind.
	Kind PortKind `json:"kind,omitempty"`
	// Direction restricts the direction; zero matches any direction.
	Direction Direction `json:"direction,omitempty"`
	// Type is a type pattern; wildcards allowed ("visible/*", "*/*").
	// Empty matches any type.
	Type DataType `json:"type,omitempty"`
}

// MatchesPort reports whether a concrete port satisfies the template.
func (t PortTemplate) MatchesPort(p Port) bool {
	if t.Kind != 0 && p.Kind != t.Kind {
		return false
	}
	if t.Direction != 0 && p.Direction != t.Direction {
		return false
	}
	if t.Type != "" && !p.Type.Matches(t.Type) {
		return false
	}
	return true
}

// Query selects translators by shape and metadata. It is the argument of
// the directory Lookup API (paper Figure 6) and of the template-based
// connect API (paper Figure 7-(2)).
//
// A zero Query matches every translator. All populated criteria must hold
// (conjunction); each PortTemplate must be satisfied by at least one
// distinct-by-template port of the candidate shape.
type Query struct {
	// Platform restricts to translators bridged from one platform.
	Platform string `json:"platform,omitempty"`
	// DeviceType restricts to one native device type (exact match).
	DeviceType string `json:"deviceType,omitempty"`
	// NameContains restricts to profiles whose Name contains the
	// substring (case-insensitive).
	NameContains string `json:"nameContains,omitempty"`
	// Node restricts to translators hosted on one runtime node.
	Node string `json:"node,omitempty"`
	// Ports lists shape requirements; every template must be satisfied.
	Ports []PortTemplate `json:"ports,omitempty"`
	// Attributes requires exact attribute values.
	Attributes map[string]string `json:"attributes,omitempty"`
	// ExcludeID filters out one translator, used to avoid self-matches
	// when querying for peers.
	ExcludeID TranslatorID `json:"excludeId,omitempty"`
}

// Matches reports whether the profile satisfies every criterion.
func (q Query) Matches(p Profile) bool {
	if q.ExcludeID != "" && p.ID == q.ExcludeID {
		return false
	}
	if q.Platform != "" && !strings.EqualFold(q.Platform, p.Platform) {
		return false
	}
	if q.DeviceType != "" && q.DeviceType != p.DeviceType {
		return false
	}
	if q.Node != "" && q.Node != p.Node {
		return false
	}
	if q.NameContains != "" &&
		!strings.Contains(strings.ToLower(p.Name), strings.ToLower(q.NameContains)) {
		return false
	}
	for k, v := range q.Attributes {
		if p.Attr(k) != v {
			return false
		}
	}
	for _, tmpl := range q.Ports {
		if !shapeHasMatch(p.Shape, tmpl) {
			return false
		}
	}
	return true
}

func shapeHasMatch(s Shape, tmpl PortTemplate) bool {
	for _, p := range s.ports {
		if tmpl.MatchesPort(p) {
			return true
		}
	}
	return false
}

// CacheKey renders the query in a canonical injective form: two queries
// with the same key match exactly the same profiles. Unlike String, it
// length-prefixes every field (no delimiter collisions) and sorts
// attribute keys, so it is safe to use as a memoization key.
func (q Query) CacheKey() string {
	var buf [128]byte
	return string(q.AppendCacheKey(buf[:0]))
}

// AppendCacheKey appends CacheKey's bytes to dst and returns the
// extended slice. Hot paths build the key in a stack buffer and index
// a map with string(key), which does not allocate.
func (q Query) AppendCacheKey(dst []byte) []byte {
	dst = appendKeyField(dst, q.Platform)
	dst = appendKeyField(dst, q.DeviceType)
	dst = appendKeyField(dst, q.NameContains)
	dst = appendKeyField(dst, q.Node)
	dst = appendKeyField(dst, string(q.ExcludeID))
	for _, t := range q.Ports {
		dst = append(dst, 'p', '0'+byte(t.Kind), '0'+byte(t.Direction))
		dst = appendKeyField(dst, string(t.Type))
	}
	if len(q.Attributes) > 0 {
		var stack [8]string
		keys := stack[:0]
		for k := range q.Attributes {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			dst = append(dst, 'a')
			dst = appendKeyField(dst, k)
			dst = appendKeyField(dst, q.Attributes[k])
		}
	}
	return dst
}

// appendKeyField appends one length-prefixed CacheKey field.
func appendKeyField(dst []byte, s string) []byte {
	dst = strconv.AppendInt(dst, int64(len(s)), 10)
	dst = append(dst, ':')
	return append(dst, s...)
}

// Summarize strips the criteria that do not belong in a shared interest
// summary. ExcludeID exists to avoid self-matches on the querying node;
// a remote sender cannot know which candidate the receiver will exclude,
// so the summary keeps the profile-shape criteria only. The result is a
// safe over-approximation: everything the original query matches, the
// summary matches too.
func (q Query) Summarize() Query {
	q.ExcludeID = ""
	return q
}

// Fingerprint hashes the query's canonical form (FNV-1a over CacheKey).
// Two queries with equal fingerprints match the same profiles, up to hash
// collisions; the directory uses it to name interest summaries on the
// wire without shipping the full predicate.
func (q Query) Fingerprint() uint64 {
	return fnvString(fnvOffset, q.CacheKey())
}

// Empty reports whether the query has no criteria (matches everything).
func (q Query) Empty() bool {
	return q.Platform == "" && q.DeviceType == "" && q.NameContains == "" &&
		q.Node == "" && len(q.Ports) == 0 && len(q.Attributes) == 0 && q.ExcludeID == ""
}

// String renders the query for logs.
func (q Query) String() string {
	var parts []string
	if q.Platform != "" {
		parts = append(parts, "platform="+q.Platform)
	}
	if q.DeviceType != "" {
		parts = append(parts, "deviceType="+q.DeviceType)
	}
	if q.NameContains != "" {
		parts = append(parts, "name~"+q.NameContains)
	}
	if q.Node != "" {
		parts = append(parts, "node="+q.Node)
	}
	for _, t := range q.Ports {
		parts = append(parts, fmt.Sprintf("port(%s %s %s)", t.Kind, t.Direction, t.Type))
	}
	for k, v := range q.Attributes {
		parts = append(parts, k+"="+v)
	}
	if len(parts) == 0 {
		return "query{any}"
	}
	return "query{" + strings.Join(parts, " ") + "}"
}

// QueryAccepting builds the common "device that accepts this digital type
// and renders it physically" query used throughout the paper's examples:
// e.g. accept "image/jpeg" with physical output "visible/*".
func QueryAccepting(digitalIn DataType, physicalOut DataType) Query {
	q := Query{Ports: []PortTemplate{
		{Kind: Digital, Direction: Input, Type: digitalIn},
	}}
	if physicalOut != "" {
		q.Ports = append(q.Ports, PortTemplate{Kind: Physical, Direction: Output, Type: physicalOut})
	}
	return q
}

// QueryProducing builds a query for devices that produce a digital type
// (e.g. a camera producing "image/jpeg").
func QueryProducing(digitalOut DataType) Query {
	return Query{Ports: []PortTemplate{
		{Kind: Digital, Direction: Output, Type: digitalOut},
	}}
}
