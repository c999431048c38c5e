package directory

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
)

var updateGolden = flag.Bool("update-golden", false, "re-record testdata/golden vectors from the literals in golden_test.go")

// Golden vectors pin the directory's wire and log encodings: every
// advert type a node emits and every WAL record type it journals, as hex
// under testdata/golden. Each vector is built from a literal, never from
// a running directory, so map-ordered state (a snapshot's Locals and
// Remotes) carries one entry and the bytes are reproducible.

// goldenProfile is the sealed profile every vector carries.
func goldenProfile(node, local string) core.Profile {
	p := testProfile(node, local)
	p.Attributes = map[string]string{"room": "hall"}
	p.SyncShapePorts()
	return p
}

// Values a WAL-backed node stamps on every advert it originates, besides
// its relay TTL: its wall-clock-seeded advert sequence and its restart
// epoch.
const (
	goldenSeq   = 1760659200000000001
	goldenEpoch = 1
)

// goldenAdverts lists one advert per type, as its sender emits it.
func goldenAdverts() map[string]advert {
	cam := goldenProfile("h1", "cam")
	interest := &InterestSummary{Queries: []core.Query{{Platform: "upnp"}}, IDs: []core.TranslatorID{"h1/umiddle/cam"}}
	ifps := map[string]uint64{"8071206339402219811": 5340128395523311297}
	return map[string]advert{
		"advert_announce": {Type: "announce", Node: "h1", Zone: "z1", Profiles: []core.Profile{cam},
			LeaseMillis: 2000, Version: 3, Fp: 11022334455667788990, Interest: interest,
			Seq: goldenSeq, TTL: DefaultRelayTTL, Epoch: goldenEpoch},
		"advert_add": {Type: "add", Node: "h1", Zone: "z1", Profiles: []core.Profile{cam},
			LeaseMillis: 2000, Version: 4, Fp: 11022334455667788990, Ifps: ifps, Filtered: true,
			Seq: goldenSeq + 1, TTL: DefaultRelayTTL, Epoch: goldenEpoch},
		"advert_remove": {Type: "remove", Node: "h1", Zone: "z1", Removed: []core.TranslatorID{cam.ID},
			Version: 5, Fp: 0x1d, Ifps: ifps,
			Seq: goldenSeq + 2, TTL: DefaultRelayTTL, Epoch: goldenEpoch},
		"advert_heartbeat": {Type: "heartbeat", Node: "h1", Zone: "z1",
			LeaseMillis: 2000, Version: 5, Fp: 0x1d, Interest: interest, Ifps: ifps,
			Seq: goldenSeq + 3, TTL: DefaultRelayTTL, Epoch: goldenEpoch},
		"advert_sync": {Type: "sync", Node: "h1", Zone: "z1", Profiles: []core.Profile{cam},
			LeaseMillis: 2000, Version: 6, Fp: 11022334455667788990, Interest: interest, Ifps: ifps, Filtered: true,
			Seq: goldenSeq + 4, TTL: DefaultRelayTTL, Epoch: goldenEpoch},
		// h2 (zone z2) asks h1 for a sync.
		"advert_sync_req": {Type: "sync_req", Node: "h2", Zone: "z2", Target: "h1",
			Seq: goldenSeq + 5, TTL: DefaultRelayTTL, Epoch: goldenEpoch},
		"advert_bye": {Type: "bye", Node: "h1", Zone: "z1",
			Seq: goldenSeq + 6, TTL: DefaultRelayTTL, Epoch: goldenEpoch},
		"advert_restarting": {Type: "restarting", Node: "h1", Zone: "z1", LeaseMillis: 10000,
			Seq: goldenSeq + 7, TTL: DefaultRelayTTL, Epoch: goldenEpoch},
		// Relay b replays owner a's zone to a new neighbor: unnumbered, no
		// relay TTL, and routed through b.
		"advert_bootstrap": {Type: "bootstrap", Node: "a", Zone: "zoneA",
			Profiles: []core.Profile{goldenProfile("a", "cam")}, LeaseMillis: 2000, Via: []string{"b"}},
	}
}

// goldenRecords lists one directory WAL record per type; a vector is the
// record type byte followed by the JSON payload.
func goldenRecords() map[string]struct {
	typ     byte
	payload any
} {
	cam := goldenProfile("h1", "cam")
	tv := goldenProfile("h2", "tv")
	type rec = struct {
		typ     byte
		payload any
	}
	return map[string]rec{
		"walrec_epoch":        {recEpoch, &persistEpoch{Epoch: 3}},
		"walrec_local_add":    {recLocalAdd, &persistLocal{Profile: cam, Fp: 11022334455667788990}},
		"walrec_local_remove": {recLocalRemove, &persistRemove{ID: cam.ID}},
		"walrec_snapshot": {recSnapshot, &persistState{
			Epoch: 3, Node: "h1", Zone: "z1", Version: 7,
			Locals:  []persistLocal{{Profile: cam, Fp: 11022334455667788990}},
			Remotes: []persistRemoteEntry{{Profile: tv, WireID: tv.ID, Zone: "z2", Fp: 0x2e}},
			Nodes:   map[string]persistNodeEntry{"h2": {LeaseMillis: 2000, Version: 9, Epoch: 2, Zone: "z2"}},
		}},
	}
}

func TestGoldenAdverts(t *testing.T) {
	for name, a := range goldenAdverts() {
		t.Run(name, func(t *testing.T) {
			enc, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			vec := checkGolden(t, name, enc)
			var dec advert
			if err := json.Unmarshal(vec, &dec); err != nil {
				t.Fatalf("vector does not decode: %v", err)
			}
			re, err := json.Marshal(dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, vec) {
				t.Fatalf("decode/re-encode changed the bytes:\n vector %s\n again  %s", vec, re)
			}
		})
	}
}

func TestGoldenWALRecords(t *testing.T) {
	for name, r := range goldenRecords() {
		t.Run(name, func(t *testing.T) {
			payload, err := json.Marshal(r.payload)
			if err != nil {
				t.Fatal(err)
			}
			vec := checkGolden(t, name, append([]byte{r.typ}, payload...))
			if vec[0] != r.typ {
				t.Fatalf("record type %d, want %d", vec[0], r.typ)
			}
			dec := reflect.New(reflect.TypeOf(r.payload).Elem()).Interface()
			if err := json.Unmarshal(vec[1:], dec); err != nil {
				t.Fatalf("vector does not decode: %v", err)
			}
			re, err := json.Marshal(dec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, vec[1:]) {
				t.Fatalf("decode/re-encode changed the bytes:\n vector %s\n again  %s", vec[1:], re)
			}
		})
	}
}

// checkGolden compares a literal's encoding with its recorded vector
// (re-recording it first under -update-golden) and returns the vector.
func checkGolden(t *testing.T, name string, enc []byte) []byte {
	t.Helper()
	path := filepath.Join("testdata", "golden", name+".hex")
	if *updateGolden {
		var b strings.Builder
		for rest := enc; len(rest) > 0; {
			n := min(len(rest), 32)
			b.WriteString(hex.EncodeToString(rest[:n]))
			b.WriteByte('\n')
			rest = rest[n:]
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	vec, err := readGolden(path)
	if err != nil {
		t.Fatalf("%v (record with -update-golden)", err)
	}
	if !bytes.Equal(enc, vec) {
		t.Fatalf("encoding differs from %s:\n vector  %q\n encoded %q", path, vec, enc)
	}
	return vec
}

// readGolden decodes one hex vector file (whitespace ignored).
func readGolden(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
}

// goldenSeeds adds every vector matching pattern under testdata/golden
// to a fuzz corpus.
func goldenSeeds(f *testing.F, pattern string) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", pattern))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no golden vectors match %s: %v", pattern, err)
	}
	for _, p := range paths {
		vec, err := readGolden(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(vec)
	}
}
