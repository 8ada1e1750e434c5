package plans

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/coverage"
	"repro/internal/jobs"
	"repro/internal/obs"
)

// lineScn builds the shared 4-PoI line test scenario with the given Φ.
func lineScn(t *testing.T, name string, target []float64) coverage.Scenario {
	t.Helper()
	scn, err := coverage.LineScenario(name, len(target), target)
	if err != nil {
		t.Fatalf("LineScenario: %v", err)
	}
	return scn
}

// fakePlan is a structurally valid uniform plan with a chosen cost —
// library bookkeeping does not care how a plan was computed.
func fakePlan(n int, cost float64) *coverage.Plan {
	m := make([][]float64, n)
	for i := range m {
		row := make([]float64, n)
		for j := range row {
			row[j] = 1 / float64(n)
		}
		m[i] = row
	}
	return &coverage.Plan{TransitionMatrix: m, Cost: cost, Iterations: 7}
}

var testObj = coverage.Objectives{Alpha: 1, Beta: 1e-3}

func newLib(t *testing.T, cfg Config) *Library {
	t.Helper()
	l, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return l
}

// TestPublishLookup: the round trip, canonical storage, and provenance
// stamping.
func TestPublishLookup(t *testing.T) {
	l := newLib(t, Config{})
	scn := lineScn(t, "round-trip", []float64{0.4, 0.1, 0.1, 0.4})
	fp, err := l.Publish(scn, testObj, fakePlan(4, 2.5), Provenance{Source: "manual", JobID: "j1"})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}

	e, ok := l.Lookup(fp)
	if !ok {
		t.Fatal("published entry missed")
	}
	if e.Fingerprint != string(fp) {
		t.Errorf("entry fingerprint %s != %s", e.Fingerprint, fp)
	}
	if e.Scenario.Name != "" {
		t.Errorf("stored scenario kept name %q; want canonical (empty)", e.Scenario.Name)
	}
	if len(e.Objectives.PerPoIAlpha) != 4 {
		t.Errorf("objectives not canonicalized: %+v", e.Objectives)
	}
	if e.Provenance.Created.IsZero() {
		t.Error("publish did not stamp Created")
	}
	if e.Provenance.JobID != "j1" || e.Provenance.Source != "manual" {
		t.Errorf("provenance = %+v", e.Provenance)
	}

	// The same problem spelled differently hits the same entry.
	renamed := scn
	renamed.Name = "other-spelling"
	fp2, err := coverage.ScenarioFingerprint(renamed, testObj)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Lookup(fp2); !ok {
		t.Error("renamed scenario missed the cache")
	}

	if _, ok := l.Lookup("deadbeef"); ok {
		t.Error("unknown fingerprint hit")
	}
}

// TestPublishKeepsBest: re-publishing a worse plan never degrades the
// cache; a better plan replaces.
func TestPublishKeepsBest(t *testing.T) {
	l := newLib(t, Config{})
	scn := lineScn(t, "best", []float64{0.25, 0.25, 0.25, 0.25})

	fp, err := l.Publish(scn, testObj, fakePlan(4, 2.0), Provenance{Source: "manual"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Publish(scn, testObj, fakePlan(4, 3.0), Provenance{Source: "manual"}); err != nil {
		t.Fatal(err)
	}
	if e, _ := l.Lookup(fp); e.Plan.Cost != 2.0 {
		t.Errorf("worse re-publish replaced the entry: cost %v", e.Plan.Cost)
	}
	if _, err := l.Publish(scn, testObj, fakePlan(4, 1.5), Provenance{Source: "manual"}); err != nil {
		t.Fatal(err)
	}
	if e, _ := l.Lookup(fp); e.Plan.Cost != 1.5 {
		t.Errorf("better re-publish did not replace: cost %v", e.Plan.Cost)
	}
}

// TestPublishRejectsMalformed: nil plans and row-count mismatches error.
func TestPublishRejectsMalformed(t *testing.T) {
	l := newLib(t, Config{})
	scn := lineScn(t, "bad", []float64{0.5, 0.5})
	if _, err := l.Publish(scn, testObj, nil, Provenance{}); err == nil {
		t.Error("nil plan accepted")
	}
	if _, err := l.Publish(scn, testObj, fakePlan(3, 1), Provenance{}); err == nil {
		t.Error("3-row plan for 2 PoIs accepted")
	}
	if _, err := l.Publish(coverage.Scenario{}, testObj, fakePlan(1, 1), Provenance{}); err == nil {
		t.Error("empty scenario accepted")
	}
}

// TestEvictionWithStore: past LRU capacity, entries fall out of memory
// but survive in the durable tier and promote back on lookup.
func TestEvictionWithStore(t *testing.T) {
	store, err := jobs.NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	l := newLib(t, Config{Store: store, Capacity: 2, Metrics: reg})

	phis := [][]float64{
		{0.4, 0.1, 0.1, 0.4},
		{0.1, 0.4, 0.4, 0.1},
		{0.25, 0.25, 0.25, 0.25},
	}
	fps := make([]coverage.Fingerprint, len(phis))
	for i, phi := range phis {
		fp, err := l.Publish(lineScn(t, "evict", phi), testObj, fakePlan(4, float64(i)), Provenance{Source: "manual"})
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = fp
	}

	st := l.Stat()
	if st.MemoryEntries != 2 || st.IndexedEntries != 3 {
		t.Errorf("Stat = %+v, want 2 in memory, 3 indexed", st)
	}
	// The first publish is the LRU victim; it must still be servable.
	if e, ok := l.Lookup(fps[0]); !ok || e.Plan.Cost != 0 {
		t.Errorf("evicted entry not promoted from store: %v, %v", e, ok)
	}
}

// TestEvictionMemoryOnly: without a durable tier an eviction forgets
// the entry completely (index included), so Nearest never dangles.
func TestEvictionMemoryOnly(t *testing.T) {
	l := newLib(t, Config{Capacity: 1})
	fp1, err := l.Publish(lineScn(t, "m1", []float64{0.4, 0.1, 0.1, 0.4}), testObj, fakePlan(4, 1), Provenance{Source: "manual"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Publish(lineScn(t, "m2", []float64{0.1, 0.4, 0.4, 0.1}), testObj, fakePlan(4, 2), Provenance{Source: "manual"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Lookup(fp1); ok {
		t.Error("evicted memory-only entry still served")
	}
	if st := l.Stat(); st.IndexedEntries != 1 {
		t.Errorf("index kept evicted entry: %+v", st)
	}
}

// TestReloadFromStore: a fresh Library over the same store serves every
// persisted entry, and a torn blob is skipped, not fatal.
func TestReloadFromStore(t *testing.T) {
	dir := t.TempDir()
	store, err := jobs.NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	l := newLib(t, Config{Store: store})
	scn := lineScn(t, "reload", []float64{0.4, 0.1, 0.1, 0.4})
	fp, err := l.Publish(scn, testObj, fakePlan(4, 1.25), Provenance{Source: "manual", JobID: "j9"})
	if err != nil {
		t.Fatal(err)
	}

	// A torn write: half a JSON object under an entry name.
	if err := os.WriteFile(filepath.Join(dir, strings.Repeat("ab", 32)+entrySuffix), []byte(`{"version":1,`), 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := newLib(t, Config{Store: store})
	e, ok := l2.Lookup(fp)
	if !ok {
		t.Fatal("reloaded library missed persisted entry")
	}
	if e.Plan.Cost != 1.25 || e.Provenance.JobID != "j9" {
		t.Errorf("reloaded entry = cost %v, prov %+v", e.Plan.Cost, e.Provenance)
	}
	if st := l2.Stat(); st.IndexedEntries != 1 {
		t.Errorf("torn blob counted: %+v", st.IndexedEntries)
	}
}

// TestNearest: candidates are restricted to the query's topology and
// ranked by Φ distance; the exact fingerprint is excluded.
func TestNearest(t *testing.T) {
	l := newLib(t, Config{})
	near := []float64{0.38, 0.12, 0.1, 0.4} // ‖Δ‖₁ = 0.04 from query
	far := []float64{0.1, 0.4, 0.4, 0.1}    // ‖Δ‖₁ = 1.2 from query
	query := []float64{0.4, 0.1, 0.1, 0.4}

	fpNear, err := l.Publish(lineScn(t, "near", near), testObj, fakePlan(4, 1), Provenance{Source: "manual"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Publish(lineScn(t, "far", far), testObj, fakePlan(4, 1), Provenance{Source: "manual"}); err != nil {
		t.Fatal(err)
	}
	// Same Φ as the query but a different topology: never a candidate.
	if _, err := l.Publish(lineScn(t, "other-topo", []float64{0.4, 0.2, 0.4}), testObj, fakePlan(3, 1), Provenance{Source: "manual"}); err != nil {
		t.Fatal(err)
	}

	e, dist, ok := l.Nearest(lineScn(t, "q", query), testObj, 1, nil)
	if !ok {
		t.Fatal("no neighbor found")
	}
	if e.Fingerprint != string(fpNear) {
		t.Errorf("nearest = %s, want %s", e.Fingerprint, fpNear)
	}
	if want := 0.04; dist < want-1e-9 || dist > want+1e-9 {
		t.Errorf("distance = %v, want ~%v", dist, want)
	}

	// An exact hit is not its own neighbor.
	e2, _, ok := l.Nearest(lineScn(t, "self", near), testObj, 1, nil)
	if ok && e2.Fingerprint == string(fpNear) {
		t.Error("Nearest returned the exact fingerprint")
	}

	// A 3-PoI query only sees the 3-PoI entry.
	e3, _, ok := l.Nearest(lineScn(t, "q3", []float64{0.3, 0.3, 0.4}), testObj, 1, nil)
	if !ok || len(e3.Plan.TransitionMatrix) != 3 {
		t.Errorf("cross-topology neighbor: %v, %v", e3, ok)
	}
}

// TestNearestObjectiveDistance: with Φ equal, closer objective weights
// win.
func TestNearestObjectiveDistance(t *testing.T) {
	l := newLib(t, Config{})
	phi := []float64{0.4, 0.1, 0.1, 0.4}
	scn := lineScn(t, "objd", phi)

	fpClose, err := l.Publish(scn, coverage.Objectives{Alpha: 1.1, Beta: 1e-3}, fakePlan(4, 1), Provenance{Source: "manual"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Publish(scn, coverage.Objectives{Alpha: 50, Beta: 1e-3}, fakePlan(4, 1), Provenance{Source: "manual"}); err != nil {
		t.Fatal(err)
	}
	e, _, ok := l.Nearest(scn, testObj, 1, nil)
	if !ok || e.Fingerprint != string(fpClose) {
		t.Errorf("nearest by objectives = %v, want %s", e, fpClose)
	}
}

// TestWarmStart: exact hits come back at distance zero, neighbors at
// their Φ distance, empty libraries at nothing.
func TestWarmStart(t *testing.T) {
	l := newLib(t, Config{})
	if _, _, ok := l.WarmStart(lineScn(t, "w", []float64{0.5, 0.5}), testObj, 1, nil); ok {
		t.Error("empty library produced a warm start")
	}
	scn := lineScn(t, "w", []float64{0.4, 0.1, 0.1, 0.4})
	if _, err := l.Publish(scn, testObj, fakePlan(4, 1), Provenance{Source: "manual"}); err != nil {
		t.Fatal(err)
	}
	if _, dist, ok := l.WarmStart(scn, testObj, 1, nil); !ok || dist != 0 {
		t.Errorf("exact warm start = dist %v, ok %v; want 0, true", dist, ok)
	}
	shifted := lineScn(t, "w", []float64{0.38, 0.12, 0.1, 0.4})
	if plan, dist, ok := l.WarmStart(shifted, testObj, 1, nil); !ok || dist == 0 || plan == nil {
		t.Errorf("neighbor warm start = dist %v, ok %v", dist, ok)
	}
}

// TestEntryEnvelope: persisted blobs carry the versioned envelope and
// decode back to the entry.
func TestEntryEnvelope(t *testing.T) {
	store, err := jobs.NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := newLib(t, Config{Store: store})
	scn := lineScn(t, "env", []float64{0.4, 0.1, 0.1, 0.4})
	fp, err := l.Publish(scn, testObj, fakePlan(4, 1), Provenance{Source: "manual"})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := store.Get(string(fp) + entrySuffix)
	if err != nil {
		t.Fatalf("entry blob missing: %v", err)
	}
	e, err := decodeEntry(blob)
	if err != nil || e == nil || e.Fingerprint != string(fp) {
		t.Errorf("decodeEntry = %v, %v", e, err)
	}
	if !strings.Contains(string(blob), `"kind": "plan-entry"`) {
		t.Error("envelope kind missing from blob")
	}
}
