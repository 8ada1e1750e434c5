package plans

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/coverage"
	"repro/internal/jobs"
)

// TestConcurrentSingleflight hammers the service with concurrent
// queries for a handful of distinct missed fingerprints (plus constant
// publishes and LRU churn) and checks, under -race, that:
//
//   - exactly one job is spawned per unique missed fingerprint,
//   - no publish is lost: once a fingerprint's job finishes, every
//     subsequent query for it hits,
//   - LRU eviction under concurrent lookups never serves a wrong or
//     partial entry.
func TestConcurrentSingleflight(t *testing.T) {
	store, err := jobs.NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A tiny LRU over a real store maximizes eviction/promotion churn.
	lib := newLib(t, Config{Store: store, Capacity: 2})
	fj := newFakeJobs()
	s := newSvc(t, lib, fj)
	ctx := context.Background()

	// Distinct 4-PoI problems: same topology, different Φ, so they also
	// exercise Nearest against each other while racing.
	phis := [][]float64{
		{0.40, 0.10, 0.10, 0.40},
		{0.10, 0.40, 0.40, 0.10},
		{0.25, 0.25, 0.25, 0.25},
		{0.70, 0.10, 0.10, 0.10},
		{0.10, 0.10, 0.10, 0.70},
	}
	scns := make([]coverage.Scenario, len(phis))
	fps := make([]string, len(phis))
	for i, phi := range phis {
		scns[i] = lineScn(t, fmt.Sprintf("cc-%d", i), phi)
		fp, err := coverage.ScenarioFingerprint(scns[i], testObj)
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = string(fp)
	}

	const workers = 8
	const rounds = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (w + r) % len(scns)
				res := s.Query(ctx, Query{Scenario: scns[i], Objectives: testObj})
				switch res.Status {
				case StatusHit:
					if res.Plan == nil || len(res.Plan.TransitionMatrix) != 4 {
						t.Errorf("hit with bad plan: %+v", res)
					}
				case StatusScheduled, StatusPending:
					// Expected while the job is in flight.
				default:
					t.Errorf("unexpected status %q: %+v", res.Status, res)
				}
				// Interleave churn: stats, nearest-neighbor scans, and
				// out-of-band publishes that race the LRU.
				lib.Stat()
				lib.Nearest(scns[i], testObj, 1, nil)
			}
		}(w)
	}
	wg.Wait()

	if got := fj.submissions(); got != len(scns) {
		t.Fatalf("%d jobs spawned for %d unique fingerprints", got, len(scns))
	}

	// Finish every job concurrently — publishes race each other and the
	// ongoing LRU eviction (capacity 2 < 5 entries).
	ids := make([]string, 0, len(scns))
	fj.mu.Lock()
	for id := range fj.specs {
		ids = append(ids, id)
	}
	fj.mu.Unlock()
	var pg sync.WaitGroup
	for _, id := range ids {
		pg.Add(1)
		go func(id string) {
			defer pg.Done()
			fj.finish(s, id, fakePlan(4, 2.0))
		}(id)
	}
	pg.Wait()

	// No publish lost: every fingerprint now hits, from memory or store.
	for i, fp := range fps {
		res := s.Query(ctx, Query{Scenario: scns[i], Objectives: testObj})
		if res.Status != StatusHit {
			t.Errorf("fingerprint %s: status %q after publish", fp[:12], res.Status)
		}
	}
	if got := fj.submissions(); got != len(scns) {
		t.Errorf("post-publish queries spawned jobs: %d total", got)
	}
	if st := lib.Stat(); st.IndexedEntries != len(scns) {
		t.Errorf("index holds %d entries, want %d", st.IndexedEntries, len(scns))
	}
}

// TestConcurrentPublishLookup races direct library publishes (including
// same-fingerprint best-plan contention) against lookups and evictions.
func TestConcurrentPublishLookup(t *testing.T) {
	lib := newLib(t, Config{Capacity: 3})
	scn := lineScn(t, "pub-race", []float64{0.4, 0.1, 0.1, 0.4})
	fp, err := coverage.ScenarioFingerprint(scn, testObj)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				// Costs descend toward 1.0; best-plan-wins must converge there.
				cost := 1.0 + float64((w*50+r)%17)/10
				if _, err := lib.Publish(scn, testObj, fakePlan(4, cost), Provenance{Source: "manual"}); err != nil {
					t.Errorf("Publish: %v", err)
				}
				if e, ok := lib.Lookup(fp); ok {
					if e.Plan == nil || e.Plan.Cost < 1.0 {
						t.Errorf("lookup saw invalid entry: %+v", e)
					}
				}
				// Churn the LRU with other topologies.
				other := lineScn(t, "churn", []float64{1 / 3.0, 1 / 3.0, 1 - 2/3.0})
				if _, err := lib.Publish(other, testObj, fakePlan(3, cost), Provenance{Source: "manual"}); err != nil {
					t.Errorf("Publish churn: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()

	e, ok := lib.Lookup(fp)
	if !ok {
		t.Fatal("entry lost after concurrent publishes")
	}
	if e.Plan.Cost != 1.0 {
		t.Errorf("best plan lost: final cost %v, want 1.0", e.Plan.Cost)
	}
}

// gatedStore is a Store whose Put waits for a release once armed, the
// stand-in for a slow, fsync'd durable write.
type gatedStore struct {
	jobs.Store
	mu      sync.Mutex
	armed   bool
	entered chan struct{} // receives once per gated Put
	release chan struct{} // closed to let gated Puts finish
}

func (g *gatedStore) Put(name string, blob []byte) error {
	g.mu.Lock()
	armed := g.armed
	g.mu.Unlock()
	if armed {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.Store.Put(name, blob)
}

// TestLookupDoesNotWaitOnPut holds a publish inside Store.Put and
// requires lookups of existing entries to return meanwhile. Two
// concurrent publishes of one fingerprint must still keep the cheaper
// plan, whichever reaches the store first.
func TestLookupDoesNotWaitOnPut(t *testing.T) {
	fs, err := jobs.NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store := &gatedStore{Store: fs, entered: make(chan struct{}), release: make(chan struct{})}
	lib := newLib(t, Config{Store: store, Capacity: 1})
	resident := lineScn(t, "resident", []float64{0.4, 0.1, 0.1, 0.4})
	durable := lineScn(t, "durable", []float64{0.25, 0.25, 0.25, 0.25})
	var fps []coverage.Fingerprint
	for _, scn := range []coverage.Scenario{durable, resident} {
		fp, err := lib.Publish(scn, testObj, fakePlan(4, 2), Provenance{Source: "manual"})
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
	}
	// Capacity 1: "durable" now lives only in the store, "resident" in
	// memory too, so the lookups below cover both tiers.

	store.mu.Lock()
	store.armed = true
	store.mu.Unlock()
	hot := lineScn(t, "hot", []float64{0.1, 0.4, 0.4, 0.1})
	errs := make(chan error, 2)
	for _, cost := range []float64{3, 1} {
		go func(cost float64) {
			_, err := lib.Publish(hot, testObj, fakePlan(4, cost), Provenance{Source: "manual"})
			errs <- err
		}(cost)
	}
	<-store.entered // one publish is inside Put; the other waits its turn

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, fp := range fps {
			if e, ok := lib.Lookup(fp); !ok || e.Plan.Cost != 2 {
				t.Errorf("lookup %s during a held Put: ok=%v", fp, ok)
			}
		}
		lib.Stat()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("lookups blocked behind a held Store.Put")
	}

	// Let the first Put finish; the second publish then either writes
	// (it is cheaper) or keeps the first (it is not) — and in the first
	// case enters Put again.
	close(store.release)
	go func() {
		for range store.entered {
		}
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("Publish: %v", err)
		}
	}
	fp, err := coverage.ScenarioFingerprint(hot, testObj)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := lib.Lookup(fp)
	if !ok || e.Plan.Cost != 1 {
		t.Fatalf("after concurrent publishes: ok=%v entry %+v, want the cost-1 plan", ok, e)
	}
	reloaded := newLib(t, Config{Store: fs})
	if e, ok := reloaded.Lookup(fp); !ok || e.Plan.Cost != 1 {
		t.Fatalf("durable tier kept ok=%v entry %+v, want the cost-1 plan", ok, e)
	}
	close(store.entered)
}
