package deploy

import (
	"os"
	"path/filepath"
	"testing"

	"repro/coverage"
)

// FuzzLoadDeployment drives the checkpoint-restore decoder with
// arbitrary metadata bytes against a directory holding two valid
// scenario/plan pairs: a single-sensor deployment (dep-000001) and a
// two-sensor joint one (dep-000002). Restore must never panic, and
// anything it accepts must come back with internally consistent
// statistics arrays, a live executor per sensor, and windows that fit
// their capacity and hold only valid PoIs.
func FuzzLoadDeployment(f *testing.F) {
	dir := f.TempDir()

	// Build one real checkpointed deployment per sensor count as the deep
	// seed inputs.
	scn, err := coverage.LineScenario("fuzz-deploy", 3, []float64{0.2, 0.3, 0.5})
	if err != nil {
		f.Fatalf("LineScenario: %v", err)
	}
	obj := coverage.Objectives{Alpha: 1, Beta: 1e-3}
	single, err := coverage.Optimize(scn, obj, coverage.Options{MaxIters: 200, Seed: 3})
	if err != nil {
		f.Fatalf("Optimize: %v", err)
	}
	joint, err := coverage.OptimizeFleet(scn, obj, coverage.Options{MaxIters: 200, Seed: 3}, 2, nil)
	if err != nil {
		f.Fatalf("OptimizeFleet: %v", err)
	}
	rt, err := New(Config{Dir: dir})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	var seeds [][]byte
	for _, plan := range []*coverage.Plan{single, joint} {
		v, err := rt.Create(Spec{
			Scenario: scn, Objectives: obj, Plan: plan, Seed: 9,
			Drift:         DriftConfig{Window: 64, CheckEvery: 32, MinSamples: 32, Threshold: 2},
			IncidentRates: []float64{0.05},
		})
		if err != nil {
			f.Fatalf("Create: %v", err)
		}
		if _, err := rt.Advance(v.ID, 40); err != nil {
			f.Fatalf("Advance: %v", err)
		}
		seed, err := os.ReadFile(filepath.Join(dir, v.ID+".deploy.json"))
		if err != nil {
			f.Fatalf("read seed checkpoint: %v", err)
		}
		seeds = append(seeds, seed)
	}
	rt.Shutdown()
	for _, seed := range seeds {
		f.Add(seed)
	}
	f.Add([]byte(`{"version":1,"kind":"deployment","deployment":null}`))
	f.Add([]byte(`{"version":1,"kind":"deployment","deployment":{"id":"dep-000001","state":"active"}}`))
	f.Add([]byte(`{"version":9,"kind":"deployment","deployment":{"id":"x","state":"bogus"}}`))
	f.Add([]byte(`not json`))

	// A bare runtime pointed at the same directory resolves the valid
	// scenario/plan files; only the metadata under test varies.
	loader := &Runtime{cfg: Config{Dir: dir}}

	f.Fuzz(func(t *testing.T, data []byte) {
		metaPath := filepath.Join(t.TempDir(), "fuzz.deploy.json")
		if err := os.WriteFile(metaPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := loader.loadDeployment(metaPath)
		if err != nil {
			if d != nil {
				t.Fatalf("error %v with non-nil deployment", err)
			}
			return
		}
		if d == nil {
			t.Fatal("nil deployment with nil error")
		}
		m := len(d.spec.Scenario.PoIs)
		if len(d.visits) != m || len(d.lastVisit) != m ||
			len(d.segCount) != m || len(d.segSum) != m || len(d.segMax) != m {
			t.Fatalf("accepted deployment has inconsistent statistics arrays for %d PoIs", m)
		}
		if len(d.execs) == 0 || len(d.wins) != len(d.execs) {
			t.Fatalf("accepted deployment has %d executors and %d windows", len(d.execs), len(d.wins))
		}
		for s, e := range d.execs {
			if e == nil {
				t.Fatalf("accepted deployment has no executor for sensor %d", s)
			}
			if d.winLen > len(d.wins[s]) {
				t.Fatalf("sensor %d window length %d exceeds capacity %d", s, d.winLen, len(d.wins[s]))
			}
			for i := 0; i < d.winLen; i++ {
				if p := d.wins[s][i]; p < 0 || p >= m {
					t.Fatalf("accepted sensor %d window[%d] = %d outside [0, %d)", s, i, p, m)
				}
			}
		}
	})
}
