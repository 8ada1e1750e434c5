package deploy_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"repro/coverage"
	"repro/internal/deploy"
	"repro/internal/jobs"
	"repro/internal/plans"
)

// goldenDigests pins a whole deployment lifecycle across versions of
// the runtime: every view it returned, the checkpoint files it wrote,
// the re-optimization jobs it submitted plus the library entry it left
// behind, and the view of the same deployment resumed from disk and
// advanced further. Wall-clock fields are zeroed before hashing; every
// other byte counts.
var goldenDigests = map[string]map[string]string{
	"single": {
		"views":      "5b2b89b492b2f5601ddb454886947417c5e5b1dabcc5f1a0e1fab80f6718d69a",
		"checkpoint": "be8b69259b0680a42019a1b871d67a264af78598e00e4746c61f62f6aebece22",
		"reopt":      "84162f2f554faaec6da4b46c1da618b782677084282bcf6c1d9b2da249230603",
		"resumed":    "2be60ff340441f83e2f8e0fb3c5200de681664b6e63cdaee8387d7e9f5bfc927",
	},
	"fleet": {
		"views":      "76d663edd2d98e8bda305588195f53a9f8c483a3553fbb983384a7b9f8fc13bb",
		"checkpoint": "5b4712a156d001f4d5b3c90ac6c10e9d26ff2b58230d61b6ac679a9722b37c0b",
		"reopt":      "a5df88db6b905a144531ec9062ac1bd0dfa9f0eeb0a8a347a630653b5529c924",
		"resumed":    "86fe8dece1208f8772e2b85ef88f627a810f62259adff822b08997f2d46848d6",
	},
}

// timestampRE matches the RFC 3339 timestamps encoding/json writes for
// time.Time values.
var timestampRE = regexp.MustCompile(`"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}(\.\d+)?(Z|[+-]\d{2}:\d{2})"`)

// zeroTimes blanks every timestamp in a JSON document.
func zeroTimes(blob []byte) []byte {
	return timestampRE.ReplaceAll(blob, []byte(`"0"`))
}

// recordingJobs is a job manager that remembers every submission.
type recordingJobs struct {
	*jobs.Manager
	mu   sync.Mutex
	subs [][]byte
}

func (r *recordingJobs) SubmitCtx(ctx context.Context, spec jobs.Spec) (jobs.View, error) {
	v, err := r.Manager.SubmitCtx(ctx, spec)
	blob, merr := json.Marshal(struct {
		ID   string    `json:"id"`
		Spec jobs.Spec `json:"spec"`
	}{v.ID, spec})
	if merr != nil {
		panic(merr)
	}
	r.mu.Lock()
	r.subs = append(r.subs, blob)
	r.mu.Unlock()
	return v, err
}

// digest accumulates JSON documents into one SHA-256.
type digest struct{ h []byte }

func (d *digest) add(t *testing.T, v any) {
	t.Helper()
	blob, ok := v.([]byte)
	if !ok {
		var err error
		if blob, err = json.Marshal(v); err != nil {
			t.Fatalf("marshal: %v", err)
		}
	}
	d.h = append(d.h, zeroTimes(blob)...)
	d.h = append(d.h, '\n')
}

func (d *digest) sum() string {
	s := sha256.Sum256(d.h)
	return hex.EncodeToString(s[:])
}

// goldenRun drives one deployment through creation, (for one sensor)
// an observed segment, a drift trigger that the plan library resolves,
// a drift trigger that a re-optimization job resolves, a checkpoint,
// and a resume, and returns the digests of everything it saw.
func goldenRun(t *testing.T, sensors int) map[string]string {
	scn, obj := lineScenario(t)
	var deployed, cached *coverage.Plan
	if sensors == 1 {
		deployed, cached = weakPlan(t, scn, obj), optimizedPlan(t, scn, obj)
	} else {
		var err error
		deployed, err = coverage.OptimizeFleet(scn, obj, coverage.Options{MaxIters: 2, Seed: 11}, sensors, nil)
		if err != nil {
			t.Fatalf("OptimizeFleet: %v", err)
		}
		cached = fleetPlan(t, scn, obj)
	}
	if cached.Cost >= deployed.Cost {
		t.Fatalf("premise: cached cost %v >= deployed %v", cached.Cost, deployed.Cost)
	}

	lib := newLibrary(t)
	if _, err := lib.Publish(scn, obj, cached, plans.Provenance{
		Source: "manual", Created: time.Unix(0, 0).UTC(),
	}); err != nil {
		t.Fatalf("Publish: %v", err)
	}
	mgr, err := jobs.New(jobs.Config{Workers: 1})
	if err != nil {
		t.Fatalf("jobs.New: %v", err)
	}
	defer mgr.Shutdown(context.Background())
	rec := &recordingJobs{Manager: mgr}

	dir := t.TempDir()
	cfg := deploy.Config{Jobs: rec, Plans: lib, Dir: dir}
	rt, err := deploy.New(cfg)
	if err != nil {
		t.Fatalf("deploy.New: %v", err)
	}
	var views digest
	v, err := rt.Create(deploy.Spec{
		Scenario:   scn,
		Objectives: obj,
		Plan:       deployed,
		Start:      1,
		Seed:       5,
		Drift: deploy.DriftConfig{Window: 128, CheckEvery: 32, MinSamples: 64,
			Threshold: 0.001, Cooldown: 64},
		Reopt:         deploy.ReoptConfig{Options: coverage.Options{MaxIters: 200, Seed: 21}},
		IncidentRates: []float64{0.03, 0.01, 0.02},
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	views.add(t, v)
	if sensors == 1 {
		src, err := coverage.NewExecutor(biasedPlan(), 0, 77)
		if err != nil {
			t.Fatalf("NewExecutor: %v", err)
		}
		if v, err = rt.Observe(v.ID, src.Walk(96)); err != nil {
			t.Fatalf("Observe: %v", err)
		}
		views.add(t, v)
	}
	// Resolve every submitted job before the next call, so the swap lands
	// at a fixed step whatever the job's wall time.
	for i := 0; i < 12; i++ {
		if v.ReoptJob != "" {
			waitForJob(t, mgr, v.ReoptJob)
		}
		if v, err = rt.Advance(v.ID, 32); err != nil {
			t.Fatalf("Advance: %v", err)
		}
		views.add(t, v)
	}
	if v.ReoptJob != "" {
		waitForJob(t, mgr, v.ReoptJob)
	}
	var libSwaps, jobSwaps int
	for _, s := range v.Swaps {
		if s.JobID == "" {
			libSwaps++
		} else {
			jobSwaps++
		}
	}
	if libSwaps == 0 || jobSwaps == 0 {
		t.Fatalf("%d library swaps and %d job swaps, want both", libSwaps, jobSwaps)
	}
	if v.Incidents == nil {
		t.Fatal("view has no incident statistics")
	}
	rt.Shutdown()

	var ckpt digest
	for _, suffix := range []string{".deploy.json", ".scenario.json", ".plan.json"} {
		blob, err := os.ReadFile(filepath.Join(dir, v.ID+suffix))
		if err != nil {
			t.Fatalf("read checkpoint: %v", err)
		}
		ckpt.add(t, blob)
	}

	var reopt digest
	for _, sub := range rec.subs {
		reopt.add(t, sub)
	}
	var fp coverage.Fingerprint
	if sensors == 1 {
		fp, err = coverage.ScenarioFingerprint(scn, obj)
	} else {
		fp, err = coverage.FleetFingerprint(scn, obj, sensors, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	e, err := lib.Get(string(fp))
	if err != nil {
		t.Fatalf("library entry: %v", err)
	}
	reopt.add(t, e)

	rt2, err := deploy.New(cfg)
	if err != nil {
		t.Fatalf("deploy.New (resume): %v", err)
	}
	defer rt2.Shutdown()
	var resumed digest
	if v, err = rt2.Advance(v.ID, 200); err != nil {
		t.Fatalf("Advance after resume: %v", err)
	}
	resumed.add(t, v)

	return map[string]string{
		"views":      views.sum(),
		"checkpoint": ckpt.sum(),
		"reopt":      reopt.sum(),
		"resumed":    resumed.sum(),
	}
}

// TestGoldenDeployments holds single-sensor and two-sensor deployments
// to digests captured from an earlier build of the runtime, so a
// refactor that changes any trajectory, statistic, checkpoint byte, job
// submission or library entry fails here — not just one that breaks
// resume against its own build.
func TestGoldenDeployments(t *testing.T) {
	for name, sensors := range map[string]int{"single": 1, "fleet": 2} {
		t.Run(name, func(t *testing.T) {
			got := goldenRun(t, sensors)
			for _, part := range []string{"views", "checkpoint", "reopt", "resumed"} {
				if want := goldenDigests[name][part]; got[part] != want {
					t.Errorf("%s digest = %s, want %s", part, got[part], want)
				}
			}
		})
	}
}
