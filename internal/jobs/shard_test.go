package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/coverage"
	"repro/internal/obs"
)

// shardManager builds a sharding manager over dir with test-friendly
// timings: fine-grained polling and a short-but-safe lease TTL.
func shardManager(t *testing.T, dir, node string, cfg Config) *Manager {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 1
	}
	cfg.Dir = dir
	cfg.Shard.Enabled = true
	cfg.Shard.Node = node
	if cfg.Shard.LeaseTTL == 0 {
		cfg.Shard.LeaseTTL = 2 * time.Second
	}
	if cfg.Shard.Poll == 0 {
		cfg.Shard.Poll = 20 * time.Millisecond
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatalf("New(%s): %v", node, err)
	}
	return m
}

// assertPlansEqual checks bit-for-bit equality of two plans.
func assertPlansEqual(t *testing.T, got, want *coverage.Plan, label string) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: got=%v want=%v", label, got, want)
	}
	if got.Cost != want.Cost {
		t.Fatalf("%s: cost %.17g, want %.17g", label, got.Cost, want.Cost)
	}
	if got.Iterations != want.Iterations {
		t.Errorf("%s: iterations %d, want %d", label, got.Iterations, want.Iterations)
	}
	if len(got.TransitionMatrix) != len(want.TransitionMatrix) {
		t.Fatalf("%s: matrix rows %d, want %d",
			label, len(got.TransitionMatrix), len(want.TransitionMatrix))
	}
	for i := range got.TransitionMatrix {
		gr, wr := got.TransitionMatrix[i], want.TransitionMatrix[i]
		if len(gr) != len(wr) {
			t.Fatalf("%s: row %d size %d, want %d", label, i, len(gr), len(wr))
		}
		for j := range gr {
			if gr[j] != wr[j] {
				t.Fatalf("%s: P[%d][%d] = %.17g, want %.17g", label, i, j, gr[j], wr[j])
			}
		}
	}
}

// TestCASSemantics pins the CompareAndSwap contract on FSStore:
// create-if-absent, conflict on stale bytes, swap, and delete.
func TestCASSemantics(t *testing.T) {
	s, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CompareAndSwap("x.json", nil, []byte("v1")); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := s.CompareAndSwap("x.json", nil, []byte("v2")); !errors.Is(err, ErrCASConflict) {
		t.Fatalf("create-over-existing err = %v, want ErrCASConflict", err)
	}
	if err := s.CompareAndSwap("x.json", []byte("stale"), []byte("v2")); !errors.Is(err, ErrCASConflict) {
		t.Fatalf("stale swap err = %v, want ErrCASConflict", err)
	}
	if err := s.CompareAndSwap("x.json", []byte("v1"), []byte("v2")); err != nil {
		t.Fatalf("swap: %v", err)
	}
	got, err := s.Get("x.json")
	if err != nil || string(got) != "v2" {
		t.Fatalf("after swap: %q, %v", got, err)
	}
	if err := s.CompareAndSwap("x.json", []byte("v1"), nil); !errors.Is(err, ErrCASConflict) {
		t.Fatalf("stale delete err = %v, want ErrCASConflict", err)
	}
	if err := s.CompareAndSwap("x.json", []byte("v2"), nil); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := s.Get("x.json"); err == nil {
		t.Fatal("blob survived CAS delete")
	}
	// Lock files must stay invisible to List.
	names, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		t.Errorf("List leaked %q after CAS traffic", n)
	}
}

// TestCASSingleWinner races N claimants for one create-if-absent slot,
// the exact shape of a lease claim: exactly one may win.
func TestCASSingleWinner(t *testing.T) {
	s, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const claimants = 16
	for round := 0; round < 8; round++ {
		name := fmt.Sprintf("lease-%d.json", round)
		var wins int32
		var mu sync.Mutex
		var wg sync.WaitGroup
		for c := 0; c < claimants; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				err := s.CompareAndSwap(name, nil, []byte(fmt.Sprintf("claimant-%d", c)))
				if err == nil {
					mu.Lock()
					wins++
					mu.Unlock()
				} else if !errors.Is(err, ErrCASConflict) {
					t.Errorf("round %d claimant %d: %v", round, c, err)
				}
			}(c)
		}
		wg.Wait()
		if wins != 1 {
			t.Fatalf("round %d: %d winners, want exactly 1", round, wins)
		}
	}
}

// TestFSStorePutConcurrentNoTear hammers one blob name from many
// writers while a reader checks every observation is a complete
// payload — the multi-node torn-write audit. (The old fixed temp name
// interleaved concurrent writers into one temp file.)
func TestFSStorePutConcurrentNoTear(t *testing.T) {
	s, err := NewFSStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 8
	payload := func(w int) []byte {
		return bytes.Repeat([]byte{byte('a' + w)}, 4096)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			blob := payload(w)
			for {
				select {
				case <-stop:
					return
				default:
					if err := s.Put("hot.json", blob); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	deadline := time.Now().Add(500 * time.Millisecond)
	for time.Now().Before(deadline) {
		got, err := s.Get("hot.json")
		if err != nil {
			continue // not yet written, or mid-rename on some filesystems
		}
		if len(got) != 4096 {
			t.Fatalf("torn read: %d bytes", len(got))
		}
		for i := 1; i < len(got); i++ {
			if got[i] != got[0] {
				t.Fatalf("torn read: mixed writers at byte %d (%q vs %q)", i, got[i], got[0])
			}
		}
	}
	close(stop)
	wg.Wait()
}

// paperSpecs returns one job spec per paper topology.
func paperSpecs(t *testing.T, maxIters, restarts int, seed uint64) []Spec {
	t.Helper()
	specs := make([]Spec, 0, 4)
	for n := 1; n <= 4; n++ {
		scn, err := coverage.PaperTopology(n)
		if err != nil {
			t.Fatalf("PaperTopology(%d): %v", n, err)
		}
		specs = append(specs, Spec{
			Scenario:   scn,
			Objectives: coverage.Objectives{Alpha: 1, Beta: 1e-3},
			Options:    coverage.Options{MaxIters: maxIters, Seed: seed},
			Restarts:   restarts,
		})
	}
	return specs
}

// TestShardMergeDeterminismProperty checks the merge reduction against
// sequential OptimizeBest on the four paper topologies: for every
// shard size, running each restart independently, grouping into
// shards, and reducing the SHUFFLED shard results with
// pickShardWinner selects exactly the restart OptimizeBest keeps.
func TestShardMergeDeterminismProperty(t *testing.T) {
	const restarts = 7 // prime, so shard sizes 2 and 3 leave ragged tails
	rng := rand.New(rand.NewSource(42))
	for ti, spec := range paperSpecs(t, 30, restarts, 12345) {
		want, err := coverage.OptimizeBest(spec.Scenario, spec.Objectives, spec.Options, restarts)
		if err != nil {
			t.Fatalf("topology %d: OptimizeBest: %v", ti+1, err)
		}
		// Run each restart independently, exactly as a shard worker does.
		seeds := coverage.SplitSeeds(spec.Options.Seed, restarts)
		plans := make([]*coverage.Plan, restarts)
		for r := range seeds {
			opts := spec.Options
			opts.Seed = seeds[r]
			p, err := coverage.Optimize(spec.Scenario, spec.Objectives, opts)
			if err != nil {
				t.Fatalf("topology %d restart %d: %v", ti+1, r, err)
			}
			plans[r] = p
		}
		for _, shardSize := range []int{1, 2, 3, restarts} {
			table := newShardTable("job-x", restarts, shardSize)
			results := make([]shardResult, 0, table.Shards)
			for k := 0; k < table.Shards; k++ {
				lo, hi := table.bounds(k)
				res := shardResult{Shard: k}
				for r := lo; r < hi; r++ {
					if res.BestCost == nil || plans[r].Cost < *res.BestCost {
						c := plans[r].Cost
						res.BestCost = &c
						res.BestRestart = r
					}
				}
				results = append(results, res)
			}
			for trial := 0; trial < 4; trial++ {
				rng.Shuffle(len(results), func(a, b int) {
					results[a], results[b] = results[b], results[a]
				})
				winner, ok := pickShardWinner(results)
				if !ok {
					t.Fatalf("topology %d size %d: no winner", ti+1, shardSize)
				}
				got := plans[winner.BestRestart]
				assertPlansEqual(t, got, want,
					fmt.Sprintf("topology %d shardSize %d trial %d", ti+1, shardSize, trial))
			}
		}
	}
}

// TestShardedMatchesOptimizeBest is the golden-trace gate for the
// whole protocol: three managers sharing one store cooperate on a
// 6-restart job submitted to one of them, and the merged plan must be
// bit-for-bit identical to single-process OptimizeBest. Along the way
// it pins exactly-once semantics: every restart completes durably on
// exactly one node, and the done listener fires once cluster-wide.
func TestShardedMatchesOptimizeBest(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, 60, 6, 777)

	var mu sync.Mutex
	completed := make(map[int][]string) // restart -> nodes that completed it
	var doneFires []string
	mgrs := make([]*Manager, 0, 3)
	for i := 0; i < 3; i++ {
		node := fmt.Sprintf("n%d", i)
		m := shardManager(t, dir, node, Config{
			Metrics: obs.NewRegistry(),
			testAfterShardRestart: func(jobID string, shard, restart int) {
				mu.Lock()
				completed[restart] = append(completed[restart], node)
				mu.Unlock()
			},
		})
		m.SetDoneListener(func(jobID string, spec Spec, plan *coverage.Plan) {
			mu.Lock()
			doneFires = append(doneFires, node)
			mu.Unlock()
		})
		defer shutdown(t, m)
		mgrs = append(mgrs, m)
	}

	v, err := mgrs[0].Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitFor(t, 60*time.Second, func() bool {
		got, err := mgrs[0].Get(v.ID)
		return err == nil && got.State == StateDone
	}, "sharded job to finish")

	want, err := coverage.OptimizeBest(spec.Scenario, spec.Objectives, spec.Options, spec.Restarts)
	if err != nil {
		t.Fatalf("OptimizeBest: %v", err)
	}
	// Every node must serve the identical merged plan (cluster-aware reads).
	for i, m := range mgrs {
		waitFor(t, 10*time.Second, func() bool {
			got, err := m.Get(v.ID)
			return err == nil && got.State == StateDone
		}, fmt.Sprintf("node %d to observe completion", i))
		plan, err := m.Plan(v.ID)
		if err != nil {
			t.Fatalf("node %d Plan: %v", i, err)
		}
		assertPlansEqual(t, plan, want, fmt.Sprintf("node %d", i))
	}

	mu.Lock()
	defer mu.Unlock()
	for r := 0; r < spec.Restarts; r++ {
		if n := len(completed[r]); n != 1 {
			t.Errorf("restart %d completed %d times (%v), want exactly 1", r, n, completed[r])
		}
	}
	if len(doneFires) != 1 {
		t.Errorf("done listener fired %d times (%v), want exactly 1", len(doneFires), doneFires)
	}
	// The final view must report full cluster-wide progress.
	got, err := mgrs[0].Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Progress.RestartsDone != spec.Restarts {
		t.Errorf("restartsDone = %d, want %d", got.Progress.RestartsDone, spec.Restarts)
	}
}

// TestLeaseTakeoverResume kills a worker holding a lease mid-shard
// (the crash hook keeps its leases in the store) and checks another
// node takes the lease over after expiry, resumes the shard from its
// last durable restart, and produces the bit-exact plan.
func TestLeaseTakeoverResume(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, 60, 4, 909)

	// Node A: 2-restart shards; crash after the first durable restart.
	// The hook parks the worker until A's pool context is cancelled, so
	// A provably dies holding its lease with restart 0 durable and
	// restart 1 never attempted.
	crashed := make(chan struct{})
	release := make(chan struct{})
	a := shardManager(t, dir, "a", Config{
		Metrics:        obs.NewRegistry(),
		Shard:          ShardConfig{ShardSize: 2, LeaseTTL: 500 * time.Millisecond},
		testDropLeases: true,
		testAfterShardRestart: func(jobID string, shard, restart int) {
			if restart == 0 {
				close(crashed)
				<-release
			}
		},
	})
	v, err := a.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	<-crashed
	// Hard-stop A; its lease stays in the store like a real crash. The
	// worker is parked in the hook, so cancel the pool first, then let
	// the hook return into an already-dead context.
	shutErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutErr <- a.Shutdown(ctx)
	}()
	waitFor(t, 10*time.Second, func() bool { return a.ctx.Err() != nil },
		"node a pool context to cancel")
	close(release)
	if err := <-shutErr; err != nil {
		t.Fatalf("Shutdown(a): %v", err)
	}

	var mu sync.Mutex
	var resumed []int
	breg := obs.NewRegistry()
	b := shardManager(t, dir, "b", Config{
		Metrics: breg,
		Shard:   ShardConfig{ShardSize: 2, LeaseTTL: 500 * time.Millisecond},
		testAfterShardRestart: func(jobID string, shard, restart int) {
			mu.Lock()
			resumed = append(resumed, restart)
			mu.Unlock()
		},
	})
	defer shutdown(t, b)

	waitFor(t, 60*time.Second, func() bool {
		got, err := b.Get(v.ID)
		return err == nil && got.State == StateDone
	}, "takeover node to finish the job")

	want, err := coverage.OptimizeBest(spec.Scenario, spec.Objectives, spec.Options, spec.Restarts)
	if err != nil {
		t.Fatalf("OptimizeBest: %v", err)
	}
	plan, err := b.Plan(v.ID)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	assertPlansEqual(t, plan, want, "takeover")

	// B must have resumed — not restarted — the crashed shard: restart 0
	// completed durably on A, so B never re-completes it.
	mu.Lock()
	for _, r := range resumed {
		if r == 0 {
			t.Errorf("restart 0 re-executed after takeover; resumed list %v", resumed)
		}
	}
	mu.Unlock()

	// The takeover must be visible in the lease metrics.
	var sawTakeover bool
	for _, mi := range breg.Registered() {
		if mi.Name == "jobs_lease_takeovers_total" {
			sawTakeover = true
		}
	}
	if !sawTakeover {
		t.Error("jobs_lease_takeovers_total not registered")
	}
	var buf bytes.Buffer
	if err := breg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("jobs_lease_takeovers_total 1")) {
		t.Errorf("expected exactly one lease takeover, metrics:\n%s",
			grepMetric(buf.String(), "jobs_lease"))
	}
}

// TestHardKillLeaseOutsideCluster: a manager outside a cluster dies
// hard holding its job's lease; the same store restarted under another
// node name (a new process gets a new default name) sees that lease as
// foreign and live, waits out LeaseTTL, takes the shard over and
// finishes the job bit-exactly from its last durable restart.
func TestHardKillLeaseOutsideCluster(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, 60, 4, 606)
	const ttl = 500 * time.Millisecond
	node := func(name string) ShardConfig {
		return ShardConfig{Node: name, LeaseTTL: ttl, Poll: 20 * time.Millisecond}
	}

	crashed := make(chan struct{})
	release := make(chan struct{})
	a, err := New(Config{Workers: 1, Dir: dir, Shard: node("a"),
		testDropLeases: true,
		testAfterShardRestart: func(_ string, _, restart int) {
			if restart == 0 {
				close(crashed)
				<-release
			}
		},
	})
	if err != nil {
		t.Fatalf("New(a): %v", err)
	}
	v, err := a.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if v.ID != "job-000001" {
		t.Errorf("job ID outside a cluster = %q, want job-000001", v.ID)
	}
	<-crashed
	shutErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutErr <- a.Shutdown(ctx)
	}()
	waitFor(t, 10*time.Second, func() bool { return a.ctx.Err() != nil },
		"node a pool context to cancel")
	close(release)
	if err := <-shutErr; err != nil {
		t.Fatalf("Shutdown(a): %v", err)
	}
	if l, _, err := a.readLease(v.ID, 0); err != nil || l == nil || l.Node != "a" || !l.live(time.Now()) {
		t.Fatalf("lease after the kill = %+v, %v; want a live lease of node a", l, err)
	}

	var mu sync.Mutex
	var resumed []int
	breg := obs.NewRegistry()
	b, err := New(Config{Workers: 1, Dir: dir, Shard: node("b"), Metrics: breg,
		testAfterShardRestart: func(_ string, _, restart int) {
			mu.Lock()
			resumed = append(resumed, restart)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("New(b): %v", err)
	}
	defer shutdown(t, b)
	waitFor(t, 60*time.Second, func() bool {
		got, err := b.Get(v.ID)
		return err == nil && got.State == StateDone
	}, "restarted manager to finish the job")

	want, err := coverage.OptimizeBest(spec.Scenario, spec.Objectives, spec.Options, spec.Restarts)
	if err != nil {
		t.Fatalf("OptimizeBest: %v", err)
	}
	plan, err := b.Plan(v.ID)
	if err != nil {
		t.Fatalf("Plan: %v", err)
	}
	assertPlansEqual(t, plan, want, "restarted manager")
	mu.Lock()
	if fmt.Sprint(resumed) != "[1 2 3]" {
		t.Errorf("restarts run after the kill = %v, want [1 2 3]", resumed)
	}
	mu.Unlock()
	if got := b.met.leaseTakeovers.Value(); got != 1 {
		t.Errorf("lease takeovers = %v, want 1", got)
	}
}

// grepMetric filters exposition text to lines mentioning prefix.
func grepMetric(text, prefix string) string {
	var out bytes.Buffer
	for _, line := range bytes.Split([]byte(text), []byte("\n")) {
		if bytes.Contains(line, []byte(prefix)) && !bytes.HasPrefix(line, []byte("#")) {
			out.Write(line)
			out.WriteByte('\n')
		}
	}
	return out.String()
}

// TestTornShardStateRecovered injects a torn shard-state blob under a
// parked job and checks the claim path logs, re-runs the shard from
// scratch, and still converges to the bit-exact answer.
func TestTornShardStateRecovered(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, 60, 2, 4242)

	// Pre-write the job as a crashed foreign node would have left it:
	// full checkpoint triple + shard table, plus one torn shard state.
	seed, err := NewFSStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, err := func() (View, error) {
		w := &Manager{cfg: Config{}, jobs: map[string]*job{}, store: seed, log: obs.Component(nil, "seed")}
		j := &job{
			id: "job-pre-000001", spec: spec, state: StateQueued,
			created: time.Now(),
			prog:    Progress{Restarts: spec.Restarts},
		}
		if err := w.persist(j); err != nil {
			return View{}, err
		}
		tab := newShardTable(j.id, spec.Restarts, 1)
		if err := seed.Put(shardTableBlob(j.id), marshalBlob(tab)); err != nil {
			return View{}, err
		}
		return View{ID: j.id}, nil
	}()
	if err != nil {
		t.Fatal(err)
	}
	if err := seed.Put(shardStateBlob(v.ID, 0), []byte(`{"version":1,"kind":"shard","job":"job-pre-000001","shard":0,`)); err != nil {
		t.Fatal(err)
	}

	m := shardManager(t, dir, "fix", Config{Metrics: obs.NewRegistry()})
	defer shutdown(t, m)
	waitFor(t, 60*time.Second, func() bool {
		got, err := m.Get(v.ID)
		return err == nil && got.State == StateDone
	}, "job with torn shard state to finish")

	want, err := coverage.OptimizeBest(spec.Scenario, spec.Objectives, spec.Options, spec.Restarts)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := m.Plan(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertPlansEqual(t, plan, want, "torn-state recovery")
}

// TestClusterAwareGet submits on one node and reads from another that
// has never seen the ID: the store resolves it.
func TestClusterAwareGet(t *testing.T) {
	dir := t.TempDir()
	spec := testSpec(t, 40, 2, 31)

	a := shardManager(t, dir, "a", Config{Metrics: obs.NewRegistry()})
	defer shutdown(t, a)
	// B polls very slowly so the lookup below exercises the Get
	// fallback, not the poller's adoption.
	b := shardManager(t, dir, "b", Config{
		Metrics: obs.NewRegistry(),
		Shard:   ShardConfig{Poll: time.Hour},
	})
	defer shutdown(t, b)

	v, err := a.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 60*time.Second, func() bool {
		got, err := a.Get(v.ID)
		return err == nil && got.State == StateDone
	}, "job to finish on the submitting node")

	got, err := b.Get(v.ID)
	if err != nil {
		t.Fatalf("cluster Get on node b: %v", err)
	}
	if got.State != StateDone {
		t.Errorf("node b sees state %s, want done", got.State)
	}
	planB, err := b.Plan(v.ID)
	if err != nil {
		t.Fatalf("cluster Plan on node b: %v", err)
	}
	planA, err := a.Plan(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertPlansEqual(t, planB, planA, "cross-node plan")

	if _, err := b.Get("job-nosuch-000009"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id err = %v, want ErrNotFound", err)
	}
}
