package coverage

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/descent"
	"repro/internal/fleet"
)

// keepFans records every restart fan the best-of searches build for the
// rest of the test, so the test can read how many restarts ran at once.
func keepFans(t *testing.T) *[]*descent.Fan {
	t.Helper()
	var fans []*descent.Fan
	prev := newRestartFan
	newRestartFan = func(workers, m, n int) *descent.Fan {
		f := prev(workers, m, n)
		fans = append(fans, f)
		return f
	}
	t.Cleanup(func() { newRestartFan = prev })
	return &fans
}

// hookLog records the combined OnIteration/OnProgress stream of a run
// and fails the test if the hooks are ever entered concurrently.
type hookLog struct {
	t      *testing.T
	inside atomic.Int32
	events []any
}

func (l *hookLog) enter() {
	if l.inside.Add(1) != 1 {
		l.t.Error("hooks called concurrently")
	}
}

func (l *hookLog) install(opts *Options) {
	opts.ProgressEvery = 7
	opts.OnIteration = func(ev IterationEvent) {
		l.enter()
		l.events = append(l.events, ev)
		l.inside.Add(-1)
	}
	opts.OnProgress = func(p Progress) {
		l.enter()
		l.events = append(l.events, p)
		l.inside.Add(-1)
	}
}

// TestBestOfWorkersBitIdentical runs a single-sensor and a fleet best-of
// search with Workers 1 and 4. The restarts of the second run overlap
// (the fan's in-flight peak reaches 2), yet the plans are bit-identical
// and the OnIteration/OnProgress streams, including Restart and Probes,
// are deep-equal to the sequential ones.
func TestBestOfWorkersBitIdentical(t *testing.T) {
	scn, err := PaperTopology(3)
	if err != nil {
		t.Fatalf("PaperTopology: %v", err)
	}
	obj := Objectives{Alpha: 1, Beta: 1e-4}
	for _, tc := range []struct {
		name     string
		restarts int
		optimize func(Options) (*Plan, error)
	}{
		{"single", 3, func(o Options) (*Plan, error) { return OptimizeBest(scn, obj, o, 3) }},
		{"fleet", 2, func(o Options) (*Plan, error) { return OptimizeFleetBest(scn, obj, o, 2, nil, 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fans := keepFans(t)
			var plans [][]byte
			var streams [][]any
			for _, workers := range []int{1, 4} {
				log := &hookLog{t: t}
				opts := Options{MaxIters: 120, Seed: 21, Workers: workers}
				log.install(&opts)
				plan, err := tc.optimize(opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				b, err := json.Marshal(plan)
				if err != nil {
					t.Fatal(err)
				}
				plans = append(plans, b)
				streams = append(streams, log.events)
			}
			if len(*fans) != 2 || (*fans)[0].Peak() != 1 || (*fans)[1].Peak() < 2 {
				for i, f := range *fans {
					t.Logf("fan %d: width %d, peak %d", i, f.Width(), f.Peak())
				}
				t.Fatal("want a sequential Workers=1 search and overlapping Workers=4 restarts")
			}
			if string(plans[0]) != string(plans[1]) {
				t.Errorf("plans differ:\n  1: %s\n  4: %s", plans[0], plans[1])
			}
			if len(streams[0]) == 0 {
				t.Fatal("no hook events delivered")
			}
			if last := lastRestart(streams[0]); last != tc.restarts-1 {
				t.Errorf("stream ends in restart %d, want %d", last, tc.restarts-1)
			}
			if !reflect.DeepEqual(streams[0], streams[1]) {
				t.Errorf("hook streams differ: %d events with Workers=1, %d with Workers=4",
					len(streams[0]), len(streams[1]))
			}
		})
	}
}

// lastRestart returns the restart of the stream's last event.
func lastRestart(events []any) int {
	switch ev := events[len(events)-1].(type) {
	case IterationEvent:
		return ev.Restart
	case Progress:
		return ev.Restart
	}
	return -1
}

// TestBestOfOutOfOrderFinish drives bestOf with synthetic restarts that
// finish in reverse order. Events still arrive in restart order; a tie
// goes to the first restart; a failure returns the lowest-indexed
// restart's error and delivers nothing after the restart that failed.
func TestBestOfOutOfOrderFinish(t *testing.T) {
	errs := []error{nil, errors.New("restart 1 failed"), errors.New("restart 2 failed")}
	for _, tc := range []struct {
		name    string
		fail    bool
		wantErr error
		wantRec []int // restarts whose events are delivered
	}{
		{"ok", false, nil, []int{0, 1, 2}},
		{"failed", true, errs[1], []int{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			finished := []chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
			costs := []float64{2, 1, 1}
			run := func(_ context.Context, seed uint64, hook func(descent.IterRecord)) (*result, error) {
				r := int(seed)
				defer close(finished[r])
				if r < 2 {
					<-finished[r+1] // restart r finishes after restart r+1
				}
				for i := 1; i <= 3; i++ {
					hook(descent.IterRecord{Iter: i, U: float64(10*r + i), Probes: r})
				}
				if tc.fail && r > 0 {
					return nil, errs[r]
				}
				return &result{Eval: &fleet.Evaluation{U: costs[r]}, Iters: r}, nil
			}
			var got []int
			opts := Options{Workers: 3, OnIteration: func(ev IterationEvent) {
				if ev.Cost != float64(10*ev.Restart+ev.Iteration) || ev.Probes != ev.Restart {
					t.Errorf("event %+v carries another restart's record", ev)
				}
				got = append(got, ev.Restart)
			}}
			best, err := bestOf(context.Background(), opts, 4, []uint64{0, 1, 2}, run)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr == nil && best.Iters != 1 {
				t.Errorf("best is restart %d, want restart 1 (first of the tied)", best.Iters)
			}
			if tc.wantErr != nil && best != nil {
				t.Error("failed search returned a result")
			}
			var want []int
			for _, r := range tc.wantRec {
				want = append(want, r, r, r)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("delivered restarts %v, want %v", got, want)
			}
		})
	}
}
