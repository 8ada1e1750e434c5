// Command perfbench is the repository benchmark. It runs one workload
// against the coverage stack through its public functions, checks every
// output, and prints one JSON result line:
//
//	perfbench --workload corpus|field --seed N --seconds S --trace 0|1
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a separate traced run
// and the spans are written under .bench_build/trace/. It must run from
// the repository root (the corpus workload reads
// coverage/testdata/corpus). LAYERS.md maps every metric to its layer,
// its go test -bench row and its /metrics series.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"time"
)

// buildDir holds everything a run leaves behind (spans, scratch stores),
// relative to the repository root the benchmark runs from.
const buildDir = ".bench_build"

// Set-up timing. A workload sets itself up setupRepeats times before
// its first pass, then again between passes for setupBetween each time.
// setup_s is the median of all of them, so it samples the whole run
// rather than its first moments: the machine's speed drifts over a run.
const (
	setupRepeats = 3
	setupBetween = 100 * time.Millisecond
)

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state one workload execution accumulates.
type run struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	spans    *tracer // nil unless trace

	e2e   map[string]metric
	layer map[string]metric

	mu        sync.Mutex
	attempted int
	failed    int
	problems  []string // correctness failures that are not operations (digests)
	digests   map[string]string
	setupFn   func() error
	setups    []float64
	// unrecorded is the share of the workload's iterations that sent
	// no OnIteration event, reported with the provenance.
	unrecorded float64
}

// op records one attempted operation; a non-nil err counts it failed.
func (r *run) op(what string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: failed %s: %v\n", what, err)
	}
}

// problem records a run-level correctness failure.
func (r *run) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: incorrect:", msg)
	r.mu.Lock()
	r.problems = append(r.problems, msg)
	r.mu.Unlock()
}

// setup times setupRepeats calls of fn, the workload's set-up, and
// keeps fn for timeSetups.
func (r *run) setup(fn func() error) error {
	r.setupFn = fn
	return r.timeSetups(setupRepeats, 0)
}

// timeSetups times calls of the workload's set-up until there have been
// n and d has passed.
func (r *run) timeSetups(n int, d time.Duration) error {
	start := time.Now()
	for i := 0; i < n || time.Since(start) < d; i++ {
		// Each set-up starts from a collected heap, so a collection
		// the previous one left due is not charged to it.
		runtime.GC()
		t0 := time.Now()
		if err := r.setupFn(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		r.setups = append(r.setups, time.Since(t0).Seconds())
	}
	return nil
}

func (r *run) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *run) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

var workloads = map[string]func(*run) error{
	"corpus": runCorpus,
	"field":  runField,
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload: corpus or field")
		seed     = fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 10, "measured time per run, in seconds")
		trace    = fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		e2e:      make(map[string]metric),
		layer:    make(map[string]metric),
		digests:  make(map[string]string),
	}
	if r.trace {
		r.spans = newTracer()
	}
	heap := startHeapSampler()
	err := fn(r)
	peak := heap.stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r.setE2E("setup_s", "s", median(r.setups))
	r.setE2E("peak_heap_mb", "MB", peak/(1<<20))
	if r.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		os.Exit(1)
	}
	r.setE2E("ok_ratio", "ratio", float64(r.attempted-r.failed)/float64(r.attempted))

	out := result{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.e2e,
	}
	if r.trace {
		out.Metrics = r.layer
		path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
		if err := r.spans.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Printf("spans: %d written to %s\n", r.spans.len(), path)
	}
	prov, err := json.Marshal(map[string]any{"provenance": provenance(r)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(prov))
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// provenance records what the numbers were measured on and what they
// computed.
func provenance(r *run) map[string]any {
	return map[string]any{
		"workload":              r.workload,
		"seed":                  r.seed,
		"seconds":               r.seconds.Seconds(),
		"trace":                 r.trace,
		"nproc":                 runtime.NumCPU(),
		"gomaxprocs":            runtime.GOMAXPROCS(0),
		"go":                    runtime.Version(),
		"cpu":                   cpuModel(),
		"digests":               r.digests,
		"unrecorded_iter_share": r.unrecorded,
		"problems":              r.problems,
	}
}

// cpuModel reads the CPU model name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// heapSampler tracks the peak live Go heap: the bytes the latest
// collection marked live, polled through runtime/metrics, which does
// not stop the world. The heap in use also holds the garbage not yet
// collected, so its peak depends on when each collection starts; on
// the field workload it moved by a fifth of its median between runs.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64)}
	live := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() float64 {
		metrics.Read(live)
		if live[0].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return float64(live[0].Value.Uint64())
	}
	go func() {
		peak := read()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				peak = max(peak, read())
			case <-h.stopc:
				h.done <- max(peak, read())
				return
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}
