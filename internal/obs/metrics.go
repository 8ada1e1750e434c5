// Package obs is the service's unified observability layer: structured
// logging on log/slog with context-propagated correlation IDs, a small
// dependency-free metrics registry (counters, gauges, fixed-bucket
// histograms) exporting the Prometheus text format, and HTTP middleware
// that ties both together with per-request IDs.
//
// Everything here is stdlib-only by design: the service's north star is
// a self-contained binary, so the registry implements exactly the slice
// of the Prometheus data model the server needs — no client library.
//
// Instrument updates are lock-free (atomics) so they are safe to call
// from hot paths; registration and scraping take the registry lock.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric type names as they appear in # TYPE lines.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// DefBuckets is the default latency histogram layout, in seconds: a
// coarse exponential ladder from 100µs to 10s covering everything from a
// descent iteration to a multi-restart optimization job.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// MetricInfo describes one registered metric family; tests use it to
// assert that the registry and the exporter cannot drift apart.
type MetricInfo struct {
	Name string
	Type string
	Help string
}

// family is one named metric with all of its labeled children.
type family struct {
	name    string
	help    string
	typ     string
	labels  []string
	buckets []float64 // histogram upper bounds, ascending, no +Inf

	mu       sync.Mutex
	children map[string]any // label-value key -> *Counter/*Gauge/*Histogram
	keys     []string       // insertion-ordered child keys
	fn       func() float64 // gauge func, when the family is callback-backed
	mapFn    func() map[string]float64
	mapLabel string
}

// Registry holds metric families in registration order.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// register adds or fetches a family, enforcing that a name is never
// reused with a different type or label set.
func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s with %d labels (was %s, %d)",
				name, typ, len(labels), f.typ, len(f.labels)))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]any),
	}
	r.fams = append(r.fams, f)
	r.byName[name] = f
	return f
}

// child fetches or creates the instrument for one label-value tuple.
func (f *family) child(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d",
			f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := make()
	f.children[key] = c
	f.keys = append(f.keys, key)
	return c
}

// Counter is a monotonically increasing value.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v; negative deltas are ignored (counters only go up).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	addFloat(&c.bits, v)
}

// Value returns the current total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the value by v (which may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	addFloat(&g.bits, v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// addFloat atomically adds v to a float64 stored as uint64 bits.
func addFloat(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		newV := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, newV) {
			return
		}
	}
}

// Histogram is a fixed-bucket distribution: cumulative bucket counts, a
// running sum, and a total count, all updated with atomics.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	addFloat(&h.sum, v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.register(name, help, TypeCounter, nil, nil)
	return f.child(nil, func() any { return &Counter{} }).(*Counter)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.register(name, help, TypeGauge, nil, nil)
	return f.child(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed at scrape time —
// the natural fit for values the service already tracks elsewhere
// (queue occupancy, live deployment counts).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.register(name, help, TypeGauge, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// CounterFunc registers a counter whose total is computed at scrape
// time. The callback must be monotonic (it reports an accumulated total
// the service already tracks, e.g. deployment steps executed).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	f := r.register(name, help, TypeCounter, nil, nil)
	f.mu.Lock()
	f.fn = fn
	f.mu.Unlock()
}

// GaugeMapFunc registers a one-label gauge family whose samples are
// recomputed at scrape time from the returned map (label value → gauge
// value), e.g. jobs by lifecycle state. Keys are emitted sorted.
func (r *Registry) GaugeMapFunc(name, help, label string, fn func() map[string]float64) {
	f := r.register(name, help, TypeGauge, []string{label}, nil)
	f.mu.Lock()
	f.mapFn = fn
	f.mapLabel = label
	f.mu.Unlock()
}

// Histogram registers (or fetches) an unlabeled histogram with the given
// ascending bucket upper bounds (+Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.register(name, help, TypeHistogram, nil, buckets)
	return f.child(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, TypeCounter, labels, nil)}
}

// With returns the counter for one label-value tuple, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// HistogramVec registers a histogram family with shared buckets and the
// given label names.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, TypeHistogram, labels, buckets)}
}

// With returns the histogram for one label-value tuple, creating it on
// first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// Registered lists every metric family in registration order.
func (r *Registry) Registered() []MetricInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]MetricInfo, len(r.fams))
	for i, f := range r.fams {
		out[i] = MetricInfo{Name: f.name, Type: f.typ, Help: f.help}
	}
	return out
}

// WriteText renders the registry in the Prometheus text exposition format.
// Families appear in registration order, children sorted by label
// values, so output diffs cleanly between scrapes.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		f.write(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the text exposition over HTTP.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// write renders one family's samples.
func (f *family) write(b *strings.Builder) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fn != nil {
		fmt.Fprintf(b, "%s %s\n", f.name, fmtFloat(f.fn()))
		return
	}
	if f.mapFn != nil {
		m := f.mapFn()
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(b, "%s{%s=%q} %s\n", f.name, f.mapLabel, k, fmtFloat(m[k]))
		}
		return
	}
	keys := append([]string(nil), f.keys...)
	sort.Strings(keys)
	for _, key := range keys {
		var values []string
		if key != "" || len(f.labels) > 0 {
			values = strings.Split(key, "\x00")
		}
		switch c := f.children[key].(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, values), fmtFloat(c.Value()))
		case *Gauge:
			fmt.Fprintf(b, "%s%s %s\n", f.name, labelString(f.labels, values), fmtFloat(c.Value()))
		case *Histogram:
			c.writeTo(b, f.name, f.labels, values)
		}
	}
}

// writeTo renders the histogram's cumulative buckets, sum, and count.
func (h *Histogram) writeTo(b *strings.Builder, name string, labels, values []string) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name,
			labelString(append(labels, "le"), append(values, fmtFloat(bound))), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name,
		labelString(append(labels, "le"), append(values, "+Inf")), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labelString(labels, values), fmtFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labelString(labels, values), h.Count())
}

// labelString renders {k="v",...}, or nothing for unlabeled samples.
func labelString(labels, values []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(l)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(v))
	}
	b.WriteByte('}')
	return b.String()
}

// fmtFloat renders a float the way Prometheus expects (shortest exact).
func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
