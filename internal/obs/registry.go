// Package obs is the observability layer: a dependency-free metrics
// registry (atomic counters, gauges and fixed-bucket histograms with
// Prometheus text exposition) and a leveled structured logger. The whole
// stack — HTTP server, tuning sessions, experience warehouse — records into
// it, and cmd/deepcat-serve exposes it on a separate listener so profiling
// and scraping never share the tuning port.
//
// Every constructor is nil-safe: methods on a nil *Registry return nil
// instruments, and methods on nil instruments are no-ops, so a daemon run
// without -metrics-addr pays only a nil check per recording site.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency buckets in seconds, spanning the
// sub-millisecond HTTP bookkeeping path up to multi-second donor trainings.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adds n (negative to subtract).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. Buckets are upper
// bounds (inclusive, Prometheus `le` semantics) with an implicit +Inf.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // per-bucket, len(bounds)+1; cumulated at exposition
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Leftmost bucket with bounds[i] >= v — the inclusive `le` bucket; the
	// +Inf bucket at len(bounds) catches everything past the last bound.
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// NewHistogram returns an unregistered histogram over the given bucket
// bounds (sorted ascending; nil selects DefBuckets). Tools that aggregate
// measurements without exposing a scrape endpoint — the fleet load
// generator's latency report, for one — use it directly.
func NewHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	return &Histogram{
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
}

// Quantile estimates the q-quantile (q in [0,1]) of the observed values;
// see bucketQuantile. It allocates nothing, so the deadline gate can call
// it on every budgeted request.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	return bucketQuantile(q, h.bounds, h.count.Load(), func(i int) uint64 { return h.counts[i].Load() })
}

// bucketQuantile estimates the q-quantile of total observations spread
// over fixed buckets (count(i) observations at or below bounds[i]) by
// linear interpolation within the bucket holding it. Values beyond the
// last finite bound are clamped to it; no observations report 0.
func bucketQuantile(q float64, bounds []float64, total uint64, count func(i int) uint64) float64 {
	if len(bounds) == 0 || total == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	rank := q * float64(total)
	var cum uint64
	for i, bound := range bounds {
		n := count(i)
		if float64(cum)+float64(n) >= rank {
			lower := 0.0
			if i > 0 {
				lower = bounds[i-1]
			}
			if n == 0 {
				return bound
			}
			frac := (rank - float64(cum)) / float64(n)
			return lower + frac*(bound-lower)
		}
		cum += n
	}
	// The quantile lands in the +Inf bucket; the last finite bound is the
	// best statement the fixed buckets can make.
	return bounds[len(bounds)-1]
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// kind tags what an instrument is, for exposition TYPE lines.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// instrument is one registered metric: a family name, an optional rendered
// label set, and exactly one of the three value holders.
type instrument struct {
	name   string
	labels string // `k="v",k2="v2"` or ""
	kind   kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds the registered instruments. A nil *Registry is the no-op
// registry: its methods return nil instruments whose methods do nothing.
type Registry struct {
	mu          sync.Mutex
	instruments map[string]*instrument
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{instruments: make(map[string]*instrument)}
}

// Counter registers (or returns the existing) counter under name with the
// given label pairs ("key", "value", ...).
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	ins := r.lookup(name, kindCounter, labels)
	return ins.c
}

// Gauge registers (or returns the existing) gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	ins := r.lookup(name, kindGauge, labels)
	return ins.g
}

// Histogram registers (or returns the existing) histogram. A nil buckets
// slice selects DefBuckets; bounds must be sorted ascending.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	ins := r.lookupHistogram(name, buckets, labels)
	return ins.h
}

func (r *Registry) lookup(name string, k kind, labels []string) *instrument {
	ls := renderLabels(labels)
	key := name + "{" + ls + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if ins, ok := r.instruments[key]; ok {
		if ins.kind != k {
			panic(fmt.Sprintf("obs: %s re-registered as %s, was %s", name, k, ins.kind))
		}
		return ins
	}
	ins := &instrument{name: name, labels: ls, kind: k}
	switch k {
	case kindCounter:
		ins.c = &Counter{}
	case kindGauge:
		ins.g = &Gauge{}
	}
	r.instruments[key] = ins
	return ins
}

func (r *Registry) lookupHistogram(name string, buckets []float64, labels []string) *instrument {
	ls := renderLabels(labels)
	key := name + "{" + ls + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if ins, ok := r.instruments[key]; ok {
		if ins.kind != kindHistogram {
			panic(fmt.Sprintf("obs: %s re-registered as histogram, was %s", name, ins.kind))
		}
		return ins
	}
	h := &Histogram{
		bounds: append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
	ins := &instrument{name: name, labels: ls, kind: kindHistogram, h: h}
	r.instruments[key] = ins
	return ins
}

// renderLabels formats alternating key/value pairs as `k="v",k2="v2"`.
// Values are escaped per the Prometheus text format.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic("obs: odd number of label arguments")
	}
	var b strings.Builder
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// WritePrometheus writes every registered instrument in the Prometheus
// text exposition format, sorted by name then labels, with one # TYPE line
// per family. It delegates to the snapshot writer, so a merged fleet
// snapshot and a live registry render identically.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	return r.Snapshot().WritePrometheus(w)
}

func formatFloat(f float64) string {
	s := fmt.Sprintf("%g", f)
	return s
}

// Handler returns an http.Handler serving the exposition; mount it at
// /metrics. A nil registry serves an empty (but valid) page.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
