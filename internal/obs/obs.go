// Package obs is the dependency-free observability core of the serving
// stack: atomic counters, gauges, and lock-free power-of-two-bucket latency
// histograms, collected in a Registry that renders the Prometheus text
// exposition format (version 0.0.4).
//
// Design constraints, in order:
//
//  1. Zero allocations and no locks on the hot path. Counter.Add and
//     Histogram.Observe are single atomic RMW operations; one histogram
//     observation is two atomic adds. Query and request paths record into
//     pre-registered instruments — the registry is only locked at
//     registration time and at scrape time.
//  2. Stdlib only, importable from anywhere in the repository (obs imports
//     no repro package, so every layer — storage, core, shard, server —
//     can depend on it without cycles).
//  3. Honest scrapes. A histogram snapshot derives its _count and +Inf
//     bucket from the same bucket reads it renders, so every scrape is
//     internally consistent (cumulative buckets are monotone and end at
//     _count) even while observations race with the scrape.
//
// Histogram buckets are powers of two in microseconds: bucket i counts
// observations with ⌊d/1µs⌋ in [2^(i-1), 2^i), so upper bounds run
// 1µs, 2µs, 4µs, … ~67s, and p50/p95/p99 are derivable to within a factor
// of two (Quantile). That resolution is exactly what a latency SLO needs,
// and the fixed bucket layout is what makes Observe two atomic adds.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. The zero value is usable,
// but counters rendered by a Registry must be created through it.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is a programming error and is
// ignored to keep the exposition monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the number of power-of-two latency buckets. Bucket i holds
// observations whose microsecond count has bit length i, so the finite
// upper bounds run 2^0 µs … 2^(histBuckets-2) µs ≈ 67 s; anything slower
// lands in the last bucket, rendered only under le="+Inf".
const histBuckets = 28

// Histogram is a lock-free latency histogram with power-of-two buckets.
// Observe is wait-free (two atomic adds) and allocation-free.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sumNs   atomic.Int64
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	us := uint64(d / time.Microsecond)
	i := bits.Len64(us)
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.buckets[i].Add(1)
	h.sumNs.Add(int64(d))
}

// snapshot reads the buckets once and returns per-bucket counts plus the
// total. Concurrent observations may land between reads; the rendered
// cumulative series is still monotone because it is derived from this one
// pass.
func (h *Histogram) snapshot() (counts [histBuckets]int64, total int64) {
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
		total += counts[i]
	}
	return counts, total
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	_, total := h.snapshot()
	return total
}

// Sum returns the total observed duration.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sumNs.Load()) }

// HistogramData is a plain-value snapshot of a histogram — the mergeable
// form subsystems hand across package boundaries (e.g. per-shard index
// merge histograms summed into one exported series).
type HistogramData struct {
	Counts [histBuckets]int64
	SumNs  int64
}

// Data returns a one-pass snapshot of the histogram.
func (h *Histogram) Data() HistogramData {
	var d HistogramData
	for i := range h.buckets {
		d.Counts[i] = h.buckets[i].Load()
	}
	d.SumNs = h.sumNs.Load()
	return d
}

// Add accumulates other into d.
func (d *HistogramData) Add(other HistogramData) {
	for i := range d.Counts {
		d.Counts[i] += other.Counts[i]
	}
	d.SumNs += other.SumNs
}

// Count returns the total number of observations in the snapshot.
func (d HistogramData) Count() int64 {
	var total int64
	for _, c := range d.Counts {
		total += c
	}
	return total
}

// bucketBound returns the upper bound of bucket i in seconds.
func bucketBound(i int) float64 { return float64(uint64(1)<<uint(i)) / 1e6 }

// Quantile returns an upper bound for the p-quantile (0 < p ≤ 1) of the
// observed durations: the upper bound of the bucket containing the rank-th
// observation, exact to within the factor-of-two bucket resolution. It
// returns 0 when the histogram is empty.
func (h *Histogram) Quantile(p float64) time.Duration {
	counts, total := h.snapshot()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += counts[i]
		if cum >= rank {
			return time.Duration(bucketBound(i) * float64(time.Second))
		}
	}
	return time.Duration(bucketBound(histBuckets-1) * float64(time.Second))
}

// metric kind markers for rendering.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// series is one labeled instrument inside a family. Exactly one of the
// value fields is set.
type series struct {
	labels string // rendered inside {...}; "" for an unlabeled series
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64       // scrape-time collector (counter or gauge family)
	hfn    func() HistogramData // scrape-time collector (histogram family)
}

// family groups the series sharing one metric name.
type family struct {
	name, help, kind string
	series           []*series
}

// Registry holds registered instruments and renders them in the Prometheus
// text format. Registration locks; the instruments themselves are
// lock-free. Metric and label syntax is the caller's responsibility —
// registration panics on a name/type conflict, since instruments are wired
// once at startup and a conflict is a programming error.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func (r *Registry) register(name, labels, help, kind string) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: kind}
		r.byName[name] = f
		r.families = append(r.families, f)
	} else if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.kind, kind))
	}
	for _, s := range f.series {
		if s.labels == labels {
			panic(fmt.Sprintf("obs: duplicate series %s{%s}", name, labels))
		}
	}
	s := &series{labels: labels}
	f.series = append(f.series, s)
	return s
}

// Counter registers and returns a counter series. labels is the rendered
// label body, e.g. `endpoint="search"` (empty for none).
func (r *Registry) Counter(name, labels, help string) *Counter {
	s := r.register(name, labels, help, kindCounter)
	s.c = &Counter{}
	return s.c
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	s := r.register(name, labels, help, kindGauge)
	s.g = &Gauge{}
	return s.g
}

// Histogram registers and returns a latency histogram series.
func (r *Registry) Histogram(name, labels, help string) *Histogram {
	s := r.register(name, labels, help, kindHistogram)
	s.h = &Histogram{}
	return s.h
}

// CounterFunc registers a counter whose value is read at scrape time — the
// export hook for subsystems that already keep their own atomic counters
// (buffer pools, caches, query totals) so scraping them adds no second
// accounting path.
func (r *Registry) CounterFunc(name, labels, help string, fn func() float64) {
	s := r.register(name, labels, help, kindCounter)
	s.fn = fn
}

// GaugeFunc registers a gauge read at scrape time.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) {
	s := r.register(name, labels, help, kindGauge)
	s.fn = fn
}

// HistogramFunc registers a histogram whose buckets are collected at scrape
// time — the export hook for subsystems that keep their own obs.Histogram
// (or an aggregate of several) without registering it directly.
func (r *Registry) HistogramFunc(name, labels, help string, fn func() HistogramData) {
	s := r.register(name, labels, help, kindHistogram)
	s.hfn = fn
}

// WriteText renders every registered metric in the Prometheus text
// exposition format, families in registration order.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	r.mu.Unlock()
	var b strings.Builder
	for _, f := range fams {
		b.Reset()
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.series {
			renderSeries(&b, f, s)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

func renderSeries(b *strings.Builder, f *family, s *series) {
	switch {
	case s.h != nil:
		counts, total := s.h.snapshot()
		renderHistogram(b, f, s, counts, total, s.h.Sum().Seconds())
	case s.hfn != nil:
		d := s.hfn()
		renderHistogram(b, f, s, d.Counts, d.Count(), time.Duration(d.SumNs).Seconds())
	case s.fn != nil:
		writeSample(b, f.name, s.labels, s.fn())
	case s.c != nil:
		writeSample(b, f.name, s.labels, float64(s.c.Value()))
	case s.g != nil:
		writeSample(b, f.name, s.labels, s.g.Value())
	}
}

func renderHistogram(b *strings.Builder, f *family, s *series, counts [histBuckets]int64, total int64, sumSeconds float64) {
	var cum int64
	for i := 0; i < histBuckets-1; i++ {
		cum += counts[i]
		writeSample(b, f.name+"_bucket", joinLabels(s.labels, `le="`+formatFloat(bucketBound(i))+`"`), float64(cum))
	}
	writeSample(b, f.name+"_bucket", joinLabels(s.labels, `le="+Inf"`), float64(total))
	writeSample(b, f.name+"_sum", s.labels, sumSeconds)
	writeSample(b, f.name+"_count", s.labels, float64(total))
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func writeSample(b *strings.Builder, name, labels string, v float64) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(formatFloat(v))
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ---- exposition parsing (tests and the CI smoke) ----

// Sample is one parsed exposition line: a metric name, its label set, and
// the sample value.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Samples indexes a parsed exposition.
type Samples []Sample

// Value returns the first sample matching name whose labels include every
// pair of want (nil matches any), and whether one was found.
func (ss Samples) Value(name string, want map[string]string) (float64, bool) {
	for _, s := range ss {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range want {
			if s.Labels[k] != v {
				ok = false
				break
			}
		}
		if ok {
			return s.Value, true
		}
	}
	return 0, false
}

// ParseText parses a Prometheus text exposition, validating its syntax
// strictly enough to catch rendering bugs: every non-comment line must be
// `name[{label="value",…}] float`, names must be valid metric identifiers,
// and histogram bucket series must be cumulative (non-decreasing in file
// order and ending at the _count value).
func ParseText(data []byte) (Samples, error) {
	var out Samples
	lastBucket := make(map[string]float64) // histogram name+labels-sans-le -> last cumulative value
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseLine(line)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", ln+1, err)
		}
		if strings.HasSuffix(s.Name, "_bucket") {
			key := s.Name + "|" + labelsSansLe(s.Labels)
			if prev, ok := lastBucket[key]; ok && s.Value < prev {
				return nil, fmt.Errorf("obs: line %d: bucket series %s not cumulative (%g < %g)", ln+1, s.Name, s.Value, prev)
			}
			lastBucket[key] = s.Value
		}
		out = append(out, s)
	}
	return out, nil
}

func labelsSansLe(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(labels[k])
		b.WriteByte(';')
	}
	return b.String()
}

func parseLine(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	// Metric name: [a-zA-Z_:][a-zA-Z0-9_:]*
	i := 0
	for i < len(rest) && isNameChar(rest[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("invalid metric name in %q", line)
	}
	s.Name = rest[:i]
	rest = rest[i:]
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		body := rest[1:end]
		rest = rest[end+1:]
		if body != "" {
			for _, pair := range splitLabelPairs(body) {
				eq := strings.Index(pair, "=")
				if eq < 0 {
					return s, fmt.Errorf("malformed label %q", pair)
				}
				k, v := pair[:eq], pair[eq+1:]
				if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					return s, fmt.Errorf("unquoted label value %q", pair)
				}
				s.Labels[k] = v[1 : len(v)-1]
			}
		}
	}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return s, fmt.Errorf("missing value in %q", line)
	}
	// The value may be followed by an optional timestamp; take field 0.
	fields := strings.Fields(rest)
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", fields[0], err)
	}
	s.Value = v
	return s, nil
}

// splitLabelPairs splits `a="x",b="y"` on commas outside quotes.
func splitLabelPairs(body string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(body); i++ {
		switch body[i] {
		case '"':
			if i == 0 || body[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, body[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, body[start:])
	return out
}

func isNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}
