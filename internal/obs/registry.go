package obs

import (
	"sort"
	"strings"
	"sync"
)

// Registry is a flat metrics registry: named float64 counters plus named
// bucketed histograms that any pipeline stage can bump, and labeled
// series of either kind. Names are dot-separated ("match.conflicts",
// "refine.moves", "job.seconds"). A name is used either unlabeled or
// labeled, not both. All methods are safe for concurrent use and no-ops
// on a nil receiver, so instrumented code never branches on whether
// metrics are enabled.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]float64
	histograms map[string]*histogram
	families   map[string]*family
	help       map[string]string
}

// Label is one label pair of a series. Order is preserved as given.
type Label struct {
	Key, Value string
}

// family is every labeled series of one name, keyed by the series'
// rendered label set (`{k1="v1",k2="v2"}`), which is also how the
// exposition prints it. Its series are all gauges or all histograms.
type family struct {
	hist   bool
	series map[string]*series
}

// series is one labeled value: a gauge, or a histogram when h is set.
type series struct {
	value float64
	h     *histogram
}

// DefBuckets are the default histogram bucket upper bounds, an
// exponential ladder from 1 ms to 100 s suiting modeled and wall
// duration observations alike.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// histogram is one bucketed distribution. counts has one slot per bound
// plus a final overflow (+Inf) slot; slots are per-bucket, not
// cumulative — exposition cumulates.
type histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
	count  uint64
}

func newHistogram(bounds []float64) *histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	return &histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]uint64, len(bounds)+1),
	}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v: (..., bound] buckets
	h.counts[i]++
	h.sum += v
	h.count++
}

// HistogramSnapshot is a point-in-time copy of one histogram.
type HistogramSnapshot struct {
	// Bounds are the bucket upper bounds, strictly ascending.
	Bounds []float64
	// Counts holds per-bucket observation counts: Counts[i] observations
	// fell in (Bounds[i-1], Bounds[i]]; the final slot is the +Inf
	// overflow. len(Counts) == len(Bounds)+1.
	Counts []uint64
	// Sum and Count are the running total and number of observations.
	Sum   float64
	Count uint64
}

// Add increments counter name by v (creating it at zero first).
func (r *Registry) Add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.counters == nil {
		r.counters = map[string]float64{}
	}
	r.counters[name] += v
	r.mu.Unlock()
}

// Set overwrites counter name with v.
func (r *Registry) Set(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.counters == nil {
		r.counters = map[string]float64{}
	}
	r.counters[name] = v
	r.mu.Unlock()
}

// Get returns counter name (zero when absent or when r is nil).
func (r *Registry) Get(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Snapshot returns a copy of all unlabeled counters.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]float64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Names returns the sorted counter and labeled gauge names, for stable
// report output.
func (r *Registry) Names() []string {
	return r.names(false)
}

// HistogramNames returns the sorted histogram names, labeled ones
// included.
func (r *Registry) HistogramNames() []string {
	return r.names(true)
}

func (r *Registry) names(hist bool) []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	if hist {
		for k := range r.histograms {
			names = append(names, k)
		}
	} else {
		for k := range r.counters {
			names = append(names, k)
		}
	}
	for k, f := range r.families {
		if f.hist == hist {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	return names
}

// Describe sets the HELP text the exposition prints for name.
func (r *Registry) Describe(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.help == nil {
		r.help = map[string]string{}
	}
	r.help[name] = help
	r.mu.Unlock()
}

// DeclareHistogram creates histogram name with the given bucket bounds
// (strictly ascending; a trailing +Inf overflow bucket is implicit). An
// existing histogram keeps its buckets and observations. Observing an
// undeclared histogram declares it with DefBuckets, so declaration is
// only needed for custom bounds.
func (r *Registry) DeclareHistogram(name string, bounds []float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.histogram(name, bounds)
	r.mu.Unlock()
}

// histogram finds or creates a histogram; the caller holds r.mu.
func (r *Registry) histogram(name string, bounds []float64) *histogram {
	if h, ok := r.histograms[name]; ok {
		return h
	}
	if r.histograms == nil {
		r.histograms = map[string]*histogram{}
	}
	h := newHistogram(bounds)
	r.histograms[name] = h
	return h
}

// Observe records one observation in histogram name, declaring it with
// DefBuckets if absent.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.histogram(name, nil).observe(v)
	r.mu.Unlock()
}

// Histogram returns a snapshot of histogram name; ok is false when the
// histogram does not exist (or r is nil).
func (r *Registry) Histogram(name string) (snap HistogramSnapshot, ok bool) {
	if r == nil {
		return HistogramSnapshot{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		return HistogramSnapshot{}, false
	}
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: append([]uint64(nil), h.counts...),
		Sum:    h.sum,
		Count:  h.count,
	}, true
}

// AddWith increments the labeled counter name{labels} by v, creating it
// at zero first; AddWith(name, labels, 0) declares the series.
func (r *Registry) AddWith(name string, labels []Label, v float64) {
	if r == nil {
		return
	}
	key := labelKey(labels)
	r.mu.Lock()
	r.series(name, key, false, nil).value += v
	r.mu.Unlock()
}

// SetWith overwrites the labeled gauge name{labels} with v.
func (r *Registry) SetWith(name string, labels []Label, v float64) {
	if r == nil {
		return
	}
	key := labelKey(labels)
	r.mu.Lock()
	r.series(name, key, false, nil).value = v
	r.mu.Unlock()
}

// GetWith returns the labeled gauge name{labels} (zero when absent).
func (r *Registry) GetWith(name string, labels []Label) float64 {
	if r == nil {
		return 0
	}
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.families[name]; f != nil {
		if s := f.series[key]; s != nil {
			return s.value
		}
	}
	return 0
}

// DeclareHistogramWith creates the labeled histogram name{labels} with
// the given bounds, like DeclareHistogram.
func (r *Registry) DeclareHistogramWith(name string, labels []Label, bounds []float64) {
	if r == nil {
		return
	}
	key := labelKey(labels)
	r.mu.Lock()
	r.series(name, key, true, bounds)
	r.mu.Unlock()
}

// ObserveWith records one observation in the labeled histogram
// name{labels}, declaring it with DefBuckets if absent. A name already
// holding labeled gauges ignores the observation.
func (r *Registry) ObserveWith(name string, labels []Label, v float64) {
	if r == nil {
		return
	}
	key := labelKey(labels)
	r.mu.Lock()
	if s := r.series(name, key, true, nil); s.h != nil {
		s.h.observe(v)
	}
	r.mu.Unlock()
}

// Delete drops the labeled series name{labels}, for a label value that
// no longer exists (a peer removed from the ring).
func (r *Registry) Delete(name string, labels []Label) {
	if r == nil {
		return
	}
	key := labelKey(labels)
	r.mu.Lock()
	if f := r.families[name]; f != nil {
		delete(f.series, key)
		if len(f.series) == 0 {
			delete(r.families, name)
		}
	}
	r.mu.Unlock()
}

// series finds or creates the series of name under label set key; the
// caller holds r.mu. A name's first series fixes whether its family
// holds histograms.
func (r *Registry) series(name, key string, hist bool, bounds []float64) *series {
	f := r.families[name]
	if f == nil {
		if r.families == nil {
			r.families = map[string]*family{}
		}
		f = &family{hist: hist, series: map[string]*series{}}
		r.families[name] = f
	}
	s := f.series[key]
	if s == nil {
		s = &series{}
		if f.hist {
			s.h = newHistogram(bounds)
		}
		f.series[key] = s
	}
	return s
}

// labelKey renders labels as the exposition's label set,
// `{k1="v1",k2="v2"}`, with names sanitized and values escaped; no
// labels render as "".
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeLabelName(l.Key))
		b.WriteString(`="`)
		b.WriteString(labelValueEscaper.Replace(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Quantile estimates the q-quantile (0 < q <= 1) of the observations by
// linear interpolation within the bucket the quantile falls in, the same
// estimate Prometheus's histogram_quantile computes. The +Inf bucket
// clamps to the largest finite bound; an empty histogram reports 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		prev := cum
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) {
			return s.Bounds[len(s.Bounds)-1] // +Inf bucket clamps
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return s.Bounds[len(s.Bounds)-1]
}
