package obs

import (
	"bytes"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is the one catalogue of live metrics. Each metric is
// registered once, with its exposition name and help; the registry renders
// the Prometheus text exposition for /metrics (WriteText) and is also the
// time-series sampler's source (Source), so the two views cannot drift.
//
// Series naming rule. A sampled series is named after its exposition name
// with the "netags_" prefix dropped:
//
//	counter, gauge   <name>               netags_serve_queue_len → serve_queue_len
//	histogram        <name>_count         netags_serve_e2e_ms → serve_e2e_ms_count
//	                 <name>_le_<2^k−1>    serve_e2e_ms_le_4095 (observations ≤ 4095)
//	labeled child    <series>:<v1>[:<v2>] serve_queue_class_len:bulk
//
// Label values join in the family's label order. An _le_ series is sampled
// only when Source is asked for it by name (a loaded alert rule names it).
// A family marked ExposeOnly is never sampled.
//
// Registration resolves handles once: recording is an atomic add (Counter,
// Gauge) or a mutex-guarded Hist increment (Histogram), and a labeled
// child is looked up without allocating. Registering a name again with the
// same shape returns the existing family (a func family keeps its first
// function); a different shape panics.
type Registry struct {
	mu     sync.Mutex
	fams   []*family
	byName map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byName: make(map[string]*family)} }

// SeriesPrefix is the exposition prefix the series naming rule drops.
const SeriesPrefix = "netags_"

// maxLabels bounds a family's label count (class+client, route+status).
const maxLabels = 2

type labelKey [maxLabels]string

// emitFunc receives one child: its label values and either a scalar value
// or a histogram (h non-nil).
type emitFunc func(values []string, v float64, h *Hist)

// family is one registered metric.
type family struct {
	name, help, typ string
	labels          []string
	handle          any // *Counter, *Gauge, *Histogram, *Vec[T]; nil for func families
	collect         func(emit emitFunc)
	exposeOnly      bool
}

func (r *Registry) add(f *family) *family {
	if !strings.HasPrefix(f.name, SeriesPrefix) || len(f.labels) > maxLabels {
		panic("obs: metric " + f.name + " needs the " + SeriesPrefix + " prefix and at most 2 labels")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[f.name]; ok {
		if old.typ != f.typ || len(old.labels) != len(f.labels) || (old.handle == nil) != (f.handle == nil) {
			panic("obs: metric " + f.name + " registered twice with different shapes")
		}
		return old
	}
	r.byName[f.name] = f
	r.fams = append(r.fams, f)
	return f
}

// families returns the registered families; sampled leaves out the
// ExposeOnly ones.
func (r *Registry) families(sampled bool) []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		if !sampled || !f.exposeOnly {
			out = append(out, f)
		}
	}
	return out
}

// ExposeOnly keeps the named family on /metrics but out of Source and
// HasSeries. Mark a family whose label values come from outside the
// program (a client name): the time-series DB keeps every series it has
// seen, so sampling such a family would grow it without bound.
func (r *Registry) ExposeOnly(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		panic("obs: ExposeOnly of unregistered metric " + name)
	}
	f.exposeOnly = true
}

// Len returns the number of registered families.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.fams)
}

// Counter is a monotonic integer metric.
type Counter struct{ atomic.Int64 }

// Gauge is an integer metric that moves both ways.
type Gauge struct{ atomic.Int64 }

// Histogram is a mutex-guarded power-of-two Hist.
type Histogram struct {
	mu sync.Mutex
	h  Hist
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// Snapshot returns a copy of the distribution.
func (h *Histogram) Snapshot() Hist {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h
}

// emitChild reports one handle's current value.
func emitChild(emit emitFunc, values []string, handle any) {
	switch m := handle.(type) {
	case *Counter:
		emit(values, float64(m.Load()), nil)
	case *Gauge:
		emit(values, float64(m.Load()), nil)
	case *Histogram:
		h := m.Snapshot()
		emit(values, 0, &h)
	}
}

func register[T any](r *Registry, name, help, typ string) *T {
	h := new(T)
	f := r.add(&family{name: name, help: help, typ: typ, handle: h,
		collect: func(emit emitFunc) { emitChild(emit, nil, h) }})
	return f.handle.(*T)
}

// Counter registers an unlabeled counter and returns its handle.
func (r *Registry) Counter(name, help string) *Counter {
	return register[Counter](r, name, help, "counter")
}

// Gauge registers an unlabeled integer gauge and returns its handle.
func (r *Registry) Gauge(name, help string) *Gauge { return register[Gauge](r, name, help, "gauge") }

// Histogram registers an unlabeled histogram and returns its handle.
func (r *Registry) Histogram(name, help string) *Histogram {
	return register[Histogram](r, name, help, "histogram")
}

// Vec is a labeled family of T (Counter, Gauge or Histogram). Resolve a
// child once with With and keep the handle where the label set is fixed;
// With itself does not allocate once the child exists.
type Vec[T any] struct {
	n  int
	mu sync.RWMutex
	m  map[labelKey]*T
}

// With returns the child for the label values (in registration order),
// creating it on first use.
func (v *Vec[T]) With(values ...string) *T {
	if len(values) != v.n {
		panic(fmt.Sprintf("obs: %d label values for a %d-label family", len(values), v.n))
	}
	var k labelKey
	copy(k[:], values)
	v.mu.RLock()
	c := v.m[k]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.m[k]; c == nil {
		c = new(T)
		v.m[k] = c
	}
	return c
}

// each visits the children sorted by label values.
func (v *Vec[T]) each(emit emitFunc) {
	v.mu.RLock()
	keys := make([]labelKey, 0, len(v.m))
	for k := range v.m {
		keys = append(keys, k)
	}
	v.mu.RUnlock()
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		return a[0] < b[0] || a[0] == b[0] && a[1] < b[1]
	})
	for _, k := range keys {
		emitChild(emit, k[:v.n], v.With(k[:v.n]...))
	}
}

func registerVec[T any](r *Registry, name, help, typ string, labels []string) *Vec[T] {
	v := &Vec[T]{n: len(labels), m: make(map[labelKey]*T)}
	f := r.add(&family{name: name, help: help, typ: typ, labels: labels, handle: v, collect: v.each})
	return f.handle.(*Vec[T])
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *Vec[Counter] {
	return registerVec[Counter](r, name, help, "counter", labels)
}

// GaugeVec registers a labeled integer gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *Vec[Gauge] {
	return registerVec[Gauge](r, name, help, "gauge", labels)
}

// HistogramVec registers a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labels ...string) *Vec[Histogram] {
	return registerVec[Histogram](r, name, help, "histogram", labels)
}

// CounterFunc registers a counter whose value fn reads, at scrape and
// sample time, from state its owner already keeps.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.add(&family{name: name, help: help, typ: "counter",
		collect: func(emit emitFunc) { emit(nil, float64(fn()), nil) }})
}

// GaugeFunc registers a gauge read from fn at scrape and sample time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(&family{name: name, help: help, typ: "gauge",
		collect: func(emit emitFunc) { emit(nil, fn(), nil) }})
}

// HistogramFunc registers a histogram whose snapshot fn returns.
func (r *Registry) HistogramFunc(name, help string, fn func() Hist) {
	r.add(&family{name: name, help: help, typ: "histogram",
		collect: func(emit emitFunc) { h := fn(); emit(nil, 0, &h) }})
}

// VecFunc registers a labeled counter or gauge family (typ "counter" or
// "gauge") whose children collect emits, in its order, on every scrape and
// sample.
func (r *Registry) VecFunc(name, help, typ string, labels []string, collect func(emit func(v float64, values ...string))) {
	r.add(&family{name: name, help: help, typ: typ, labels: labels, collect: func(emit emitFunc) {
		collect(func(v float64, values ...string) { emit(values, v, nil) })
	}})
}

// WriteText renders every family in the Prometheus text exposition format
// (version 0.0.4), in registration order. A family with no children yet
// is omitted. Bucket b of a Hist holds integers ≤ 2^b − 1 (bucket 0 exact
// zeros), so that is its cumulative le bound; buckets past the highest
// non-empty one collapse into +Inf.
func (r *Registry) WriteText(w io.Writer) error {
	var b bytes.Buffer
	for _, f := range r.families(false) {
		header := false
		f.collect(func(values []string, v float64, h *Hist) {
			if !header {
				fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
				header = true
			}
			var labels []string
			for i, k := range f.labels {
				labels = append(labels, k+"="+strconv.Quote(values[i]))
			}
			set := strings.Join(labels, ",")
			if h != nil {
				writeHist(&b, f.name, set, h)
				return
			}
			if set != "" {
				set = "{" + set + "}"
			}
			val := strconv.FormatFloat(v, 'g', -1, 64)
			if v == float64(int64(v)) {
				val = strconv.FormatInt(int64(v), 10)
			}
			fmt.Fprintf(&b, "%s%s %s\n", f.name, set, val)
		})
	}
	_, err := w.Write(b.Bytes())
	return err
}

func writeHist(b *bytes.Buffer, name, labels string, h *Hist) {
	le, set := "{", ""
	if labels != "" {
		le, set = "{"+labels+",", "{"+labels+"}"
	}
	top := 0
	for i, c := range h.Counts {
		if c > 0 {
			top = i
		}
	}
	var cum int64
	for i := 0; i <= top; i++ {
		cum += h.Counts[i]
		fmt.Fprintf(b, "%s_bucket%sle=\"%d\"} %d\n", name, le, BucketLow(i+1)-1, cum)
	}
	fmt.Fprintf(b, "%s_bucket%sle=\"+Inf\"} %d\n", name, le, h.N)
	fmt.Fprintf(b, "%s_sum%s %d\n%s_count%s %d\n", name, set, h.Sum, name, set, h.N)
}

// splitCut parses a histogram cut "<base>_le_<2^k−1>[:labels]" into the
// child's count series "<base>_count[:labels]" and the bucket k.
func splitCut(name string) (count string, bucket int, ok bool) {
	head, suffix, _ := strings.Cut(name, ":")
	if suffix != "" {
		suffix = ":" + suffix
	}
	i := strings.LastIndex(head, "_le_")
	if i <= 0 {
		return "", 0, false
	}
	le, err := strconv.ParseUint(head[i+len("_le_"):], 10, 64)
	b := bits.Len64(le)
	if err != nil || le+1 != 1<<b || b >= histBuckets {
		return "", 0, false
	}
	return head[:i] + "_count" + suffix, b, true
}

// Source returns a time-series sampler source over every family
// registered now or later, except the ExposeOnly ones: one series per counter and gauge child,
// <name>_count per histogram child, and the histogram cuts named in wanted
// (other names in wanted are ignored).
func (r *Registry) Source(wanted ...string) func(rec func(name string, v float64)) {
	type cut struct {
		name   string
		bucket int
	}
	cuts := make(map[string][]cut) // count series → its requested cuts
	for _, w := range wanted {
		if count, b, ok := splitCut(w); ok {
			cuts[count] = append(cuts[count], cut{w, b})
		}
	}
	return func(rec func(name string, v float64)) {
		for _, f := range r.families(true) {
			base := strings.TrimPrefix(f.name, SeriesPrefix)
			f.collect(func(values []string, v float64, h *Hist) {
				suffix := ""
				if len(values) > 0 {
					suffix = ":" + strings.Join(values, ":")
				}
				if h == nil {
					rec(base+suffix, v)
					return
				}
				count := base + "_count" + suffix
				rec(count, float64(h.N))
				for _, c := range cuts[count] {
					var cum int64
					for _, n := range h.Counts[:c.bucket+1] {
						cum += n
					}
					rec(c.name, float64(cum))
				}
			})
		}
	}
}

// HasSeries reports whether name is a series Source can record: a counter
// or gauge, or a histogram's _count or valid _le_ cut, each suffixed with
// ":"-joined label values exactly when the family is labeled. Labeled
// children are matched by family only, since most appear at run time.
// An ExposeOnly family has no series.
func (r *Registry) HasSeries(name string) bool {
	if count, _, ok := splitCut(name); ok {
		name = count
	}
	head, _, labeled := strings.Cut(name, ":")
	r.mu.Lock()
	defer r.mu.Unlock()
	lookup := func(base string, hist bool) bool {
		f, ok := r.byName[SeriesPrefix+base]
		return ok && !f.exposeOnly && (f.typ == "histogram") == hist && labeled == (len(f.labels) > 0)
	}
	base, isCount := strings.CutSuffix(head, "_count")
	return isCount && lookup(base, true) || lookup(head, false)
}
