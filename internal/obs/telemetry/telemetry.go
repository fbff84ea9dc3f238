// Package telemetry is the engine-level metrics registry: counters,
// gauges, and fixed-bucket histograms describing the *runtime* (phase
// times, token traffic by owning shard, mailbox depths) rather than the
// translated program, which internal/obs observes.
//
// The package follows the obs discipline on both axes that matter to
// the machine:
//
//   - Disabled is near-free. Engines hold nil probe structs when no
//     registry is attached, and every instrument method is nil-receiver
//     safe, so an uninstrumented firing pays only nil-check branches
//     (guarded by BenchmarkObsDisabled).
//
//   - Enabled is deterministic where the machine is. Instrument values
//     are int64 (durations in nanoseconds), updated with atomics so a
//     Snapshot is race-free at any instant — that is what lets `ctdf
//     top` and the /metrics endpoint read a *running* machine. The
//     machine creates and writes its series from its one cycle body, in
//     an order the simulated execution fixes, so series creation order
//     — and therefore the rendered text — is byte-deterministic.
//
// Not everything a profiler measures can be invariant: wall-clock times
// depend on the host and per-shard series depend on the worker count.
// Each family therefore carries two flags. Varying marks families whose
// *values* are wall-clock or scheduling dependent; Sharded marks
// families whose *shape or values* depend on the worker topology.
// Snapshot.Stable (drop Varying) is byte-reproducible for a fixed
// worker count; Snapshot.Invariant (drop Varying and Sharded) is
// byte-identical across worker counts, pinned by the machine's
// cross-worker equivalence test.
package telemetry

import (
	"sync"
	"sync/atomic"
)

// Kind is the instrument kind of a metric family.
type Kind int

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

// String returns the OpenMetrics type name.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Spec declares a metric family: its identity, shape, and determinism
// class. Specs are plain values; the engine probes register them
// against a Registry and the catalog exposes them for documentation.
type Spec struct {
	Name   string   `json:"name"`             // family name without the counter _total suffix
	Help   string   `json:"help"`             // one-line description for the exposition
	Kind   Kind     `json:"kind"`             // counter, gauge, or histogram
	Unit   string   `json:"unit,omitempty"`   // "" or "seconds"; seconds families store nanoseconds
	Labels []string `json:"labels,omitempty"` // label names, in declaration order
	// Buckets holds histogram upper bounds in the stored unit
	// (nanoseconds for seconds families). An implicit +Inf bucket is
	// always appended.
	Buckets []int64 `json:"buckets,omitempty"`
	// Varying marks values that depend on wall-clock time or
	// scheduling (phase durations, mailbox depths, watchdog slack).
	// Varying families are excluded from every byte-exact comparison.
	Varying bool `json:"varying,omitempty"`
	// Sharded marks families whose series set or values depend on the
	// worker topology (per-shard occupancy, the traffic matrix). Sharded
	// families are deterministic at a fixed worker count but excluded
	// from cross-worker comparisons.
	Sharded bool `json:"sharded,omitempty"`
}

// MarshalJSON renders the kind as its OpenMetrics type name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// Series is one labelled instrument inside a family. All mutation is
// atomic and all methods are nil-receiver safe, so engine probes can
// hold nil handles when telemetry is disabled.
type Series struct {
	labels  []string
	v       atomic.Int64   // counter / gauge value
	buckets []atomic.Int64 // histogram: len(spec.Buckets)+1, last is +Inf
	count   atomic.Int64
	sum     atomic.Int64
}

// Add increments a counter (or adjusts a gauge) by n.
func (s *Series) Add(n int64) {
	if s == nil {
		return
	}
	s.v.Add(n)
}

// Set stores a gauge value.
func (s *Series) Set(n int64) {
	if s == nil {
		return
	}
	s.v.Store(n)
}

// SetMax raises a gauge to n if n exceeds the current value.
func (s *Series) SetMax(n int64) {
	if s == nil {
		return
	}
	for {
		cur := s.v.Load()
		if n <= cur || s.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Observe records one histogram observation.
func (s *Series) Observe(v int64, bounds []int64) { s.ObserveN(v, 1, bounds) }

// ObserveN records n observations of v: a sampled measurement standing
// for n like it.
func (s *Series) ObserveN(v, n int64, bounds []int64) {
	if s == nil {
		return
	}
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	s.buckets[i].Add(n)
	s.count.Add(n)
	s.sum.Add(v * n)
}

// Local is a single-goroutine front for a Series: Add and Observe update
// plain memory, and Flush folds what accumulated into the series'
// atomics. A hot loop that owns a series' writes pays the atomic cost
// once per flush instead of once per event; readers see the values as of
// the last Flush, and exactly once the owner has flushed for good.
type Local struct {
	s       *Series
	v, sum  int64
	buckets []int64
}

// Local returns a new front for s; the caller is its only user.
func (s *Series) Local() *Local { return &Local{s: s, buckets: make([]int64, len(s.buckets))} }

// Add increments the counter (or adjusts the gauge) by n.
func (l *Local) Add(n int64) { l.v += n }

// Observe records one histogram observation.
func (l *Local) Observe(v int64, bounds []int64) {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	l.buckets[i]++
	l.sum += v
}

// Flush folds the accumulated updates into the series.
func (l *Local) Flush() {
	if l.v != 0 {
		l.s.v.Add(l.v)
		l.v = 0
	}
	n := int64(0)
	for i, c := range l.buckets {
		if c != 0 {
			l.s.buckets[i].Add(c)
			l.buckets[i] = 0
			n += c
		}
	}
	if n != 0 {
		l.s.count.Add(n)
		l.s.sum.Add(l.sum)
		l.sum = 0
	}
}

// Family is a registered metric family: a Spec plus its series, in
// creation order. Creation order is part of the exposition format —
// per-shard series are created in shard order by the probes — so
// renders are byte-deterministic without any locale-dependent sorting
// of numeric label values.
type Family struct {
	Spec
	mu     *sync.Mutex // the owning registry's lock
	series []*Series
	index  map[string]*Series
}

// Series returns the instrument for the given label values, creating
// it on first use. The number of values must match the Spec's labels.
func (f *Family) Series(labelVals ...string) *Series {
	if f == nil {
		return nil
	}
	if len(labelVals) != len(f.Labels) {
		panic("telemetry: label arity mismatch on " + f.Name)
	}
	key := seriesKey(labelVals)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.index[key]; ok {
		return s
	}
	s := &Series{labels: append([]string(nil), labelVals...)}
	if f.Kind == KindHistogram {
		s.buckets = make([]atomic.Int64, len(f.Buckets)+1)
	}
	f.index[key] = s
	f.series = append(f.series, s)
	return s
}

// Observe records v into the series for the given labels, looking up
// the family bounds. Convenience for call sites that do not cache the
// series handle.
func (f *Family) Observe(v int64, labelVals ...string) {
	if f == nil {
		return
	}
	f.Series(labelVals...).Observe(v, f.Buckets)
}

func seriesKey(vals []string) string {
	key := ""
	for _, v := range vals {
		key += v + "\x00"
	}
	return key
}

// Registry holds metric families in registration order. Registration
// takes the lock; instrument updates are lock-free atomics; Snapshot
// is safe at any time, including while engine phases are running.
type Registry struct {
	mu       sync.Mutex
	families []*Family
	byName   map[string]*Family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Family)}
}

// Family registers spec (or returns the existing family of that name,
// so repeated runs against one registry accumulate). Nil-receiver safe.
func (r *Registry) Family(spec Spec) *Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[spec.Name]; ok {
		return f
	}
	f := &Family{Spec: spec, mu: &r.mu, index: make(map[string]*Series)}
	r.byName[spec.Name] = f
	r.families = append(r.families, f)
	return f
}

// Snapshot copies every family and series into an immutable view.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := &Snapshot{}
	for _, f := range r.families {
		fs := FamilySnap{Spec: f.Spec}
		for _, s := range f.series {
			ss := SeriesSnap{Labels: s.labels, Value: s.v.Load()}
			if f.Kind == KindHistogram {
				ss.Buckets = make([]int64, len(s.buckets))
				for i := range s.buckets {
					ss.Buckets[i] = s.buckets[i].Load()
				}
				ss.Count = s.count.Load()
				ss.Sum = s.sum.Load()
			}
			fs.Series = append(fs.Series, ss)
		}
		snap.Families = append(snap.Families, fs)
	}
	return snap
}

// Snapshot is an immutable copy of a registry. Families appear in
// registration order, series in creation order; both are deterministic
// because registration happens in sequential engine code.
type Snapshot struct {
	Families []FamilySnap `json:"families"`
}

// FamilySnap is one family in a snapshot.
type FamilySnap struct {
	Spec
	Series []SeriesSnap `json:"series"`
}

// SeriesSnap is one series in a snapshot. Durations are nanoseconds
// (families with Unit "seconds"); the renderers convert.
type SeriesSnap struct {
	Labels  []string `json:"labels,omitempty"`
	Value   int64    `json:"value,omitempty"`   // counter / gauge
	Buckets []int64  `json:"buckets,omitempty"` // histogram, +Inf last
	Count   int64    `json:"count,omitempty"`
	Sum     int64    `json:"sum,omitempty"`
}

// Stable returns the snapshot without Varying families: the projection
// that is byte-reproducible for a fixed worker count.
func (s *Snapshot) Stable() *Snapshot { return s.filter(func(f FamilySnap) bool { return !f.Varying }) }

// Invariant returns the snapshot without Varying and Sharded families:
// the projection that is byte-identical across worker counts.
func (s *Snapshot) Invariant() *Snapshot {
	return s.filter(func(f FamilySnap) bool { return !f.Varying && !f.Sharded })
}

func (s *Snapshot) filter(keep func(FamilySnap) bool) *Snapshot {
	out := &Snapshot{}
	for _, f := range s.Families {
		if keep(f) {
			out.Families = append(out.Families, f)
		}
	}
	return out
}

// Family returns the named family snapshot, or nil.
func (s *Snapshot) Family(name string) *FamilySnap {
	for i := range s.Families {
		if s.Families[i].Name == name {
			return &s.Families[i]
		}
	}
	return nil
}

// Get returns the value of the series with the given label values
// (counter/gauge), or 0 when absent.
func (f *FamilySnap) Get(labelVals ...string) int64 {
	if f == nil {
		return 0
	}
	for _, s := range f.Series {
		if labelsEqual(s.Labels, labelVals) {
			return s.Value
		}
	}
	return 0
}

func labelsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
