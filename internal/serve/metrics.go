package serve

// Self-contained serving metrics: named counters and fixed-bucket
// histograms with a deterministic text rendering, no external deps. The
// set of series is small and known ahead of time (requests, cache
// traffic, per-stage latency), so a mutex-guarded map is plenty — the
// contended path is one lock per observation, dwarfed by the work
// behind each request.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Histogram is a fixed-bucket cumulative histogram.
type Histogram struct {
	// uppers are the inclusive upper bounds of the finite buckets; an
	// implicit +Inf bucket catches the rest.
	uppers []float64
	counts []uint64
	inf    uint64
	sum    float64
	n      uint64
}

// newHistogram returns a histogram over the given finite upper bounds
// (ascending).
func newHistogram(uppers []float64) *Histogram {
	cp := make([]float64, len(uppers))
	copy(cp, uppers)
	return &Histogram{uppers: cp, counts: make([]uint64, len(cp))}
}

// observe records one value.
func (h *Histogram) observe(v float64) {
	h.sum += v
	h.n++
	for i, up := range h.uppers {
		if v <= up {
			h.counts[i]++
			return
		}
	}
	h.inf++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.n }

// Metrics is the server's metric registry.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]uint64
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{counters: map[string]uint64{}, hists: map[string]*Histogram{}}
}

// Add increments the named counter.
func (m *Metrics) Add(name string, delta uint64) {
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Set pins the named series to an absolute value — gauge semantics
// (peer up/down flags, ring sizes) rendered exactly like a counter.
func (m *Metrics) Set(name string, v uint64) {
	m.mu.Lock()
	m.counters[name] = v
	m.mu.Unlock()
}

// Counter returns the named counter's current value.
func (m *Metrics) Counter(name string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// Observe records a value into the named histogram, creating it with the
// given buckets on first use.
func (m *Metrics) Observe(name string, buckets []float64, v float64) {
	m.mu.Lock()
	h := m.hists[name]
	if h == nil {
		h = newHistogram(buckets)
		m.hists[name] = h
	}
	h.observe(v)
	m.mu.Unlock()
}

// HistogramCount returns the observation count of the named histogram
// (0 when it was never observed).
func (m *Metrics) HistogramCount(name string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if h := m.hists[name]; h != nil {
		return h.n
	}
	return 0
}

// Render writes the registry in the Prometheus text exposition style:
// counters as plain series, histograms as cumulative _bucket series plus
// _sum and _count. Series are sorted by name so scrapes are stable.
func (m *Metrics) Render() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var b strings.Builder
	names := make([]string, 0, len(m.counters))
	for n := range m.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%s %d\n", n, m.counters[n])
	}
	hnames := make([]string, 0, len(m.hists))
	for n := range m.hists {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := m.hists[n]
		cum := uint64(0)
		for i, up := range h.uppers {
			cum += h.counts[i]
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", n, formatBound(up), cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", n, cum+h.inf)
		fmt.Fprintf(&b, "%s_sum %g\n", n, h.sum)
		fmt.Fprintf(&b, "%s_count %d\n", n, h.n)
	}
	return b.String()
}

// formatBound renders a bucket bound the way Prometheus does (integers
// without a decimal point).
func formatBound(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// Metric names and the latency bucket set used by the server. Latency
// buckets span 100µs to ~100s in roughly 10x steps, in seconds.
const (
	mReqClassify    = "fsml_requests_classify_total"
	mReqClassifyBin = "fsml_requests_classify_bin_total"
	mReqReport      = "fsml_requests_report_total"
	mReqDetectors   = "fsml_requests_detectors_total"
	mReqErrors      = "fsml_request_errors_total"
	mRegistryHits   = "fsml_registry_hits_total"
	mRegistryMisses = "fsml_registry_misses_total"
	mRegistryEvicts = "fsml_registry_evictions_total"
	mDegraded       = "fsml_classify_degraded_total"
	mClassifySec    = "fsml_stage_classify_seconds"
	mReportSec      = "fsml_stage_report_seconds"
	mRequestSec     = "fsml_request_seconds"

	// Resilience series: every admission, breaker, and persistence
	// decision is observable, so shed storms and failing train specs
	// show up in a scrape instead of only in latency tails.
	mShedClassify    = "fsml_shed_classify_total"
	mShedReport      = "fsml_shed_report_total"
	mShedWatch       = "fsml_shed_watch_total"
	mReqWatch        = "fsml_requests_watch_total"
	mRejectShutdown  = "fsml_rejected_shutdown_total"
	mBreakerOpened   = "fsml_breaker_opened_total"
	mBreakerProbes   = "fsml_breaker_halfopen_probes_total"
	mBreakerClosed   = "fsml_breaker_closed_total"
	mBreakerFastFail = "fsml_breaker_fastfail_total"
	mQuarantined     = "fsml_registry_quarantined_total"
)

var latencyBuckets = []float64{1e-4, 1e-3, 1e-2, 0.1, 1, 10, 100}
