package stream

// Monitor binds the pure Engine to a live workload: it runs kernels in
// the collector's slice loop (core.Collector.MeasureSliced, shared with
// core.DetectSliced), reads the PMU at every slice boundary, feeds the
// slice samples to the engine, and fans the resulting event stream out
// to subscribers. The engine side stays strictly synchronous
// — the canonical event sequence is a pure function of (collector
// config, seed, window spec, kernels) — so determinism survives any
// number of concurrent sessions. Backpressure exists only at the
// subscription boundary: each subscriber owns a bounded ring where the
// oldest undelivered event is dropped (and counted) when the consumer
// falls behind. A slow SSE client can therefore lose events, never
// stall the session or bloat memory, and always knows how much it lost.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"fsml/internal/core"
	"fsml/internal/machine"
)

// Stream metric names, registered on whatever CounterSink the session
// is given (the serving layer passes its /metrics registry).
const (
	MetricSessionsStarted   = "fsml_stream_sessions_started_total"
	MetricSessionsClosed    = "fsml_stream_sessions_closed_total"
	MetricWindowsClassified = "fsml_stream_windows_classified_total"
	MetricWindowsDropped    = "fsml_stream_windows_dropped_total"
	MetricPhaseTransitions  = "fsml_stream_phase_transitions_total"
	MetricDriftAlarms       = "fsml_stream_drift_alarms_total"
	MetricDriftCleared      = "fsml_stream_drift_cleared_total"
)

// CounterSink receives stream-layer counter increments. *serve.Metrics
// satisfies it; a nil sink disables counting.
type CounterSink interface {
	Add(name string, delta uint64)
}

// MonitorConfig shapes one monitoring session. Platform configuration
// (machine template, PMU model, event set, fault injection) comes from
// the Collector the monitor is built with, exactly as for batch
// detection.
type MonitorConfig struct {
	// Spec is the window geometry (zero value: DefaultWindowSpec).
	Spec WindowSpec
	// SliceRounds is the scheduler-round length of one slice sample
	// (default 500, matching the sliced-detection examples).
	SliceRounds int
	// Seed drives the session's machine and PMU.
	Seed uint64
	// Envelope, when non-nil, enables drift alarms.
	Envelope *Envelope
	// MinInstructions is the per-window classification guard (see
	// EngineConfig).
	MinInstructions float64
	// Counters, when non-nil, receives the stream metrics above.
	Counters CounterSink
	// OnEvent, when non-nil, observes every event synchronously in
	// canonical order, before any subscriber sees it. It is the lossless
	// consumer (the CLI, the golden test); keep it fast — it runs on the
	// session goroutine.
	OnEvent func(Event)
}

// Monitor is one streaming detection session. Build it, attach
// subscriptions, then Run it exactly once.
type Monitor struct {
	col *core.Collector
	det *core.Detector
	cfg MonitorConfig

	mu   sync.Mutex
	subs []*Subscription
	ran  bool
}

// NewMonitor builds a session. A nil collector uses core.NewCollector's
// paper-default platform. The window spec is validated here so a bad
// session fails before any simulation.
func NewMonitor(col *core.Collector, det *core.Detector, cfg MonitorConfig) (*Monitor, error) {
	if det == nil {
		return nil, fmt.Errorf("stream: nil detector")
	}
	if col == nil {
		col = core.NewCollector()
	}
	if (cfg.Spec == WindowSpec{}) {
		cfg.Spec = DefaultWindowSpec()
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.SliceRounds <= 0 {
		cfg.SliceRounds = 500
	}
	return &Monitor{col: col, det: det, cfg: cfg}, nil
}

// Subscription is one bounded, drop-oldest event feed.
type Subscription struct {
	ch      chan Event
	dropped atomic.Uint64
}

// Events is the feed channel. It is closed when the session ends.
func (s *Subscription) Events() <-chan Event { return s.ch }

// Dropped returns how many events backpressure discarded on this feed.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// push delivers one event, discarding the oldest buffered event when
// the ring is full. It returns the number of events dropped to make
// room. Only the session goroutine calls push, so the steal below never
// races another producer; a concurrent consumer receive just means the
// retry send succeeds.
func (s *Subscription) push(ev Event) uint64 {
	var dropped uint64
	for {
		select {
		case s.ch <- ev:
			s.dropped.Add(dropped)
			return dropped
		default:
		}
		select {
		case <-s.ch:
			dropped++
		default:
		}
	}
}

// Subscribe attaches a feed with the given buffer depth (minimum 1)
// to a session that has not started. Subscribing after Run begins
// would make delivery start mid-stream, so it is rejected.
func (m *Monitor) Subscribe(buf int) (*Subscription, error) {
	if buf < 1 {
		buf = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.ran {
		return nil, fmt.Errorf("stream: subscribe after Run")
	}
	s := &Subscription{ch: make(chan Event, buf)}
	m.subs = append(m.subs, s)
	return s, nil
}

// count increments a stream metric when a sink is attached.
func (m *Monitor) count(name string, delta uint64) {
	if m.cfg.Counters != nil && delta > 0 {
		m.cfg.Counters.Add(name, delta)
	}
}

// publish fans events out: OnEvent first (lossless, canonical order),
// then every subscription (lossy under backpressure), then metrics.
func (m *Monitor) publish(events []Event) {
	for _, ev := range events {
		if m.cfg.OnEvent != nil {
			m.cfg.OnEvent(ev)
		}
		var dropped uint64
		for _, s := range m.subs {
			dropped += s.push(ev)
		}
		m.count(MetricWindowsDropped, dropped)
		switch ev.Kind {
		case KindWindow:
			if ev.Window.Class != "" {
				m.count(MetricWindowsClassified, 1)
			}
		case KindPhase:
			m.count(MetricPhaseTransitions, 1)
		case KindDrift:
			m.count(MetricDriftAlarms, 1)
		case KindDriftClear:
			m.count(MetricDriftCleared, 1)
		}
	}
}

// Run executes the kernels on a fresh machine, streaming classification
// events until the workload finishes or ctx is cancelled (a cancelled
// session still emits its done event, marked Truncated). It returns the
// session summary. Run may be called once per Monitor.
func (m *Monitor) Run(ctx context.Context, kernels []machine.Kernel) (*Summary, error) {
	m.mu.Lock()
	if m.ran {
		m.mu.Unlock()
		return nil, fmt.Errorf("stream: Run called twice")
	}
	m.ran = true
	subs := m.subs
	m.mu.Unlock()

	defer func() {
		for _, s := range subs {
			close(s.ch)
		}
		m.count(MetricSessionsClosed, 1)
	}()
	m.count(MetricSessionsStarted, 1)

	eng, err := NewEngine(m.det, EngineConfig{
		Spec:            m.cfg.Spec,
		Envelope:        m.cfg.Envelope,
		MinInstructions: m.cfg.MinInstructions,
	})
	if err != nil {
		return nil, err
	}

	key := fmt.Sprintf("stream/seed=%d", m.cfg.Seed)
	err = m.col.MeasureSliced(ctx, key, m.cfg.Seed, kernels, m.cfg.SliceRounds, func(iv core.Interval) error {
		// The engine's rolling sums do the window math over the
		// per-slice samples.
		events, err := eng.Push(iv.Read(), iv.Seconds)
		if err != nil {
			return &core.PipelineError{Stage: core.StageClassify, Case: key, Err: err}
		}
		m.publish(events)
		return nil
	})
	truncated := err != nil && err == ctx.Err()
	if err != nil && !truncated {
		return nil, err
	}
	done, err := eng.Finish(truncated)
	if err != nil {
		return nil, err
	}
	m.publish(done)
	return done[len(done)-1].Summary, nil
}
