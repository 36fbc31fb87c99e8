// Package stream is the online detection engine: it turns the paper's
// whole-run (or time-sliced, §6) batch classification into a continuous
// monitor. A live sequence of PMU slice samples — from a running
// simulated workload or a replayed trace — is aggregated into sliding
// windows with incremental per-window normalization, each window is
// classified through the trained detector (degrading gracefully on
// suspect counter reads, see core.Detector.ClassifyRobust), and the raw
// verdict stream is smoothed with hysteresis + majority voting so one
// noisy window cannot flip the diagnosis. The smoothed class shifting
// emits phase-change events — the online analogue of
// core.SliceProfile.PhaseRuns — and a per-window envelope check emits
// drift alarms when the observed feature distribution departs from what
// training saw.
//
// Everything in this package is deterministic: the engine is a pure
// sequential state machine, so the same seed and window spec produce a
// byte-identical event stream regardless of how many sessions run
// concurrently or how subscribers buffer (backpressure drops happen at
// the subscription boundary and are counted, never reordered — see
// monitor.go).
package stream

import (
	"fmt"
	"math"

	"fsml/internal/core"
	"fsml/internal/dataset"
	"fsml/internal/ml"
	"fsml/internal/pmu"
)

// Event kinds carried on a stream.
const (
	// KindWindow is one classified window verdict.
	KindWindow = "window"
	// KindPhase is a smoothed-class transition.
	KindPhase = "phase"
	// KindDrift is a feature-distribution drift alarm (edge-triggered).
	KindDrift = "drift"
	// KindDriftClear is the paired recovery event: the feature
	// distribution returned inside the training envelope after a drift
	// alarm. Every KindDrift is eventually followed by at most one
	// KindDriftClear (an episode still open when the stream ends emits
	// none).
	KindDriftClear = "drift-clear"
	// KindDone closes a stream with its summary.
	KindDone = "done"
)

// Event is one element of the monitoring stream. Exactly one of the
// payload pointers matches Kind; the flat shape keeps the SSE wire
// format and the golden test trivially byte-stable.
type Event struct {
	// Seq is the event's ordinal in the session, starting at 0.
	Seq int `json:"seq"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Window is set for KindWindow events.
	Window *WindowVerdict `json:"window,omitempty"`
	// Phase is set for KindPhase events.
	Phase *PhaseChange `json:"phase,omitempty"`
	// Drift is set for KindDrift events.
	Drift *DriftAlarm `json:"drift,omitempty"`
	// DriftClear is set for KindDriftClear events.
	DriftClear *DriftCleared `json:"drift_clear,omitempty"`
	// Summary is set for KindDone events.
	Summary *Summary `json:"summary,omitempty"`
}

// WindowVerdict is the classification of one window.
type WindowVerdict struct {
	// Index is the window ordinal, starting at 0.
	Index int `json:"index"`
	// Start and End delimit the window's slice samples: [Start, End).
	Start int `json:"start"`
	End   int `json:"end"`
	// Class is the raw per-window verdict ("" when the window retired
	// too few instructions to classify).
	Class string `json:"class"`
	// Confidence and Degraded record classification quality when flagged
	// counter reads forced a partial-subset prediction.
	Confidence float64 `json:"confidence"`
	Degraded   bool    `json:"degraded,omitempty"`
	// Suspects lists flagged events behind a degraded verdict.
	Suspects []string `json:"suspects,omitempty"`
	// Smoothed is the hysteresis-smoothed class after this window's vote
	// ("" until the first window classifies).
	Smoothed string `json:"smoothed"`
	// Instructions and Seconds describe the window's interval.
	Instructions float64 `json:"instructions"`
	Seconds      float64 `json:"seconds"`
}

// PhaseChange reports the smoothed class shifting — the live "the
// program just entered a false-sharing phase" signal.
type PhaseChange struct {
	// From and To are the previous and new smoothed classes (From is ""
	// on the first classified window).
	From string `json:"from"`
	To   string `json:"to"`
	// Window is the window index at which the switch was confirmed
	// (hysteresis confirms a transition a few windows after it begins).
	Window int `json:"window"`
	// Start back-dates the transition to the first window of the raw-
	// verdict run that won the vote, so reported phase boundaries track
	// the workload, not the smoothing lag.
	Start int `json:"start"`
	// Sample is the slice-sample index at which the Start window began.
	Sample int `json:"sample"`
}

// DriftAlarm reports the window feature distribution leaving the
// training envelope. Alarms are edge-triggered: one alarm when drift
// begins, re-armed once a window returns inside the envelope.
type DriftAlarm struct {
	// Window is the first drifting window.
	Window int `json:"window"`
	// Features lists the out-of-envelope attributes, in envelope order.
	Features []string `json:"features"`
	// Score is the fraction of envelope attributes out of bounds.
	Score float64 `json:"score"`
}

// DriftCleared reports recovery from a drift episode: the first window
// whose features are all back inside the training envelope after a
// DriftAlarm. Consumers that debounce alarms (the model-lifecycle
// manager, `fsml watch -json` dashboards) need the falling edge too —
// without it an edge-triggered alarm looks permanent.
type DriftCleared struct {
	// Window is the window index at which the features recovered.
	Window int `json:"window"`
	// Since is the window index of the paired DriftAlarm.
	Since int `json:"since"`
	// Windows is how many windows the episode spanned (Window - Since).
	Windows int `json:"windows"`
}

// PhaseSegment is one maximal run of the smoothed class, in window
// indices — the streaming analogue of core.PhaseRun.
type PhaseSegment struct {
	Class string `json:"class"`
	Start int    `json:"start"`
	End   int    `json:"end"`
}

// Summary closes a stream: what was seen and what it amounted to.
type Summary struct {
	// Samples is the number of slice samples consumed.
	Samples int `json:"samples"`
	// Windows is the number of windows formed; Classified counts those
	// that retired enough instructions to classify.
	Windows    int `json:"windows"`
	Classified int `json:"classified"`
	// Phases counts smoothed-class transitions, DriftAlarms the drift
	// alarms raised, DriftCleared the episodes that recovered (an alarm
	// still open at stream end stays uncounted here).
	Phases       int `json:"phases"`
	DriftAlarms  int `json:"drift_alarms"`
	DriftCleared int `json:"drift_cleared"`
	// Final is the smoothed class when the stream ended.
	Final string `json:"final"`
	// PhaseRuns is the smoothed phase timeline, in window indices.
	PhaseRuns []PhaseSegment `json:"phase_runs,omitempty"`
	// Seconds is the total simulated time streamed.
	Seconds float64 `json:"seconds"`
	// Truncated marks a stream that was cancelled (client gone, server
	// shutting down) rather than run to workload completion.
	Truncated bool `json:"truncated,omitempty"`
}

// ---------------------------------------------------------------------------
// Envelope

// Envelope is the training feature envelope drift is measured against:
// per-attribute [Lo, Hi] bounds on the normalized event rates.
type Envelope struct {
	Attrs []string
	Lo    []float64
	Hi    []float64
}

// EnvelopeFromDataset computes the envelope of a labeled training set:
// per-attribute min/max over every instance, widened on each side by
// margin times the attribute's observed range (a constant attribute is
// widened by margin times its magnitude, so the envelope never has zero
// width). A negative margin means the default 0.25.
func EnvelopeFromDataset(d *dataset.Dataset, margin float64) *Envelope {
	if margin < 0 {
		margin = 0.25
	}
	env := &Envelope{
		Attrs: append([]string(nil), d.Attrs...),
		Lo:    make([]float64, len(d.Attrs)),
		Hi:    make([]float64, len(d.Attrs)),
	}
	for a := range d.Attrs {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, inst := range d.Instances {
			v := inst.Features[a]
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
		if len(d.Instances) == 0 {
			lo, hi = 0, math.Inf(1)
		}
		width := hi - lo
		if width == 0 {
			width = math.Abs(hi)
			if width == 0 {
				width = 1
			}
		}
		env.Lo[a] = lo - margin*width
		env.Hi[a] = hi + margin*width
	}
	return env
}

// EnvelopeFromTree derives a coarse envelope from a trained tree alone,
// for deployments that have the model but not its training data (the
// serving registry): each attribute's upper bound is its largest split
// threshold scaled by (1 + slack), its lower bound 0 (normalized event
// rates are non-negative). Attributes the tree never splits on are
// unbounded. A non-positive slack means the default 4.
func EnvelopeFromTree(t *ml.Tree, slack float64) *Envelope {
	if slack <= 0 {
		slack = 4
	}
	env := &Envelope{
		Attrs: append([]string(nil), t.Attrs...),
		Lo:    make([]float64, len(t.Attrs)),
		Hi:    make([]float64, len(t.Attrs)),
	}
	maxThr := make([]float64, len(t.Attrs))
	seen := make([]bool, len(t.Attrs))
	var walk func(n *ml.Node)
	walk = func(n *ml.Node) {
		if n == nil || n.Leaf {
			return
		}
		if n.Attr >= 0 && n.Attr < len(maxThr) {
			if !seen[n.Attr] || n.Threshold > maxThr[n.Attr] {
				maxThr[n.Attr] = n.Threshold
				seen[n.Attr] = true
			}
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(t.Root)
	for a := range env.Attrs {
		if seen[a] {
			env.Hi[a] = maxThr[a] * (1 + slack)
		} else {
			env.Hi[a] = math.Inf(1)
		}
	}
	return env
}

// ---------------------------------------------------------------------------
// Engine

// EngineConfig shapes an Engine.
type EngineConfig struct {
	// Spec is the window geometry and smoothing depth (zero value:
	// DefaultWindowSpec).
	Spec WindowSpec
	// Envelope, when non-nil, enables drift alarms.
	Envelope *Envelope
	// MinInstructions guards against classifying near-empty windows;
	// a window that retired fewer instructions stays unclassified
	// (default 2000, matching the sliced detector's guard).
	MinInstructions float64
}

// Classifier is the per-window verdict source, core's one
// classification seam. core.Detector and the multi-pathology ensemble
// both implement it, so phase and drift events carry whatever label
// space the classifier emits — the engine never assumes the paper's
// three classes.
type Classifier = core.Classifier

// Engine is the pure streaming state machine: feed it one slice sample
// at a time with Push, collect the events each sample produced, and
// Finish to close the stream with its summary. It is strictly
// sequential (one goroutine) and allocation-light: the window buffer,
// rolling sums, and the aggregate sample are set up once and reused, so
// the per-sample cost is the subtraction/addition of one counter row
// plus at most one classification.
type Engine struct {
	det Classifier
	cfg EngineConfig

	// layout is the event-name layout fixed by the first sample. The
	// aggregate sample reuses this exact slice so the detector's cached
	// projection takes its O(1) identity fast path.
	layout []string

	// ring holds the samples of the forming window.
	ring  []ringEntry
	head  int // index of the oldest entry
	count int // entries currently in the window

	// rolling aggregates over the ring.
	sums        []float64
	instrSum    float64
	secondsSum  float64
	flaggedIn   int // ring entries carrying any event flag
	instrFlagIn int // ring entries with a flagged instruction read

	agg pmu.Sample // reusable aggregate sample

	// envIdx maps envelope attributes into the layout (built lazily).
	envIdx []int

	// window bookkeeping.
	sampleIdx int // samples consumed
	winIdx    int // windows emitted
	winStart  int // first sample index of the forming window

	// hysteresis ring of the last Spec.Hysteresis raw verdicts.
	votes []string
	vlen  int
	vhead int

	// smoothing and phase state.
	smoothed    string
	rawRunClass string
	rawRunStart int // window index
	rawRunSmpl  int // sample index of that window's start
	segments    []PhaseSegment

	// drift state. driftSince is the window index of the open episode's
	// alarm, meaningful only while inDrift.
	inDrift    bool
	driftSince int

	// totals.
	classified   int
	phases       int
	driftAlarms  int
	driftCleared int
	seconds      float64
	seq          int
	finished     bool
}

// ringEntry is one buffered slice sample.
type ringEntry struct {
	counts    []float64
	instr     float64
	seconds   float64
	flags     []pmu.CountFlag
	instrFlag pmu.CountFlag
}

// NewEngine builds an engine around det — the 3-class detector, the
// ensemble, or a test double. The spec is validated up front so a
// session can fail fast before any simulation work.
func NewEngine(det Classifier, cfg EngineConfig) (*Engine, error) {
	if det == nil {
		return nil, fmt.Errorf("stream: nil classifier")
	}
	if (cfg.Spec == WindowSpec{}) {
		cfg.Spec = DefaultWindowSpec()
	}
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.MinInstructions == 0 {
		cfg.MinInstructions = 2000
	}
	return &Engine{
		det:   det,
		cfg:   cfg,
		ring:  make([]ringEntry, cfg.Spec.Size),
		votes: make([]string, cfg.Spec.Hysteresis),
	}, nil
}

// Spec returns the engine's validated window spec.
func (e *Engine) Spec() WindowSpec { return e.cfg.Spec }

// emit appends a stamped event.
func (e *Engine) emit(out []Event, ev Event) []Event {
	ev.Seq = e.seq
	e.seq++
	return append(out, ev)
}

// Push feeds one slice sample (with its simulated duration) and returns
// the events it produced: at most one window verdict, plus any phase
// change and drift alarm that verdict triggered. The first sample fixes
// the event layout; later samples must match it.
func (e *Engine) Push(s pmu.Sample, seconds float64) ([]Event, error) {
	if e.finished {
		return nil, fmt.Errorf("stream: push after Finish")
	}
	if e.layout == nil {
		e.layout = append([]string(nil), s.Names...)
		e.sums = make([]float64, len(e.layout))
		e.agg = pmu.Sample{Names: e.layout, Counts: make([]float64, len(e.layout))}
	} else if !sameNames(e.layout, s.Names) {
		return nil, fmt.Errorf("stream: sample %d event layout changed (got %d events, want the session's %d)", e.sampleIdx, len(s.Names), len(e.layout))
	}

	// Admit the sample into the ring and the rolling sums.
	slot := (e.head + e.count) % len(e.ring)
	ent := &e.ring[slot]
	if ent.counts == nil {
		ent.counts = make([]float64, len(e.layout))
	}
	copy(ent.counts, s.Counts)
	ent.instr = s.Instructions
	ent.seconds = seconds
	ent.instrFlag = s.InstrFlag
	ent.flags = nil
	if s.Flags != nil {
		ent.flags = append(ent.flags[:0], s.Flags...)
	}
	e.count++
	for i, c := range s.Counts {
		e.sums[i] += c
	}
	e.instrSum += s.Instructions
	e.secondsSum += seconds
	if flagged(s.Flags) {
		e.flaggedIn++
	}
	if s.InstrFlag.Suspect() {
		e.instrFlagIn++
	}
	e.sampleIdx++
	e.seconds += seconds

	if e.count < e.cfg.Spec.Size {
		return nil, nil
	}

	// A full window: classify, vote, slide.
	var out []Event
	out, err := e.classifyWindow(out)
	if err != nil {
		return out, err
	}
	e.slide(e.cfg.Spec.Stride)
	return out, nil
}

// classifyWindow turns the current ring contents into one verdict and
// the events it triggers.
func (e *Engine) classifyWindow(out []Event) ([]Event, error) {
	v := &WindowVerdict{
		Index:        e.winIdx,
		Start:        e.winStart,
		End:          e.winStart + e.cfg.Spec.Size,
		Instructions: e.instrSum,
		Seconds:      e.secondsSum,
	}
	startSample := e.winStart
	e.winIdx++
	e.winStart += e.cfg.Spec.Stride

	if e.instrSum >= e.cfg.MinInstructions {
		copy(e.agg.Counts, e.sums)
		e.agg.Instructions = e.instrSum
		e.agg.Flags = nil
		e.agg.InstrFlag = 0
		if e.flaggedIn > 0 {
			e.agg.Flags = e.orFlags()
		}
		if e.instrFlagIn > 0 {
			e.agg.InstrFlag = e.orInstrFlag()
		}
		rr, err := e.det.ClassifyRobust(e.agg)
		if err != nil {
			return out, fmt.Errorf("stream: window %d: %w", v.Index, err)
		}
		v.Class, v.Confidence, v.Degraded, v.Suspects = rr.Class, rr.Confidence, rr.Degraded, rr.Suspects
		e.classified++
	}

	var phase *PhaseChange
	if v.Class != "" {
		phase = e.vote(v.Class, v.Index, startSample)
	}
	v.Smoothed = e.smoothed
	out = e.emit(out, Event{Kind: KindWindow, Window: v})
	if phase != nil {
		out = e.emit(out, Event{Kind: KindPhase, Phase: phase})
	}
	if e.cfg.Envelope != nil && v.Class != "" {
		alarm, cleared, err := e.checkDrift(v.Index)
		if err != nil {
			return out, err
		}
		if alarm != nil {
			out = e.emit(out, Event{Kind: KindDrift, Drift: alarm})
		}
		if cleared != nil {
			out = e.emit(out, Event{Kind: KindDriftClear, DriftClear: cleared})
		}
	}
	return out, nil
}

// vote pushes one raw verdict into the hysteresis ring and returns the
// phase change it confirms, if any. The smoothed class switches only
// when a strict majority of the ring agrees on a different class; the
// change is back-dated to the start of the raw run that won.
func (e *Engine) vote(class string, window, sample int) *PhaseChange {
	if class != e.rawRunClass {
		e.rawRunClass, e.rawRunStart, e.rawRunSmpl = class, window, sample
	}
	if e.vlen < len(e.votes) {
		e.votes[(e.vhead+e.vlen)%len(e.votes)] = class
		e.vlen++
	} else {
		e.votes[e.vhead] = class
		e.vhead = (e.vhead + 1) % len(e.votes)
	}
	proposed := e.majority()
	if proposed == "" || proposed == e.smoothed {
		return nil
	}
	pc := &PhaseChange{From: e.smoothed, To: proposed, Window: window, Start: window, Sample: sample}
	if e.rawRunClass == proposed {
		pc.Start, pc.Sample = e.rawRunStart, e.rawRunSmpl
	}
	if n := len(e.segments); n > 0 {
		e.segments[n-1].End = pc.Start - 1
	}
	e.segments = append(e.segments, PhaseSegment{Class: proposed, Start: pc.Start, End: window})
	e.smoothed = proposed
	e.phases++
	return pc
}

// majority returns the strict-majority class of the vote ring, or ""
// when no class holds more than half the votes cast.
func (e *Engine) majority() string {
	// Hysteresis is small (<= MaxHysteresis); a linear count keeps this
	// allocation-free and deterministic.
	for i := 0; i < e.vlen; i++ {
		c := e.votes[(e.vhead+i)%len(e.votes)]
		n := 0
		for j := 0; j < e.vlen; j++ {
			if e.votes[(e.vhead+j)%len(e.votes)] == c {
				n++
			}
		}
		if 2*n > e.vlen {
			return c
		}
	}
	return ""
}

// checkDrift tests the current aggregate window against the envelope,
// returning the rising-edge alarm or the falling-edge recovery event
// the window triggers (at most one of the two is non-nil).
func (e *Engine) checkDrift(window int) (*DriftAlarm, *DriftCleared, error) {
	env := e.cfg.Envelope
	if e.envIdx == nil {
		e.envIdx = make([]int, len(env.Attrs))
		byName := make(map[string]int, len(e.layout))
		for i, n := range e.layout {
			byName[n] = i
		}
		for i, a := range env.Attrs {
			j, ok := byName[a]
			if !ok {
				return nil, nil, fmt.Errorf("stream: envelope attribute %q not in the sample layout", a)
			}
			e.envIdx[i] = j
		}
	}
	var outside []string
	for i, j := range e.envIdx {
		v := e.sums[j] / e.instrSum
		if v < env.Lo[i] || v > env.Hi[i] {
			outside = append(outside, env.Attrs[i])
		}
	}
	if len(outside) == 0 {
		if !e.inDrift {
			return nil, nil, nil
		}
		e.inDrift = false
		e.driftCleared++
		return nil, &DriftCleared{
			Window:  window,
			Since:   e.driftSince,
			Windows: window - e.driftSince,
		}, nil
	}
	if e.inDrift {
		return nil, nil, nil // still drifting: alarm already raised
	}
	e.inDrift = true
	e.driftSince = window
	e.driftAlarms++
	return &DriftAlarm{
		Window:   window,
		Features: outside,
		Score:    float64(len(outside)) / float64(len(env.Attrs)),
	}, nil, nil
}

// slide retires the n oldest ring entries from the window and the
// rolling sums — the incremental half of the per-window normalization.
func (e *Engine) slide(n int) {
	for k := 0; k < n && e.count > 0; k++ {
		ent := &e.ring[e.head]
		for i, c := range ent.counts {
			e.sums[i] -= c
		}
		e.instrSum -= ent.instr
		e.secondsSum -= ent.seconds
		if flagged(ent.flags) {
			e.flaggedIn--
		}
		if ent.instrFlag.Suspect() {
			e.instrFlagIn--
		}
		e.head = (e.head + 1) % len(e.ring)
		e.count--
	}
}

// orFlags recomputes the per-event flag union over the ring — only
// taken when the window actually contains flagged reads.
func (e *Engine) orFlags() []pmu.CountFlag {
	out := make([]pmu.CountFlag, len(e.layout))
	for k := 0; k < e.count; k++ {
		ent := &e.ring[(e.head+k)%len(e.ring)]
		for i, f := range ent.flags {
			out[i] |= f
		}
	}
	return out
}

// orInstrFlag unions the instruction-read flags over the ring.
func (e *Engine) orInstrFlag() pmu.CountFlag {
	var f pmu.CountFlag
	for k := 0; k < e.count; k++ {
		f |= e.ring[(e.head+k)%len(e.ring)].instrFlag
	}
	return f
}

// Finish closes the stream, returning the final done event. truncated
// marks a cancelled session. Finish is required exactly once.
func (e *Engine) Finish(truncated bool) ([]Event, error) {
	if e.finished {
		return nil, fmt.Errorf("stream: Finish called twice")
	}
	e.finished = true
	if n := len(e.segments); n > 0 {
		e.segments[n-1].End = e.winIdx - 1
	}
	var out []Event
	out = e.emit(out, Event{Kind: KindDone, Summary: e.summary(truncated)})
	return out, nil
}

// summary snapshots the session totals.
func (e *Engine) summary(truncated bool) *Summary {
	segs := make([]PhaseSegment, len(e.segments))
	copy(segs, e.segments)
	return &Summary{
		Samples:      e.sampleIdx,
		Windows:      e.winIdx,
		Classified:   e.classified,
		Phases:       e.phases,
		DriftAlarms:  e.driftAlarms,
		DriftCleared: e.driftCleared,
		Final:        e.smoothed,
		PhaseRuns:    segs,
		Seconds:      e.seconds,
		Truncated:    truncated,
	}
}

// sameNames is an exact element-wise layout comparison.
func sameNames(a, b []string) bool {
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

// flagged reports whether any per-event flag is set.
func flagged(fs []pmu.CountFlag) bool {
	for _, f := range fs {
		if f.Suspect() {
			return true
		}
	}
	return false
}
