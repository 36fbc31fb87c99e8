package core

// This file is the graceful-degradation layer of the pipeline: the typed
// error taxonomy, retry-with-derived-reseed for transient measurement
// failures, and classification that survives flagged counter reads by
// predicting on the surviving event subset with a recorded confidence
// downgrade. It exists because the fault-injection registry
// (internal/faults) makes counters lie on purpose; a hardened sweep must
// keep going — and say how sure it still is — instead of aborting on the
// first bad read.

import (
	"errors"
	"fmt"

	"fsml/internal/machine"
	"fsml/internal/pmu"
	"fsml/internal/xrand"
)

// Stage names the pipeline stage a failure belongs to.
type Stage string

// Pipeline stages, in execution order.
const (
	StageCollect  Stage = "collect"
	StageMeasure  Stage = "measure"
	StageTrain    Stage = "train"
	StageClassify Stage = "classify"
	StageTrace    Stage = "trace"
)

// PipelineError is the typed failure of one pipeline stage, carrying the
// stage, the identity of the case that failed, and how many measurement
// attempts were spent before giving up. It wraps the root cause, so
// errors.Is/As see through it.
type PipelineError struct {
	// Stage is where the failure happened.
	Stage Stage
	// Case identifies the failing case (an observation description, a
	// spec string, or "detector" for training).
	Case string
	// Attempts counts measurement attempts, including retries; zero for
	// stages that do not retry.
	Attempts int
	// Err is the root cause.
	Err error
}

// Error implements error.
func (e *PipelineError) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("core: %s %s (after %d attempts): %v", e.Stage, e.Case, e.Attempts, e.Err)
	}
	return fmt.Sprintf("core: %s %s: %v", e.Stage, e.Case, e.Err)
}

// Unwrap exposes the root cause to errors.Is/As.
func (e *PipelineError) Unwrap() error { return e.Err }

// ErrUnusableSample marks a measurement whose instruction normalizer
// read as non-positive — nothing downstream can use it. It is the
// transient failure retry-with-reseed exists for: a re-derived
// measurement seed re-draws the injected faults, so a retry can land a
// usable read.
var ErrUnusableSample = errors.New("sample has no usable instruction count")

// usable reports whether an observation can be normalized at all.
func usable(obs Observation) bool { return obs.Sample.Instructions > 0 }

// attemptSeed derives the measurement seed of retry attempt a (attempt 0
// is the case's own seed; later attempts re-derive, which re-draws both
// the PMU noise stream and any injected faults).
func attemptSeed(seed uint64, a int) uint64 {
	if a == 0 {
		return seed
	}
	return xrand.DeriveSeed(seed, uint64(a))
}

// faultRetries is how many re-seeded retries an unusable measurement
// gets on a fault-injecting collector.
const faultRetries = 2

// tolerant reports the collector's fault posture, which follows its
// injector: counters that lie on purpose get re-seeded measurement
// retries, and batch operations record the cases that still fail and
// keep sweeping. An honest collector measures once and keeps every
// failure loud.
func (c *Collector) tolerant() bool { return c.Faults.Enabled() }

// MeasureRetry measures a case, re-measuring an unusable sample with a
// re-derived seed up to faultRetries times when the collector injects
// faults (an honest collector measures once). Kernels are stateful, so
// every attempt rebuilds them via build. On success it returns the
// observation and the number of attempts spent; when every attempt
// produced an unusable sample it returns the last observation alongside
// a measure-stage *PipelineError wrapping ErrUnusableSample.
func (c *Collector) MeasureRetry(desc string, seed uint64, build func() ([]machine.Kernel, error)) (Observation, int, error) {
	attempts := 1
	if c.tolerant() {
		attempts += faultRetries
	}
	var obs Observation
	for a := 0; a < attempts; a++ {
		kernels, err := build()
		if err != nil {
			return Observation{}, a + 1, &PipelineError{Stage: StageMeasure, Case: desc, Attempts: a + 1, Err: err}
		}
		obs = c.Measure(desc, attemptSeed(seed, a), kernels)
		if usable(obs) {
			return obs, a + 1, nil
		}
	}
	return obs, attempts, &PipelineError{Stage: StageMeasure, Case: desc, Attempts: attempts, Err: ErrUnusableSample}
}

// ---------------------------------------------------------------------------
// Degraded classification

// PathologyScore is one entry of a ranked multi-pathology verdict: a
// label and the classifier's calibrated, normalized confidence in it.
type PathologyScore struct {
	Class string  `json:"class"`
	Score float64 `json:"score"`
}

// RobustResult is a classification that records its own quality: the
// predicted class, the detector's confidence in it, and whether (and
// why) the prediction was computed on a partial event subset. It is the
// one verdict type of every classifier: the 3-class detector fills the
// first four fields, the multi-pathology ensemble also ranks every
// label it knows and names the events the sample lacks.
type RobustResult struct {
	// Class is the predicted label.
	Class string
	// Confidence is the weight fraction behind Class: 1 for a clean
	// full-vector prediction, lower when flagged events forced the tree
	// to blend subtrees (see ml.Tree.PredictPartial).
	Confidence float64
	// Degraded reports that flagged counter reads affected the
	// prediction path.
	Degraded bool
	// Suspects lists the flagged events of the sample, in programming
	// order (nil for a clean sample).
	Suspects []string
	// Pathologies ranks every label by descending score (ties ascending
	// label); Class and Confidence mirror its top entry. Nil for the
	// 3-class detector.
	Pathologies []PathologyScore
	// MissingEvents lists classifier attributes the sample does not
	// carry at all, sorted. Nil for the 3-class detector.
	MissingEvents []string
}

// Classifier turns one counter sample into one verdict. It is the one
// classification seam: *Detector and the multi-pathology ensemble both
// implement it, and the batch sweep, the streaming engine and the
// serving registry all take it.
type Classifier interface {
	ClassifyRobust(s pmu.Sample) (RobustResult, error)
}

// ClassifyRobust labels a sample the way Classify does, but survives
// flagged counter reads (see pmu.CountFlag): suspect events become
// missing values, the tree predicts on the surviving subset by blending
// split branches, and the result records the confidence downgrade. A
// flagged instruction normalizer poisons every normalized feature, so it
// marks ALL attributes missing and the prediction falls back to the
// training prior. A sample with no usable instruction count at all is
// still an error — there is no subset to survive on.
//
// Non-tree detectors cannot blend branches; they predict on the full
// vector and report a confidence of (clean attributes)/(all attributes).
func (d *Detector) ClassifyRobust(s pmu.Sample) (RobustResult, error) {
	suspects := s.SuspectEvents()
	if len(suspects) == 0 && !s.InstrFlag.Suspect() {
		class, err := d.Classify(s)
		if err != nil {
			return RobustResult{}, err
		}
		return RobustResult{Class: class, Confidence: 1}, nil
	}

	if d.Tree == nil {
		class, err := d.Classify(s)
		if err != nil {
			return RobustResult{}, err
		}
		n := len(s.Names)
		conf := float64(n-len(suspects)) / float64(n)
		return RobustResult{Class: class, Confidence: conf, Degraded: true, Suspects: suspects}, nil
	}

	fv, err := d.projectTree(s)
	if err != nil {
		return RobustResult{}, err
	}
	missing := make([]bool, len(d.Tree.Attrs))
	if s.InstrFlag.Suspect() {
		// The normalizer itself is suspect: every normalized feature is.
		for i := range missing {
			missing[i] = true
		}
	} else {
		set := make(map[string]bool, len(suspects))
		for _, n := range suspects {
			set[n] = true
		}
		any := false
		for i, a := range d.Tree.Attrs {
			if set[a] {
				missing[i] = true
				any = true
			}
		}
		if !any {
			// The flagged events are not ones this tree consults.
			if f := d.FlatTree(); f != nil {
				return RobustResult{Class: f.Predict(fv), Confidence: 1, Suspects: suspects}, nil
			}
			return RobustResult{Class: d.Tree.Predict(fv), Confidence: 1, Suspects: suspects}, nil
		}
	}
	var class string
	var conf float64
	if f := d.FlatTree(); f != nil {
		class, conf = f.PredictPartial(fv, missing)
	} else {
		class, conf = d.Tree.PredictPartial(fv, missing)
	}
	return RobustResult{Class: class, Confidence: conf, Degraded: true, Suspects: suspects}, nil
}
