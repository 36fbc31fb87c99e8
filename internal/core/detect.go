package core

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"fsml/internal/dataset"
	"fsml/internal/machine"
	"fsml/internal/ml"
	"fsml/internal/pmu"
	"fsml/internal/sched"
)

// Detector is a trained false-sharing detector: the paper's step 6
// artifact. It classifies normalized Table 2 event vectors into
// good / bad-fs / bad-ma.
type Detector struct {
	// Tree is the trained decision tree (the J48 analog). Detectors
	// trained with other classifiers hold them in Model and leave Tree
	// nil; only trees serialize.
	Tree *ml.Tree
	// Model is the live classifier (equals Tree when tree-trained).
	Model ml.Classifier
	// TrainedOn records the training-set composition for reports.
	TrainedOn map[string]int

	// proj caches the sample-layout -> tree-attribute projection of the
	// classify hot path (see project.go). Zero value = cold cache.
	proj projCache
	// flat caches the tree's flattened inference form (see FlatTree).
	// Zero value = cold cache.
	flat flatCache
}

// FlatTree returns the detector's flattened inference form — the
// contiguous index-based layout every classification walks (see
// ml.Compile). TrainDetector and DecodeDetector compile it eagerly;
// detectors assembled as struct literals (tests, embedders) get it
// compiled and cached here on first use. Nil for non-tree detectors
// and for hand-built trees that do not compile — those fall back to
// the pointer walk, so a Detector is never less capable than before.
func (d *Detector) FlatTree() *ml.FlatTree {
	if d.Tree == nil {
		return nil
	}
	if f := d.flat.Load(); f != nil {
		return f
	}
	f, err := ml.Compile(d.Tree)
	if err != nil {
		return nil
	}
	d.flat.Store(f)
	return f
}

// TrainDetector fits the default C4.5 detector from a labeled dataset.
func TrainDetector(d *dataset.Dataset) (*Detector, error) {
	tree, err := ml.NewC45(ml.DefaultC45()).TrainTree(d)
	if err != nil {
		return nil, &PipelineError{Stage: StageTrain, Case: "detector", Err: err}
	}
	det := &Detector{Tree: tree, Model: tree, TrainedOn: d.CountByClass()}
	det.FlatTree() // compile the inference form once, at train time
	return det, nil
}

// TrainDetectorWith fits a detector with an arbitrary trainer (used by
// the classifier-choice ablation).
func TrainDetectorWith(tr ml.Trainer, d *dataset.Dataset) (*Detector, error) {
	model, err := tr.Train(d)
	if err != nil {
		return nil, &PipelineError{Stage: StageTrain, Case: tr.Name(), Err: err}
	}
	det := &Detector{Model: model, TrainedOn: d.CountByClass()}
	if t, ok := model.(*ml.Tree); ok {
		det.Tree = t
		det.FlatTree() // compile the inference form once, at train time
	}
	return det, nil
}

// Classify labels one PMU sample. Tree-based detectors project the
// sample onto the tree's own attribute list, so detectors trained on a
// platform-specific event selection (see TrainOnPlatform) classify
// samples from that platform's PMU; feeding a sample that lacks the
// model's events is an error, not a silent zero-fill. The projection
// setup (name resolution and validation) is cached per sample layout —
// see project.go — so repeated classifications over one event
// programming, the windowed streaming hot path, do it once.
func (d *Detector) Classify(s pmu.Sample) (string, error) {
	if d.Tree != nil {
		fv, err := d.projectTree(s)
		if err != nil {
			return "", err
		}
		if f := d.FlatTree(); f != nil {
			return f.Predict(fv), nil
		}
		return d.Tree.Predict(fv), nil
	}
	fv, err := s.FeatureVector()
	if err != nil {
		return "", err
	}
	return d.Model.Predict(fv), nil
}

// Features returns the event list the detector expects, in order: the
// tree's attributes, or the Table-2 features for non-tree detectors.
func (d *Detector) Features() []string {
	if d.Tree != nil {
		return d.Tree.Attrs
	}
	return pmu.FeatureNames()
}

// ClassifyObservation labels a measured run.
func (d *Detector) ClassifyObservation(o Observation) (string, error) {
	return d.Classify(o.Sample)
}

// ---------------------------------------------------------------------------
// Case aggregation (§4's "overall (majority) result considering all cases")

// CaseResult is one classified case of a program under test.
type CaseResult struct {
	// Desc identifies the case (input set, flags, threads).
	Desc string
	// Class is the detector's label for the case ("" when Failed).
	Class string
	// Seconds is the case's simulated runtime, reported in the detail
	// tables (Tables 6 and 8).
	Seconds float64
	// Confidence is the detector's confidence in Class: 1 for a clean
	// full-vector prediction, lower when flagged counter reads degraded
	// it, 0 when Failed.
	Confidence float64
	// Degraded reports that the classification was computed on a
	// partial event subset (see Detector.ClassifyRobust).
	Degraded bool
	// Suspects lists the flagged events of the case's sample, if any.
	Suspects []string
	// Attempts counts the measurement attempts the case consumed
	// (greater than 1 when a transient failure was retried).
	Attempts int
	// Failed marks a case that could not be measured or classified even
	// after retries; Err holds the *PipelineError. Failed cases appear
	// only on a fault-injecting collector — an honest one aborts the
	// batch with the error instead.
	Failed bool
	Err    error
}

// BatchCase describes one case of a classification batch: the kernels
// to run, the measurement seed, and the descriptions attached to the
// observation and the result row.
type BatchCase struct {
	// Desc is the CaseResult description.
	Desc string
	// MeasureDesc is the observation description (defaults to Desc).
	MeasureDesc string
	// Seed is the per-case machine/PMU seed. Derive it from the case's
	// index, never from shared state, or parallel runs lose determinism.
	Seed uint64
	// Kernels are the case's software threads. Kernels are stateful, so
	// each BatchCase needs freshly built ones.
	Kernels []machine.Kernel
}

// ClassifyCase measures and classifies one case: MeasureRetry on the
// case build returns (build runs again per retry — kernels are
// stateful), then det.ClassifyRobust, so flagged counter reads degrade
// to a partial-subset prediction with a recorded confidence downgrade.
// On a fault-injecting collector a case that still fails becomes a
// Failed row; an honest collector returns the *PipelineError instead.
// det is used read-only, so distinct cases may be classified
// concurrently.
func (c *Collector) ClassifyCase(det Classifier, build func() BatchCase) (CaseResult, error) {
	bc := build()
	md := bc.MeasureDesc
	if md == "" {
		md = bc.Desc
	}
	first := true // the first attempt runs bc's kernels; a retry needs fresh ones
	obs, attempts, err := c.MeasureRetry(md, bc.Seed, func() ([]machine.Kernel, error) {
		if first {
			first = false
			return bc.Kernels, nil
		}
		return build().Kernels, nil
	})
	var rr RobustResult
	if err == nil {
		if rr, err = det.ClassifyRobust(obs.Sample); err != nil {
			err = &PipelineError{Stage: StageClassify, Case: bc.Desc, Attempts: attempts, Err: err}
		}
	}
	if err != nil {
		if !c.tolerant() {
			return CaseResult{}, err
		}
		return CaseResult{Desc: bc.Desc, Seconds: obs.Seconds, Attempts: attempts, Failed: true, Err: err}, nil
	}
	return CaseResult{
		Desc: bc.Desc, Class: rr.Class, Seconds: obs.Seconds,
		Confidence: rr.Confidence, Degraded: rr.Degraded,
		Suspects: rr.Suspects, Attempts: attempts,
	}, nil
}

// BatchClassify runs ClassifyCase over n independent cases across the
// collector's Parallelism workers and returns the results in submission
// order. build(i) is invoked inside the worker, so kernel construction
// (which lays out the case's address space) parallelizes along with the
// simulation. Classification uses det read-only — the 3-class detector
// or the multi-pathology ensemble alike; results are bit-identical at
// every parallelism level.
func (c *Collector) BatchClassify(ctx context.Context, det Classifier, n int, build func(i int) BatchCase) ([]CaseResult, error) {
	return sched.Map(ctx, n, c.schedOptions(), func(_ context.Context, i int) (CaseResult, error) {
		return c.ClassifyCase(det, func() BatchCase { return build(i) })
	})
}

// Majority returns the most frequent class over the cases and the count
// histogram; ties break toward "good" (innocent until proven guilty),
// then lexicographically. Failed (and otherwise unclassified) cases are
// excluded: the verdict is a majority over the cases that produced an
// answer, which is what lets a tolerant sweep conclude despite losses.
func Majority(cases []CaseResult) (string, map[string]int) {
	hist := map[string]int{}
	for _, c := range cases {
		if c.Failed || c.Class == "" {
			continue
		}
		hist[c.Class]++
	}
	classes := make([]string, 0, len(hist))
	for c := range hist {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool {
		if hist[classes[i]] != hist[classes[j]] {
			return hist[classes[i]] > hist[classes[j]]
		}
		if (classes[i] == "good") != (classes[j] == "good") {
			return classes[i] == "good"
		}
		return classes[i] < classes[j]
	})
	if len(classes) == 0 {
		return "", hist
	}
	return classes[0], hist
}

// FormatHistogram renders "24/36 bad-fs, 11/36 good, 1/36 bad-ma" style
// summaries used throughout §4.
func FormatHistogram(hist map[string]int) string {
	total := 0
	for _, n := range hist {
		total += n
	}
	labels := make([]string, 0, len(hist))
	for l := range hist {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool {
		if hist[labels[i]] != hist[labels[j]] {
			return hist[labels[i]] > hist[labels[j]]
		}
		return labels[i] < labels[j]
	})
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = fmt.Sprintf("%d/%d %s", hist[l], total, l)
	}
	return strings.Join(parts, ", ")
}

// ---------------------------------------------------------------------------
// Model persistence

// modelFile is the serialized detector format.
type modelFile struct {
	Format string `json:"format"`
	// Version is the explicit format version. Bump ModelVersion on any
	// incompatible change to the serialized shape so an old file fails
	// with a typed, actionable *FormatError instead of decoding into
	// garbage.
	Version   int            `json:"version"`
	Tree      *ml.Tree       `json:"tree"`
	TrainedOn map[string]int `json:"trained_on,omitempty"`
}

const (
	modelFormat = "fsml-detector"
	// legacyModelFormat is the pre-versioning format tag. Those files
	// carry no version field but are shape-compatible with version 1,
	// so they still decode.
	legacyModelFormat = "fsml-detector-v1"
	// ModelVersion is the current serialization version. History:
	//   1: format tag "fsml-detector-v1", no version field
	//   2: explicit format/version split (this version; same tree shape)
	ModelVersion = 2
)

// FormatError reports that serialized detector bytes are not something
// this build can decode: an unknown format tag or a version this build
// does not speak. It is typed so callers that load models from disk
// (the CLI's -model flag, the serving registry's warm start) can tell
// "stale or foreign file" apart from I/O failures and say what to do
// about it.
type FormatError struct {
	// Format is the format tag found in the file ("" when absent).
	Format string
	// Version is the version found in the file (0 when absent).
	Version int
	// WantVersion is the version this build reads and writes.
	WantVersion int
}

// Error implements error with a remediation hint: version skew means
// the model file and the binary disagree, and retraining (or upgrading
// fsml) is the fix — not editing the file.
func (e *FormatError) Error() string {
	switch {
	case e.Format != modelFormat && e.Format != legacyModelFormat:
		return fmt.Sprintf("core: not a detector model (format %q, want %q); retrain with `fsml train -o <file>`", e.Format, modelFormat)
	case e.Version > e.WantVersion:
		return fmt.Sprintf("core: model format version %d is newer than this build reads (%d); upgrade fsml or retrain with `fsml train -o <file>`", e.Version, e.WantVersion)
	default:
		return fmt.Sprintf("core: model format version %d is older than this build reads (%d); retrain with `fsml train -o <file>`", e.Version, e.WantVersion)
	}
}

// Encode serializes a tree-based detector to JSON.
func (d *Detector) Encode() ([]byte, error) {
	if d.Tree == nil {
		return nil, fmt.Errorf("core: only tree-based detectors serialize")
	}
	return json.MarshalIndent(modelFile{Format: modelFormat, Version: ModelVersion, Tree: d.Tree, TrainedOn: d.TrainedOn}, "", "  ")
}

// DecodeDetector parses a serialized detector and validates that its
// feature space matches the current Table 2 programming. Format or
// version mismatches surface as a *FormatError.
func DecodeDetector(data []byte) (*Detector, error) {
	var mf modelFile
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("core: decoding detector: %w", err)
	}
	switch {
	case mf.Format == legacyModelFormat && mf.Version == 0:
		// Version-1 file: same tree shape, accepted for compatibility.
	case mf.Format != modelFormat || mf.Version != ModelVersion:
		return nil, &FormatError{Format: mf.Format, Version: mf.Version, WantVersion: ModelVersion}
	}
	raw, err := json.Marshal(mf.Tree)
	if err != nil {
		return nil, err
	}
	tree, err := ml.DecodeTree(raw)
	if err != nil {
		return nil, err
	}
	if len(tree.Attrs) == 0 {
		return nil, fmt.Errorf("core: model carries no attribute names")
	}
	for i, a := range tree.Attrs {
		if a == "" {
			return nil, fmt.Errorf("core: model attribute %d is empty", i)
		}
	}
	det := &Detector{Tree: tree, Model: tree, TrainedOn: mf.TrainedOn}
	det.FlatTree() // compile the inference form once, at decode time
	return det, nil
}
