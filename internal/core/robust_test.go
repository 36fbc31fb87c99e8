package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"fsml/internal/faults"
	"fsml/internal/machine"
	"fsml/internal/miniprog"
	"fsml/internal/ml"
	"fsml/internal/pmu"
)

func TestPipelineErrorFormatAndUnwrap(t *testing.T) {
	e := &PipelineError{Stage: StageMeasure, Case: "pdot/x", Attempts: 3, Err: ErrUnusableSample}
	if !errors.Is(e, ErrUnusableSample) {
		t.Error("PipelineError does not unwrap to its cause")
	}
	want := "core: measure pdot/x (after 3 attempts): sample has no usable instruction count"
	if e.Error() != want {
		t.Errorf("Error() = %q, want %q", e.Error(), want)
	}
	single := &PipelineError{Stage: StageTrain, Case: "detector", Err: ml.ErrEmptyDataset}
	if !errors.Is(single, ml.ErrEmptyDataset) {
		t.Error("train error does not unwrap")
	}
}

// stuckInstrSpec searches (cheaply, via the injector's pure decision
// function — no simulation) for a mini-program spec whose attempt-0
// measurement has a stuck instruction counter under cfg but whose
// attempt-1 re-derived seed reads clean.
func stuckInstrSpec(t *testing.T, cfg faults.Config) miniprog.Spec {
	t.Helper()
	inj := faults.New(cfg)
	for s := uint64(1); s < 5000; s++ {
		spec := miniprog.Spec{Program: "pdot", Size: 4000, Threads: 2, Mode: miniprog.Good, Seed: s}
		desc := fmt.Sprintf("%s/size=%d/threads=%d/%s/seed=%d",
			spec.Program, spec.Size, spec.Threads, spec.Mode, spec.Seed)
		seed0 := attemptSeed(spec.Seed^0x5151, 0)
		seed1 := attemptSeed(spec.Seed^0x5151, 1)
		if inj.CounterFault(desc, "INST_RETIRED.ANY", seed0) == faults.StuckZero &&
			inj.CounterFault(desc, "INST_RETIRED.ANY", seed1) == faults.NoFault {
			return spec
		}
	}
	t.Fatal("no spec found with stuck-then-clean instruction counter")
	return miniprog.Spec{}
}

// TestRetryWithReseedRecovers pins the recovery story: on a
// fault-injecting collector a case whose first measurement draws a stuck
// instruction counter recovers on its reseeded retry, and a case whose
// every attempt is stuck fails after three attempts with a measure-stage
// error naming the unusable sample.
func TestRetryWithReseedRecovers(t *testing.T) {
	cfg := faults.Config{Rate: 0.4, Seed: 21, Kinds: []faults.Kind{faults.StuckZero}}
	spec := stuckInstrSpec(t, cfg)

	c := NewCollector()
	c.Faults = faults.New(cfg)
	obs, err := c.MeasureMiniProgram(spec)
	if err != nil {
		t.Fatalf("reseeded retry did not recover: %v", err)
	}
	if !usable(obs) {
		t.Fatal("recovered observation is unusable")
	}
	desc := fmt.Sprintf("%s/size=%d/threads=%d/%s/seed=%d",
		spec.Program, spec.Size, spec.Threads, spec.Mode, spec.Seed)
	build := func() ([]machine.Kernel, error) { return miniprog.Build(spec) }
	if _, attempts, err := c.MeasureRetry(desc, spec.Seed^0x5151, build); err != nil || attempts != 2 {
		t.Fatalf("MeasureRetry = (%d attempts, %v), want recovery on attempt 2", attempts, err)
	}

	c.Faults = faults.New(faults.Config{Rate: 1, Seed: 21, Kinds: []faults.Kind{faults.StuckZero}})
	_, attempts, err := c.MeasureRetry(desc, spec.Seed^0x5151, build)
	var pe *PipelineError
	if !errors.As(err, &pe) || pe.Stage != StageMeasure || !errors.Is(err, ErrUnusableSample) {
		t.Fatalf("total-loss failure = %v, want a measure-stage unusable-sample PipelineError", err)
	}
	if attempts != 3 || pe.Attempts != 3 {
		t.Errorf("attempts = %d (error says %d), want 3 (1 + 2 retries)", attempts, pe.Attempts)
	}
}

// stumpDetector builds a hand-made tree detector over two fake events:
// root splits on "EV_A" (<=10 -> good with 8 training instances,
// >10 -> bad-fs with 2).
func stumpDetector() *Detector {
	tree := &ml.Tree{
		Attrs: []string{"EV_A", "EV_B"},
		Root: &ml.Node{
			Attr: 0, Threshold: 10, N: 10, E: 2,
			Left:  &ml.Node{Leaf: true, Class: "good", N: 8},
			Right: &ml.Node{Leaf: true, Class: "bad-fs", N: 2},
		},
	}
	return &Detector{Tree: tree, Model: tree}
}

// robustSample builds a sample over the stump detector's events plus the
// instruction normalizer. EV_A normalizes to 99 (the bad-fs side).
func robustSample() pmu.Sample {
	return pmu.Sample{
		Names:        []string{"EV_A", "EV_B", "INST_RETIRED.ANY"},
		Counts:       []float64{99, 5, 1},
		Instructions: 1,
	}
}

func TestClassifyRobustCleanMatchesClassify(t *testing.T) {
	det := stumpDetector()
	s := robustSample()
	rr, err := det.ClassifyRobust(s)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := det.Classify(s)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Class != plain {
		t.Fatalf("robust class %q != plain class %q", rr.Class, plain)
	}
	if rr.Class != "bad-fs" || rr.Confidence != 1 || rr.Degraded || rr.Suspects != nil {
		t.Errorf("clean robust result = %+v, want confident bad-fs", rr)
	}
}

func TestClassifyRobustDegradesOnSuspectSplitAttr(t *testing.T) {
	det := stumpDetector()
	s := robustSample()
	s.Flags = []pmu.CountFlag{pmu.FlagStuck, 0, 0}
	s.Counts[0] = 0 // what a stuck counter actually reads
	rr, err := det.ClassifyRobust(s)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Degraded {
		t.Error("suspect split attribute did not mark the result degraded")
	}
	if rr.Class != "good" {
		t.Errorf("degraded class = %q, want the majority branch good", rr.Class)
	}
	if rr.Confidence < 0.79 || rr.Confidence > 0.81 {
		t.Errorf("degraded confidence = %v, want 0.8", rr.Confidence)
	}
	if len(rr.Suspects) != 1 || rr.Suspects[0] != "EV_A" {
		t.Errorf("suspects = %v, want [EV_A]", rr.Suspects)
	}
}

func TestClassifyRobustIgnoresUnconsultedSuspect(t *testing.T) {
	det := stumpDetector()
	s := robustSample()
	s.Flags = []pmu.CountFlag{0, pmu.FlagStarved, 0}
	s.Counts[1] = 0
	rr, err := det.ClassifyRobust(s)
	if err != nil {
		t.Fatal(err)
	}
	// EV_B is in the attribute list but the tree never splits on it, so
	// the prediction path is untouched: full confidence, degraded anyway
	// is false... PredictPartial reports confidence 1 because no split
	// consults EV_B — but the result is still marked Degraded because a
	// consulted-attribute check happens by name, and EV_B IS an attr.
	if rr.Class != "bad-fs" {
		t.Errorf("class = %q, want bad-fs (EV_A is trusted)", rr.Class)
	}
	if rr.Confidence != 1 {
		t.Errorf("confidence = %v, want 1 (no split consults EV_B)", rr.Confidence)
	}
}

func TestClassifyRobustSuspectNormalizerFallsBackToPrior(t *testing.T) {
	det := stumpDetector()
	s := robustSample()
	s.InstrFlag = pmu.FlagSaturated
	rr, err := det.ClassifyRobust(s)
	if err != nil {
		t.Fatal(err)
	}
	if !rr.Degraded {
		t.Error("suspect normalizer did not degrade the result")
	}
	if rr.Class != "good" {
		t.Errorf("prior-fallback class = %q, want the training majority good", rr.Class)
	}
	if rr.Confidence < 0.79 || rr.Confidence > 0.81 {
		t.Errorf("prior-fallback confidence = %v, want 0.8", rr.Confidence)
	}
}

func TestClassifyRobustUnusableSampleErrors(t *testing.T) {
	det := stumpDetector()
	s := robustSample()
	s.Instructions = 0
	s.Flags = []pmu.CountFlag{0, 0, pmu.FlagStuck}
	if _, err := det.ClassifyRobust(s); err == nil {
		t.Error("zero-instruction sample classified")
	}
}

// batchSpec builds the BatchCase builder used by the tolerant-sweep tests.
func batchBuilder(t *testing.T) func(i int) BatchCase {
	t.Helper()
	return func(i int) BatchCase {
		spec := miniprog.Spec{Program: "pdot", Size: 4000, Threads: 2, Mode: miniprog.Good, Seed: uint64(300 + i)}
		kernels, err := miniprog.Build(spec)
		if err != nil {
			panic(err) // build runs on worker goroutines; sched recovers
		}
		return BatchCase{Desc: fmt.Sprintf("case-%d", i), Seed: spec.Seed ^ 0x5151, Kernels: kernels}
	}
}

// TestBatchClassifyTolerantSurvivesTotalLoss pins graceful degradation at
// its worst: every counter stuck on every case. The faulted batch returns
// one Failed row per case, each carrying a measure-stage error, and
// Majority still answers (with an empty histogram) instead of panicking.
func TestBatchClassifyTolerantSurvivesTotalLoss(t *testing.T) {
	det := stumpDetector()
	c := NewCollector()
	c.Faults = faults.New(faults.Config{Rate: 1, Seed: 5, Kinds: []faults.Kind{faults.StuckZero}})
	c.Parallelism = 1

	results, err := c.BatchClassify(context.Background(), det, 2, batchBuilder(t))
	if err != nil {
		t.Fatalf("tolerant batch aborted: %v", err)
	}
	for _, r := range results {
		if !r.Failed || r.Err == nil || r.Class != "" {
			t.Errorf("result %+v, want a Failed row", r)
		}
		if r.Attempts != 3 {
			t.Errorf("attempts = %d, want 3 (1 + 2 retries)", r.Attempts)
		}
		if !errors.Is(r.Err, ErrUnusableSample) {
			t.Errorf("row error %v does not unwrap to ErrUnusableSample", r.Err)
		}
		var pe *PipelineError
		if !errors.As(r.Err, &pe) || pe.Stage != StageMeasure {
			t.Errorf("row error %v, want a measure-stage PipelineError", r.Err)
		}
	}
	class, hist := Majority(results)
	if class != "" || len(hist) != 0 {
		t.Errorf("Majority over all-failed = (%q, %v), want empty", class, hist)
	}
}

// TestBatchClassifyFaultedDeterministicAcrossParallelism pins the
// injection determinism contract end to end: a faulted, tolerant,
// retried batch returns identical rows at parallelism 1 and 4.
func TestBatchClassifyFaultedDeterministicAcrossParallelism(t *testing.T) {
	det := stumpDetector()
	run := func(par int) []CaseResult {
		c := NewCollector()
		c.Faults = faults.New(faults.Config{Rate: 0.3, Seed: 9})
		c.Parallelism = par
		// The stump detector's events are not the Table 2 set, so project
		// through a PMU programmed with matching names is impossible here;
		// classification will often fail — which is exactly what the
		// tolerant path must absorb identically at both parallelisms.
		res, err := c.BatchClassify(context.Background(), det, 6, batchBuilder(t))
		if err != nil {
			t.Fatal(err)
		}
		// Err values carry no ordering guarantees worth comparing beyond
		// their strings; normalize for reflect.DeepEqual.
		for i := range res {
			if res[i].Err != nil {
				res[i].Err = errors.New(res[i].Err.Error())
			}
		}
		return res
	}
	seq, par := run(1), run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("faulted batch diverged across parallelism:\nseq: %+v\npar: %+v", seq, par)
	}
}

func TestMajoritySkipsFailedCases(t *testing.T) {
	cases := []CaseResult{
		{Class: "bad-fs"},
		{Class: "bad-fs"},
		{Failed: true},
		{Class: "good"},
		{}, // unclassified
	}
	class, hist := Majority(cases)
	if class != "bad-fs" {
		t.Errorf("majority = %q, want bad-fs", class)
	}
	if hist["bad-fs"] != 2 || hist["good"] != 1 || len(hist) != 2 {
		t.Errorf("hist = %v, want bad-fs:2 good:1", hist)
	}
}

// TestCollectTolerantDropsFailedRuns pins tolerant collection: with every
// counter stuck, a faulted collect returns the surviving (here: zero)
// observations without error.
func TestCollectTolerantDropsFailedRuns(t *testing.T) {
	grid := Grid{
		Sizes: []int{4000}, MatSizes: []int{32}, Threads: []int{2},
		Repeats: map[miniprog.Mode]int{miniprog.Good: 1}, Seed: 50,
	}
	progs := miniprog.MultiThreadedSet()[:1]

	c := NewCollector()
	c.Faults = faults.New(faults.Config{Rate: 1, Seed: 4, Kinds: []faults.Kind{faults.StuckZero}})
	c.Parallelism = 1
	obs, err := c.Collect(progs, grid)
	if err != nil {
		t.Fatalf("tolerant collect aborted: %v", err)
	}
	if len(obs) != 0 {
		t.Errorf("tolerant collect kept %d unusable observations", len(obs))
	}
}
