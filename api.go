package fsml

import (
	"context"
	"fmt"
	"io"
	"strings"

	"fsml/internal/core"
	"fsml/internal/dataset"
	"fsml/internal/ensemble"
	"fsml/internal/exps"
	"fsml/internal/faults"
	"fsml/internal/fleet"
	"fsml/internal/lifecycle"
	"fsml/internal/machine"
	"fsml/internal/mapred"
	"fsml/internal/mem"
	"fsml/internal/miniprog"
	"fsml/internal/ml"
	"fsml/internal/perfingest"
	"fsml/internal/pmu"
	"fsml/internal/report"
	"fsml/internal/resilience"
	"fsml/internal/serve"
	"fsml/internal/shadow"
	"fsml/internal/stream"
	"fsml/internal/suite"
	"fsml/internal/trace"
)

// Re-exported building blocks. The aliases make the internal packages'
// core vocabulary available to library users without widening the
// maintenance surface: a Kernel is a simulated software thread, a Ctx the
// operation interface handed to it, a Space the simulated address space
// with explicit cache-line layout control.
type (
	// Kernel is one software thread of a workload.
	Kernel = machine.Kernel
	// Ctx is the operation interface a running Kernel uses.
	Ctx = machine.Ctx
	// IterKernel is the loop-shaped Kernel helper.
	IterKernel = machine.IterKernel
	// SeqKernel chains kernel stages.
	SeqKernel = machine.SeqKernel
	// Barrier is a spin barrier for multi-phase workloads.
	Barrier = machine.Barrier
	// MachineConfig configures the simulated multicore platform.
	MachineConfig = machine.Config
	// Machine is the simulated platform.
	Machine = machine.Machine
	// OptLevel models the compiler optimization level (O0..O3).
	OptLevel = machine.OptLevel
	// Space is a simulated address space.
	Space = mem.Space
	// Array is a typed region with explicit stride (packed, padded, ...).
	Array = mem.Array
	// Detector is a trained false-sharing detector.
	Detector = core.Detector
	// Classifier turns one counter sample into one verdict. Both
	// detector types implement it — *Detector and *EnsembleDetector —
	// so ClassifyPerf and NewStreamEngine serve either.
	Classifier = core.Classifier
	// Observation is one measured run.
	Observation = core.Observation
	// Collector measures workloads with the emulated PMU.
	Collector = core.Collector
	// Workload is one benchmark analog from the Phoenix/PARSEC suites.
	Workload = suite.Workload
	// Case selects one benchmark run (input, threads, flags, seed).
	Case = suite.Case
	// Dataset is a labeled feature-vector collection.
	Dataset = dataset.Dataset
	// Tree is a trained C4.5 decision tree.
	Tree = ml.Tree
	// ShadowReport is the Umbra-style verification tool's verdict.
	ShadowReport = shadow.Report
	// AccessTrace is a parsed multi-threaded memory-access trace (the
	// portable text format of internal/trace).
	AccessTrace = trace.Trace
	// Platform bundles a machine model with its event catalogue; the
	// §2.1 portability workflow re-runs steps 2-6 per Platform.
	Platform = pmu.Platform
	// PlatformDetector is a detector trained for a specific platform's
	// event selection.
	PlatformDetector = core.PlatformDetector
	// FaultConfig selects deterministic counter-fault injection (rate,
	// seed, fault kinds); the zero value keeps counters honest. Parse the
	// CLI spec format with ParseFaultSpec.
	FaultConfig = faults.Config
)

// Optimization levels.
const (
	O0 = machine.O0
	O1 = machine.O1
	O2 = machine.O2
	O3 = machine.O3
)

// Class labels produced by detectors.
const (
	ClassGood  = "good"
	ClassBadFS = "bad-fs"
	ClassBadMA = "bad-ma"
)

// DefaultMachine returns the paper's 12-core Westmere DP platform
// configuration.
func DefaultMachine() MachineConfig { return machine.DefaultConfig() }

// NewMachine builds a simulated machine.
func NewMachine(cfg MachineConfig) *Machine { return machine.New(cfg) }

// NewSpace returns a simulated address space of the given size.
func NewSpace(size uint64) *Space { return mem.NewSpace(size) }

// NewPackedArray allocates n word-sized per-thread slots packed into
// consecutive words — the false-sharing layout, with up to 8 slots per
// cache line.
func NewPackedArray(sp *Space, n int) Array { return mem.NewArray(sp, n, 8) }

// NewPaddedArray allocates n word-sized per-thread slots, each on its own
// cache line — the classic false-sharing fix.
func NewPaddedArray(sp *Space, n int) Array { return mem.NewPaddedArray(sp, n, 8) }

// NewCollector returns a measurement collector for the default platform
// and the Table 2 event set.
func NewCollector() *Collector { return core.NewCollector() }

// ---------------------------------------------------------------------------
// Training

// TrainOptions configures Train.
type TrainOptions struct {
	// Quick shrinks the collection grids (seconds instead of minutes);
	// accuracy remains high but the training set is smaller than the
	// paper's 880 instances.
	Quick bool
	// Seed drives collection and training determinism (default 1).
	Seed uint64
	// Parallelism caps concurrent case simulations during collection
	// (0 = GOMAXPROCS, 1 = sequential). Every case's seed is a pure
	// function of its grid position, so the trained detector is
	// bit-identical at every setting; only wall-clock time changes.
	Parallelism int
	// Progress, when non-nil, observes collection progress as
	// (completed, total) counts of the currently running sweep. It may be
	// called from multiple goroutines' work, but calls are serialized and
	// the completed count is monotonic.
	Progress func(done, total int)
}

// TrainReport summarizes what Train produced.
type TrainReport struct {
	// PartA and PartB are the Table 3 bookkeeping rows.
	PartA, PartB core.TrainingSummary
	// Data is the filtered training dataset.
	Data *Dataset
	// Tree is the learned decision tree (Figure 2).
	Tree *Tree
	// CVAccuracy is the stratified 10-fold cross-validation accuracy
	// (Table 4 reports 99.4% on the paper's platform).
	CVAccuracy float64
}

// Train runs the paper's full pipeline — collect mini-program event
// counts, filter, train the C4.5 classifier, cross-validate — and
// returns the detector plus a report.
func Train(opts TrainOptions) (*Detector, *TrainReport, error) {
	lab := &exps.Lab{Quick: opts.Quick, Seed: seedOrDefault(opts.Seed),
		Parallelism: opts.Parallelism, Progress: opts.Progress}
	det, err := lab.Detector()
	if err != nil {
		return nil, nil, err
	}
	data, err := lab.TrainingData()
	if err != nil {
		return nil, nil, err
	}
	a, b, err := lab.Summaries()
	if err != nil {
		return nil, nil, err
	}
	conf, err := lab.Table4()
	if err != nil {
		return nil, nil, err
	}
	return det, &TrainReport{PartA: a, PartB: b, Data: data, Tree: det.Tree, CVAccuracy: conf.Accuracy()}, nil
}

func seedOrDefault(s uint64) uint64 {
	if s == 0 {
		return 1
	}
	return s
}

// IterativeResult is the trajectory of the §2.1 refinement loop.
type IterativeResult = core.IterativeResult

// IterativeTrain runs the paper's iterative workflow: grow the
// mini-program set one program per round, retrain and cross-validate,
// and stop once the target accuracy is reached with all three classes
// covered.
func IterativeTrain(opts TrainOptions, targetAccuracy float64) (*IterativeResult, error) {
	lab := &exps.Lab{Quick: opts.Quick, Seed: seedOrDefault(opts.Seed)}
	c := core.NewCollector()
	c.Parallelism = opts.Parallelism
	c.OnProgress = opts.Progress
	return c.IterativeTrain(lab.GridA(), lab.GridB(), targetAccuracy, 10)
}

// EncodeDetector serializes a trained detector to JSON.
func EncodeDetector(d *Detector) ([]byte, error) { return d.Encode() }

// DecodeDetector parses a detector serialized by EncodeDetector.
func DecodeDetector(data []byte) (*Detector, error) { return core.DecodeDetector(data) }

// ---------------------------------------------------------------------------
// Detection

// Detect measures the given kernels on a fresh default machine and
// classifies the run. This is the "apply to your own program" entry
// point: build your workload's threads as Kernels over a Space, hand
// them to a trained detector.
func Detect(det *Detector, kernels []Kernel) (string, Observation, error) {
	return DetectOn(det, DefaultMachine(), kernels)
}

// DetectOn is Detect with an explicit machine configuration.
func DetectOn(det *Detector, cfg MachineConfig, kernels []Kernel) (string, Observation, error) {
	c := core.NewCollector()
	c.Machine = cfg
	obs := c.Measure("user-workload", cfg.Seed, kernels)
	class, err := det.ClassifyObservation(obs)
	if err != nil {
		return "", obs, err
	}
	return class, obs, nil
}

// SliceProfile is the outcome of time-sliced detection: one verdict per
// execution interval, so phase-local false sharing becomes visible.
type SliceProfile = core.SliceProfile

// DetectSliced classifies the workload in intervals of sliceRounds
// scheduler rounds instead of over the whole run — the paper's §6
// fine-granularity extension. Phases that false-share show up as runs of
// bad-fs slices even when the whole-program signature would average out.
func DetectSliced(det *Detector, kernels []Kernel, sliceRounds int) (*SliceProfile, error) {
	return core.NewCollector().DetectSliced(det, 1, kernels, sliceRounds)
}

// ---------------------------------------------------------------------------
// Benchmark suites

// Workloads returns the 8 Phoenix + 11 PARSEC analogs.
func Workloads() []Workload { return suite.All() }

// LookupWorkload finds a workload by name.
func LookupWorkload(name string) (Workload, bool) { return suite.Lookup(name) }

// PathologyWorkloads returns the suite analogs of the widened pathology
// classes (pagewalk, remote_ping, stream_copy) — held-out workloads for
// `fsml classify -ensemble`, kept out of the paper's Table-5 set.
func PathologyWorkloads() []Workload { return suite.Pathology() }

// UnsupportedWorkloads lists the PARSEC programs the paper could not
// evaluate (dedup, facesim) with the published reasons, so reports can
// carry the same footnote.
func UnsupportedWorkloads() map[string]string { return suite.Unsupported() }

// SweepOptions configures ClassifyProgram.
type SweepOptions struct {
	// Quick restricts the sweep to one input and one thread count.
	Quick bool
	// Seed drives run determinism (default 1).
	Seed uint64
	// Parallelism caps concurrent case simulations in the sweep
	// (0 = GOMAXPROCS, 1 = sequential). Verdicts are bit-identical at
	// every setting.
	Parallelism int
	// Progress, when non-nil, observes sweep progress (completed, total).
	Progress func(done, total int)
	// Faults, when enabled, injects deterministic counter faults into
	// every measurement and switches the sweep to tolerant mode: failed
	// cases become Failed rows, degraded classifications carry their
	// confidence downgrade, and the majority is taken over the answered
	// cases.
	Faults FaultConfig
}

// Verdict is the outcome of a full case sweep over one program.
type Verdict struct {
	// Class is the overall (majority) classification.
	Class string
	// Histogram counts per-case classes.
	Histogram map[string]int
	// Cases holds every classified case.
	Cases []core.CaseResult
}

// ClassifyProgram sweeps a named benchmark program over its inputs,
// optimization flags and thread counts (the paper's Table 5 protocol)
// and returns the majority verdict.
func ClassifyProgram(det *Detector, name string, opts SweepOptions) (*Verdict, error) {
	return ClassifyProgramContext(context.Background(), det, name, opts)
}

// ClassifyProgramContext is ClassifyProgram with cancellation: the sweep
// stops feeding cases when ctx is cancelled or its deadline passes
// (the `fsml classify -timeout` behavior, and what serving handlers use
// to bound requests).
func ClassifyProgramContext(ctx context.Context, det *Detector, name string, opts SweepOptions) (*Verdict, error) {
	w, ok := suite.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("fsml: unknown workload %q", name)
	}
	lab := &exps.Lab{Quick: opts.Quick, Seed: seedOrDefault(opts.Seed),
		Parallelism: opts.Parallelism, Progress: opts.Progress, Faults: opts.Faults, Ctx: ctx}
	if err := lab.UseDetector(det); err != nil {
		return nil, err
	}
	row, err := lab.ClassifyProgram(w)
	if err != nil {
		return nil, err
	}
	return &Verdict{Class: row.Class, Histogram: row.Histogram, Cases: row.Cases}, nil
}

// ParseFaultSpec parses the CLI fault-injection specification, e.g.
// "rate=0.2,seed=7,kinds=saturate+stuck". "off" or "" disables
// injection; seed defaults to 1 and kinds to every counter-fault kind.
func ParseFaultSpec(s string) (FaultConfig, error) { return faults.ParseSpec(s) }

// ShadowVerify runs the Umbra-style shadow-memory contention detector
// (the paper's verification baseline, Zhao et al. VEE'11) over the given
// kernels and reports the false-sharing rate and the 1e-3 verdict. It
// errors beyond the tool's 8-thread limit, as the original does.
func ShadowVerify(cfg MachineConfig, kernels []Kernel) (ShadowReport, error) {
	return shadow.Run(cfg, kernels)
}

// ---------------------------------------------------------------------------
// MapReduce substrate

// MapReduceJob describes a computation for the bundled Phoenix-style
// MapReduce runtime.
type MapReduceJob = mapred.Job

// MapReduceConfig shapes the runtime (workers, bookkeeping layout).
type MapReduceConfig = mapred.Config

// BuildMapReduce lays out a MapReduce job and returns its worker
// kernels, ready for Detect or a Machine.
func BuildMapReduce(job MapReduceJob, cfg MapReduceConfig) ([]Kernel, error) {
	return mapred.Build(mapred.SpaceFor(job, cfg), job, cfg)
}

// ---------------------------------------------------------------------------
// Reports

// Report is a full per-program analysis: sweep verdict, event profile,
// shadow cross-check, and contended-line sites.
type Report = report.Report

// ReportOptions shapes the sweep behind a Report.
type ReportOptions = report.Options

// BuildReport sweeps the named benchmark program with the detector and
// assembles the actionable report (Markdown via Report.Markdown, JSON via
// Report.JSON).
func BuildReport(det *Detector, name string, opts ReportOptions) (*Report, error) {
	return report.Build(det, name, opts)
}

// BuildReportContext is BuildReport with cancellation: the sweep honors
// ctx's deadline the way serving handlers do.
func BuildReportContext(ctx context.Context, det *Detector, name string, opts ReportOptions) (*Report, error) {
	return report.BuildContext(ctx, det, name, opts)
}

// ---------------------------------------------------------------------------
// Traces and platforms

// ParseTrace reads an access trace in the portable text format:
// "T<tid> L|S <addr> [xN]" memory events and "T<tid> E|B <n>"
// instruction events, one per line.
func ParseTrace(r io.Reader) (*AccessTrace, error) { return trace.Parse(r) }

// WriteTrace emits a trace in the format ParseTrace reads.
func WriteTrace(w io.Writer, t *AccessTrace) error { return trace.Write(w, t) }

// DetectTrace replays a parsed trace on a fresh default machine and
// classifies it with the detector.
func DetectTrace(det *Detector, t *AccessTrace) (string, Observation, error) {
	return Detect(det, t.Kernels())
}

// RecordTrace runs kernels with recording hooks attached and returns the
// captured trace (memory accesses plus instruction batches, run-length
// merged). Recording costs no simulated time; the trace replays to the
// same instruction counts and coherence signature.
func RecordTrace(cfg MachineConfig, kernels []Kernel) (*AccessTrace, machine.RunResult) {
	return trace.Record(cfg, kernels)
}

// Platforms returns the modeled hardware platforms (Westmere DP — the
// paper's — and Sandy Bridge EP).
func Platforms() []Platform { return pmu.Platforms() }

// TrainForPlatform runs the paper's portability workflow (steps 2-6) on
// the named platform: event selection over its catalogue, training-data
// collection with the selected events, and classifier training.
func TrainForPlatform(name string, opts TrainOptions) (*PlatformDetector, error) {
	p, err := pmu.LookupPlatform(name)
	if err != nil {
		return nil, err
	}
	lab := &exps.Lab{Quick: opts.Quick, Seed: seedOrDefault(opts.Seed)}
	selCfg := core.DefaultSelection()
	if opts.Quick {
		selCfg.Sizes = []int{40000}
		selCfg.MatSize = 96
		selCfg.Threads = []int{6}
	}
	return core.TrainOnPlatformBatch(p, selCfg, lab.GridA(), lab.GridB(),
		core.BatchConfig{Parallelism: opts.Parallelism, OnProgress: opts.Progress})
}

// ---------------------------------------------------------------------------
// Mini-programs and experiments

// MiniProgramSpec selects one training mini-program run.
type MiniProgramSpec = miniprog.Spec

// Mode is a mini-program mode: the paper's three labels plus the
// widened pathology label space the ensemble trains on.
type Mode = miniprog.Mode

// Mini-program modes. Good/BadFS/BadMA are the paper's label space;
// TLBThrash/NUMARemote/BWSat are the widened pathology labels.
const (
	Good       = miniprog.Good
	BadFS      = miniprog.BadFS
	BadMA      = miniprog.BadMA
	TLBThrash  = miniprog.TLBThrash
	NUMARemote = miniprog.NUMARemote
	BWSat      = miniprog.BWSat
)

// Modes lists the paper's three mini-program modes; AllModes appends
// the widened pathology labels.
func Modes() []Mode { return miniprog.Modes() }

// AllModes lists every mini-program mode, the full label space of the
// multi-pathology ensemble.
func AllModes() []Mode { return miniprog.AllModes() }

// BuildMiniProgram constructs the kernels of a training mini-program.
func BuildMiniProgram(spec MiniProgramSpec) ([]Kernel, error) { return miniprog.Build(spec) }

// FeatureNames returns the classifier's attribute names (the first 15
// Table 2 events).
func FeatureNames() []string { return pmu.FeatureNames() }

// ExperimentOptions configures ReproduceWith.
type ExperimentOptions struct {
	// Quick shrinks the experiment grids for fast runs.
	Quick bool
	// Seed drives determinism (default 1).
	Seed uint64
	// Parallelism caps concurrent case simulations (0 = GOMAXPROCS,
	// 1 = sequential). Rendered results are bit-identical at every
	// setting.
	Parallelism int
	// Progress, when non-nil, observes batch progress (completed, total).
	Progress func(done, total int)
	// Faults, when enabled, injects deterministic counter faults into
	// every measurement the experiment takes (tolerant mode; see
	// SweepOptions.Faults). The fault-matrix experiment sweeps its own
	// rate axis and ignores this field's rate for the swept collectors.
	Faults FaultConfig
}

// Reproduce regenerates one of the paper's numbered experiments and
// returns its rendered result. Valid names: table1, table2, table3,
// table4, figure2, table5, table6, table7, table8, table9, table10,
// table11, overhead, ablation-classifier, ablation-features.
func Reproduce(name string, quick bool) (string, error) {
	return ReproduceWith(name, ExperimentOptions{Quick: quick})
}

// ReproduceWith is Reproduce with full control over seed and the batch
// engine's parallelism.
func ReproduceWith(name string, opts ExperimentOptions) (string, error) {
	return ReproduceContext(context.Background(), name, opts)
}

// ReproduceContext is ReproduceWith with cancellation: the experiment's
// batches stop feeding cases when ctx is cancelled or its deadline
// passes (the `fsml repro -timeout` behavior).
func ReproduceContext(ctx context.Context, name string, opts ExperimentOptions) (string, error) {
	lab := &exps.Lab{Quick: opts.Quick, Seed: seedOrDefault(opts.Seed),
		Parallelism: opts.Parallelism, Progress: opts.Progress, Faults: opts.Faults, Ctx: ctx}
	return reproduceWith(lab, name)
}

func reproduceWith(lab *exps.Lab, name string) (string, error) {
	switch name {
	case "table1":
		r, err := lab.Table1()
		return render(r, err)
	case "table2":
		r, err := lab.Table2()
		return render(r, err)
	case "table3":
		r, err := lab.Table3()
		return render(r, err)
	case "table4":
		r, err := lab.Table4()
		if err != nil {
			return "", err
		}
		return r.DetailedString(), nil
	case "figure2":
		r, err := lab.Figure2()
		return render(r, err)
	case "table5":
		r, err := lab.Table5()
		return render(r, err)
	case "table6":
		r, err := lab.Table6()
		return render(r, err)
	case "table7":
		r, err := lab.Table7()
		return render(r, err)
	case "table8":
		r, err := lab.Table8()
		return render(r, err)
	case "table9":
		r, err := lab.Table9()
		return render(r, err)
	case "table10":
		r, err := lab.Table10()
		return render(r, err)
	case "table11":
		t10, err := lab.Table10()
		if err != nil {
			return "", err
		}
		return exps.Table11(t10).String(), nil
	case "overhead":
		r, err := lab.Overhead()
		return render(r, err)
	case "ablation-classifier":
		rows, err := lab.ClassifierAblation()
		if err != nil {
			return "", err
		}
		return exps.RenderClassifierAblation(rows), nil
	case "ablation-features":
		rows, err := lab.FeatureAblation()
		if err != nil {
			return "", err
		}
		return exps.RenderFeatureAblation(rows), nil
	case "ablation-partb":
		rows, err := lab.PartBAblation()
		if err != nil {
			return "", err
		}
		return exps.RenderPartBAblation(rows), nil
	case "crossplatform":
		rows, err := lab.CrossPlatform()
		if err != nil {
			return "", err
		}
		return exps.RenderCrossPlatform(rows), nil
	case "baselines":
		rows, err := lab.BaselineComparison()
		if err != nil {
			return "", err
		}
		return exps.RenderBaselineComparison(rows), nil
	case "ablation-protocol":
		rows, err := lab.ProtocolAblation()
		if err != nil {
			return "", err
		}
		return exps.RenderProtocolAblation(rows), nil
	case "ablation-quantum":
		rows, err := lab.QuantumAblation()
		if err != nil {
			return "", err
		}
		return exps.RenderQuantumAblation(rows), nil
	case "ablation-cache":
		rows, err := lab.CacheFeatureAblation()
		if err != nil {
			return "", err
		}
		return exps.RenderCacheFeatureAblation(rows), nil
	case "stability":
		var b strings.Builder
		for _, sc := range exps.DefaultStabilityCases() {
			repeats := 12
			if lab.Quick {
				repeats = 6
			}
			r, err := lab.StabilityStudy(sc.Program, sc.Case, repeats)
			if err != nil {
				return "", err
			}
			b.WriteString(r.String())
		}
		return b.String(), nil
	case "limitation":
		r, err := lab.TrueSharingLimitation()
		if err != nil {
			return "", err
		}
		return r.String(), nil
	case "ablation-placement":
		rows, err := lab.PlacementAblation()
		if err != nil {
			return "", err
		}
		return exps.RenderPlacementAblation(rows), nil
	case "fault-matrix":
		r, err := lab.FaultMatrix()
		if err != nil {
			return "", err
		}
		// The widened variant rides along: same rate axis, but the
		// multi-pathology ensemble classifying the full label space.
		w, err := lab.FaultMatrixWide()
		if err != nil {
			return "", err
		}
		return r.String() + "\n" + w.String(), nil
	default:
		return "", fmt.Errorf("fsml: unknown experiment %q", name)
	}
}

func render(r fmt.Stringer, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return r.String(), nil
}

// Experiments lists the names Reproduce accepts, in paper order.
func Experiments() []string {
	return []string{
		"table1", "table2", "table3", "table4", "figure2", "table5",
		"table6", "table7", "table8", "table9", "table10", "table11",
		"overhead", "ablation-classifier", "ablation-features", "ablation-partb",
		"crossplatform", "baselines", "ablation-protocol", "ablation-quantum",
		"ablation-cache", "ablation-placement", "stability", "limitation",
		"fault-matrix",
	}
}

// ---------------------------------------------------------------------------
// Serving

// Serving-layer types, re-exported from internal/serve: a long-running
// detection server with a registry of trained detectors, inline
// inference, and a JSON API, plus the matching client.
type (
	// ServeConfig shapes a detection Server (listen address, admission
	// limits, registry directory, default detector, fault injection).
	ServeConfig = serve.Config
	// Server is the long-running detection service.
	Server = serve.Server
	// ServeClient is the Go client of a detection Server.
	ServeClient = serve.Client
	// ClassifyRequest is the POST /v1/classify body: a normalized event
	// vector or an uploaded (optionally gzip) access trace.
	ClassifyRequest = serve.ClassifyRequest
	// ClassifyResponse carries the verdict, including the degraded-mode
	// fields of a flagged-counter classification.
	ClassifyResponse = serve.ClassifyResponse
	// BinClassifyRequest is the POST /v1/classify-bin frame: a batch of
	// vectors sharing one event layout, or one trace, over the
	// length-prefixed binary protocol (see ServeClient.ClassifyBinary).
	BinClassifyRequest = serve.BinClassifyRequest
	// BinClassifyResponse carries one verdict per request vector.
	BinClassifyResponse = serve.BinClassifyResponse
	// BinVerdict is one vector's verdict inside a BinClassifyResponse.
	BinVerdict = serve.BinVerdict
	// ServeReportRequest is the POST /v1/report body.
	ServeReportRequest = serve.ReportRequest
	// ServeReportResponse wraps the assembled report.
	ServeReportResponse = serve.ReportResponse
	// DetectorSpec identifies a lazily trainable detector in the serving
	// registry; its Key() is the registry key.
	DetectorSpec = serve.TrainSpec
	// ReadyResponse is the GET /readyz body: readiness split into its
	// causes (shutdown drain, admission overload, open training breakers).
	ReadyResponse = serve.ReadyResponse
	// ServeRetryPolicy shapes ServeClient's self-healing retries: capped
	// exponential backoff with deterministic seeded jitter, Retry-After
	// honoring, and retry-only-when-safe semantics.
	ServeRetryPolicy = serve.RetryPolicy
	// RetryBackoff is the backoff shape inside a ServeRetryPolicy; delays
	// are a pure function of (Seed, attempt).
	RetryBackoff = resilience.Backoff
	// FormatError is the typed mismatch error produced when a serialized
	// detector's format version does not match this build (see
	// DetectorModelVersion).
	FormatError = core.FormatError
)

// DetectorModelVersion is the serialization format version this build
// writes (and requires when decoding).
const DetectorModelVersion = core.ModelVersion

// NewServer builds a detection server (call Start, or mount Handler
// behind your own listener).
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

// NewServeClient returns a client for the detection server at baseURL,
// e.g. "http://127.0.0.1:8723".
func NewServeClient(baseURL string) *ServeClient { return serve.NewClient(baseURL) }

// ---------------------------------------------------------------------------
// Model lifecycle

// Lifecycle-layer types, re-exported from internal/lifecycle: the
// self-healing model loop a server runs when ServeConfig.Lifecycle is
// set — drift-triggered retraining, shadow scoring of the candidate on
// live traffic, and versioned promote/rollback of the active detector.
type (
	// LifecycleConfig shapes a server's lifecycle manager; the zero Spec
	// means defaults.
	LifecycleConfig = lifecycle.Config
	// LifecycleSpec is the tuning surface (debounce, sampling, budgets),
	// parsed from "alarms=3,window=2m,..." strings.
	LifecycleSpec = lifecycle.Spec
	// LifecycleSpecError is the typed rejection ParseLifecycleSpec
	// returns, naming the offending field.
	LifecycleSpecError = lifecycle.SpecError
	// LifecycleState is one node of the lifecycle state machine.
	LifecycleState = lifecycle.State
	// LifecycleStatus is a point-in-time snapshot of the manager.
	LifecycleStatus = lifecycle.Status
	// LifecycleRun is one retrain attempt in the history ledger.
	LifecycleRun = lifecycle.Run
	// LifecycleTransition is one recorded state-machine edge.
	LifecycleTransition = lifecycle.Transition
	// LifecycleResponse is the GET /v1/lifecycle body.
	LifecycleResponse = serve.LifecycleResponse
)

// Lifecycle states, in the order a successful run visits them.
const (
	LifecycleStable     = lifecycle.StateStable
	LifecycleDrifting   = lifecycle.StateDrifting
	LifecycleRetraining = lifecycle.StateRetraining
	LifecycleShadowing  = lifecycle.StateShadowing
	LifecyclePromoting  = lifecycle.StatePromoting
	LifecycleRolledBack = lifecycle.StateRolledBack
)

// ParseLifecycleSpec parses "alarms=3,window=2m,clear=2,every=1,
// shadow=64,agree=0.9,conf=0,probation=64,regress=0.25" ("" or "on"
// yields the defaults). Errors are *LifecycleSpecError values.
func ParseLifecycleSpec(s string) (LifecycleSpec, error) { return lifecycle.ParseSpec(s) }

// DefaultLifecycleSpec returns the default lifecycle tuning.
func DefaultLifecycleSpec() LifecycleSpec { return lifecycle.DefaultSpec() }

// ---------------------------------------------------------------------------
// Streaming detection

// Streaming-layer types, re-exported from internal/stream: an online
// detection engine that classifies sliding windows of live PMU slice
// samples, smooths verdicts with hysteresis, reports phase changes and
// feature-drift alarms, and fans events out to bounded drop-oldest
// subscriptions.
type (
	// WindowSpec is the sliding-window geometry (size, stride,
	// hysteresis), parsed from "size[:stride[:hysteresis]]".
	WindowSpec = stream.WindowSpec
	// WindowSpecError is the typed rejection ParseWindowSpec returns,
	// naming the offending field.
	WindowSpecError = stream.SpecError
	// StreamEvent is one element of a monitoring stream (window verdict,
	// phase change, drift alarm, or closing summary).
	StreamEvent = stream.Event
	// StreamWindowVerdict is the classification of one window.
	StreamWindowVerdict = stream.WindowVerdict
	// StreamPhaseChange reports the smoothed class shifting.
	StreamPhaseChange = stream.PhaseChange
	// StreamDriftAlarm reports the window features leaving the training
	// envelope.
	StreamDriftAlarm = stream.DriftAlarm
	// StreamDriftCleared reports recovery from a drift episode.
	StreamDriftCleared = stream.DriftCleared
	// StreamSummary closes a stream with its phase timeline.
	StreamSummary = stream.Summary
	// StreamEnvelope is the per-attribute training envelope drift is
	// measured against.
	StreamEnvelope = stream.Envelope
	// StreamEngine is the pure, synchronous windowed classifier (use
	// StreamMonitor to run it over a live workload).
	StreamEngine = stream.Engine
	// StreamEngineConfig shapes a StreamEngine.
	StreamEngineConfig = stream.EngineConfig
	// StreamMonitor is one live monitoring session over a workload.
	StreamMonitor = stream.Monitor
	// StreamMonitorConfig shapes a session (window spec, seed, slice
	// length, envelope, event callback).
	StreamMonitorConfig = stream.MonitorConfig
	// StreamSubscription is a bounded drop-oldest event feed.
	StreamSubscription = stream.Subscription
	// WatchQuery is the parameter surface of the server's GET /v1/watch
	// endpoint and ServeClient.Watch.
	WatchQuery = serve.WatchQuery
)

// Stream event kinds.
const (
	StreamKindWindow     = stream.KindWindow
	StreamKindPhase      = stream.KindPhase
	StreamKindDrift      = stream.KindDrift
	StreamKindDriftClear = stream.KindDriftClear
	StreamKindDone       = stream.KindDone
)

// StreamDemoProgram names the built-in phased demo workload (good ->
// bad-fs -> good) that `fsml watch` and GET /v1/watch monitor.
const StreamDemoProgram = stream.DemoProgram

// ParseWindowSpec parses "size[:stride[:hysteresis]]" ("" yields the
// default 8:8:3). Errors are *WindowSpecError values.
func ParseWindowSpec(s string) (WindowSpec, error) { return stream.ParseWindowSpec(s) }

// DefaultWindowSpec returns the default window geometry (8:8:3).
func DefaultWindowSpec() WindowSpec { return stream.DefaultWindowSpec() }

// NewStreamEngine builds the pure windowed classifier around det,
// either detector type.
func NewStreamEngine(det Classifier, cfg StreamEngineConfig) (*StreamEngine, error) {
	return stream.NewEngine(det, cfg)
}

// NewStreamMonitor builds a live monitoring session. A nil collector
// uses the paper-default platform.
func NewStreamMonitor(col *Collector, det *Detector, cfg StreamMonitorConfig) (*StreamMonitor, error) {
	return stream.NewMonitor(col, det, cfg)
}

// StreamEnvelopeFromTree derives a drift envelope from the split
// thresholds of a trained tree, widened by slack (e.g. 0.25 = 25%).
func StreamEnvelopeFromTree(t *Tree, slack float64) *StreamEnvelope {
	return stream.EnvelopeFromTree(t, slack)
}

// StreamEnvelopeFromDataset derives a drift envelope from the observed
// per-attribute ranges of a training dataset, widened by margin.
func StreamEnvelopeFromDataset(d *Dataset, margin float64) *StreamEnvelope {
	return stream.EnvelopeFromDataset(d, margin)
}

// PhasedKernels builds the demo workload behind StreamDemoProgram:
// threads workers running a good -> bad-fs -> good phase sequence of
// perPhase iterations each, with barriers at the phase boundaries.
func PhasedKernels(threads, perPhase int) []Kernel { return stream.PhasedKernels(threads, perPhase) }

// ---------------------------------------------------------------------------
// Perf ingestion: classifying real `perf` tool output.

type (
	// PerfReport is parsed `perf stat` / `perf c2c report` output: an
	// ordered event list with counts aggregated across intervals.
	PerfReport = perfingest.Report
	// PerfEventCount is one event's aggregated count in a PerfReport.
	PerfEventCount = perfingest.EventCount
	// PerfFormat identifies which perf output shape was parsed.
	PerfFormat = perfingest.Format
	// PerfMapping reports how a capture landed on the Table-2 feature
	// space: mapped events, unmapped events, and uncovered features.
	PerfMapping = perfingest.Mapping
	// PerfParseError is a typed, line-numbered perf parse failure.
	PerfParseError = perfingest.ParseError
	// RobustResult is a classification that records its own quality:
	// the verdict, a confidence, and whether it was computed on a
	// degraded (partial) feature subset.
	RobustResult = core.RobustResult
)

// The recognized perf output formats.
const (
	PerfFormatStat    = perfingest.FormatStat
	PerfFormatStatCSV = perfingest.FormatStatCSV
	PerfFormatC2C     = perfingest.FormatC2C
)

// ServePerfContentType is the POST /v1/classify media type for raw
// perf uploads (see ServeClient.ClassifyPerf).
const ServePerfContentType = serve.PerfContentType

// ErrNoPerfNormalizer reports perf output with no usable instruction
// count: nothing can be normalized into the counts-per-instruction
// feature space. Returned (wrapped) by ClassifyPerf.
var ErrNoPerfNormalizer = perfingest.ErrNoNormalizer

// ParsePerf reads real perf tool output, auto-detecting the format:
// `perf c2c report` statistics, `perf stat -x,` CSV, or human-readable
// `perf stat` (the latter two in plain or `-I <ms>` interval mode).
func ParsePerf(r io.Reader) (*PerfReport, error) { return perfingest.Parse(r) }

// ClassifyPerf classifies a parsed perf capture with det, either
// detector type: the capture is mapped onto the Table-2 feature space
// (plus the remote-DRAM counter when it was measured) through the
// event-alias table and classified robustly — features the capture did
// not measure degrade the verdict's confidence (RobustResult.Degraded)
// instead of failing it. An *EnsembleDetector degrades per committee
// member and names the attributes the capture lacks in MissingEvents.
// The returned mapping says which perf events fed which features,
// which were unmapped, and which features went uncovered.
func ClassifyPerf(det Classifier, rep *PerfReport) (RobustResult, *PerfMapping, error) {
	sample, mapping, err := rep.Sample()
	if err != nil {
		return RobustResult{}, nil, err
	}
	rr, err := det.ClassifyRobust(sample)
	if err != nil {
		return RobustResult{}, nil, err
	}
	return rr, mapping, nil
}

// PerfEventAliases returns the event-alias table as sorted
// "perf name -> Table-2 feature" pairs, for documentation and
// diagnostics.
func PerfEventAliases() [][2]string { return perfingest.Aliases() }

// ---------------------------------------------------------------------------
// Multi-pathology ensemble

// Ensemble types, re-exported from internal/ensemble: the calibrated
// multi-label detector that ranks every pathology the machine model can
// exhibit — the paper's three classes plus tlb-thrash, numa-remote and
// bw-saturated — by combining per-class bagged C4.5 committees with the
// existing 3-class tree.
type (
	// EnsembleDetector is a trained multi-pathology ensemble.
	EnsembleDetector = ensemble.Detector
	// EnsembleSpec configures ensemble growth (members per committee,
	// bootstrap fraction, seed); parse the CLI spec format with
	// ParseEnsembleSpec.
	EnsembleSpec = ensemble.Spec
	// EnsembleResult is a ranked multi-pathology verdict: a
	// RobustResult with Pathologies and MissingEvents filled in.
	EnsembleResult = ensemble.Result
	// PathologyScore is one entry of the ranked verdict.
	PathologyScore = ensemble.PathologyScore
	// EnsembleTrainConfig configures the widened-grid collection behind
	// TrainEnsemble.
	EnsembleTrainConfig = ensemble.TrainConfig
	// EnsembleFormatError is the typed mismatch error produced when a
	// serialized blob is not an fsml-ensemble-v1 model.
	EnsembleFormatError = ensemble.EnsembleFormatError
	// EnsembleDetectorSpec identifies a lazily trainable ensemble in the
	// serving registry; its Key() is the registry key.
	EnsembleDetectorSpec = serve.EnsembleSpec
)

// DefaultEnsembleSpec returns the default growth parameters.
func DefaultEnsembleSpec() EnsembleSpec { return ensemble.DefaultSpec() }

// ParseEnsembleSpec parses a "members=5,sample=0.8,seed=42" growth spec
// (omitted keys keep their defaults; "" is the default spec).
func ParseEnsembleSpec(s string) (EnsembleSpec, error) { return ensemble.ParseEnsembleSpec(s) }

// EnsembleFeatureNames returns the widened attribute list the ensemble
// trains on: the Table-2 features plus the remote-DRAM counter.
func EnsembleFeatureNames() []string { return pmu.EnsembleFeatureNames() }

// NUMAMachine returns the two-socket variant of the paper's platform
// that the numa-remote training grids run on.
func NUMAMachine() MachineConfig { return ensemble.NUMAMachine() }

// TrainEnsemble runs the full multi-pathology pipeline: train the
// paper's 3-class detector, collect the widened grids (legacy modes
// plus the pathology kernel families, including the NUMA machine for
// numa-remote), and grow the calibrated ensemble around the base tree.
// A zero spec means DefaultEnsembleSpec with opts.Seed.
func TrainEnsemble(opts TrainOptions, spec EnsembleSpec) (*EnsembleDetector, error) {
	return TrainEnsembleContext(context.Background(), opts, spec)
}

// TrainEnsembleContext is TrainEnsemble with cancellation.
func TrainEnsembleContext(ctx context.Context, opts TrainOptions, spec EnsembleSpec) (*EnsembleDetector, error) {
	lab := &exps.Lab{Quick: opts.Quick, Seed: seedOrDefault(opts.Seed),
		Parallelism: opts.Parallelism, Progress: opts.Progress}
	base, err := lab.Detector()
	if err != nil {
		return nil, err
	}
	cfg := ensemble.TrainConfig{Quick: opts.Quick, Seed: seedOrDefault(opts.Seed),
		Parallelism: opts.Parallelism, Progress: opts.Progress, Spec: spec}
	return ensemble.TrainContext(ctx, cfg, base)
}

// DetectPathologies measures the given kernels on a fresh default
// machine with the widened event set and returns the ensemble's ranked
// multi-pathology verdict. It is Detect's multi-label counterpart.
func DetectPathologies(det *EnsembleDetector, kernels []Kernel) (EnsembleResult, Observation, error) {
	return DetectPathologiesOn(det, DefaultMachine(), kernels)
}

// DetectPathologiesOn is DetectPathologies with an explicit machine
// configuration (e.g. NUMAMachine to surface numa-remote).
func DetectPathologiesOn(det *EnsembleDetector, cfg MachineConfig, kernels []Kernel) (EnsembleResult, Observation, error) {
	c := core.NewCollector()
	c.Machine = cfg
	c.Events = pmu.EnsembleEvents()
	obs := c.Measure("user-workload", cfg.Seed, kernels)
	res, err := det.ClassifyRobust(obs.Sample)
	if err != nil {
		return EnsembleResult{}, obs, err
	}
	return res, obs, nil
}

// EncodeEnsemble serializes a trained ensemble (fsml-ensemble-v1).
func EncodeEnsemble(d *EnsembleDetector) ([]byte, error) { return d.Encode() }

// DecodeEnsemble parses an ensemble serialized by EncodeEnsemble.
func DecodeEnsemble(data []byte) (*EnsembleDetector, error) { return ensemble.Decode(data) }

// ---------------------------------------------------------------------------
// Fleet serving: a consistent-hash coordinator over many detection
// servers (internal/fleet).

type (
	// FleetConfig shapes a fleet Coordinator: the backend peer set,
	// replication factor, probe cadence, and per-peer breaker knobs.
	FleetConfig = fleet.Config
	// FleetCoordinator consistent-hash-routes classify/watch traffic
	// across a fleet of detection servers, replicates uploaded models
	// to ring successors, fails over on node loss, and rebalances when
	// the live-peer set changes.
	FleetCoordinator = fleet.Coordinator
	// FleetRing is the consistent-hash ring (vnode placement, successor
	// walks) the coordinator routes with.
	FleetRing = fleet.Ring
	// FleetReadyResponse is the coordinator's aggregated GET /readyz
	// body: live-peer counts plus per-peer detail.
	FleetReadyResponse = fleet.ReadyResponse
	// FleetPeerStatus is one peer's row in a FleetReadyResponse.
	FleetPeerStatus = fleet.PeerStatus
	// FleetDetectorsResponse is the coordinator's merged GET
	// /v1/detectors body: every key resident in the fleet with its
	// holding peers.
	FleetDetectorsResponse = fleet.DetectorsResponse
	// BaseURLError is the typed error for a ServeClient.BaseURL that
	// cannot form request URLs; it is never retried.
	BaseURLError = serve.BaseURLError
)

// NewFleet validates the peer set and builds a coordinator (call Start,
// or mount Handler yourself).
func NewFleet(cfg FleetConfig) (*FleetCoordinator, error) { return fleet.New(cfg) }

// NewFleetRing builds a consistent-hash ring over the given peers with
// vnodes virtual points each (0 = the fleet default).
func NewFleetRing(peers []string, vnodes int) *FleetRing { return fleet.NewRing(peers, vnodes) }

// ServeRequestIDHeader is the correlation header: the coordinator
// stamps it on every forwarded hop and servers echo it on every
// response, so one request's path through the fleet greps out of the
// logs.
const ServeRequestIDHeader = serve.RequestIDHeader

// FleetPeerHeader names the backend that answered a routed request.
const FleetPeerHeader = fleet.PeerHeader
