package exps

import (
	"fmt"
	"strings"

	"fsml/internal/core"
	"fsml/internal/ensemble"
	"fsml/internal/faults"
	"fsml/internal/machine"
	"fsml/internal/miniprog"
	"fsml/internal/pmu"
)

// ---------------------------------------------------------------------------
// Fault matrix: detection accuracy vs injected counter-fault rate
//
// The paper's method claims robustness to unreliable counters (it throws
// away L1D events and normalizes by instructions precisely because real
// PMUs lie). This experiment quantifies that claim in the simulator: a
// detector trained on clean data classifies labeled mini-programs while
// the fault registry (internal/faults) corrupts an increasing fraction
// of counter reads, and the matrix reports how accuracy, degraded-mode
// classifications and outright case losses move with the fault rate.

// FaultMatrixRow is one fault rate's outcome over the labeled case grid.
type FaultMatrixRow struct {
	// Rate is the per-(case, counter) fault probability.
	Rate float64
	// Cases is the grid size; Answered excludes Failed cases.
	Cases, Answered int
	// Correct counts answered cases whose class matched the ground-truth
	// mode label.
	Correct int
	// Degraded counts answered cases classified on a partial event
	// subset; Retried counts cases that needed more than one measurement
	// attempt; Failed counts cases lost even after retries.
	Degraded, Retried, Failed int
	// Accuracy is Correct/Answered (zero when nothing answered).
	Accuracy float64
	// MeanConfidence averages the detector's recorded confidence over
	// answered cases.
	MeanConfidence float64
}

// FaultMatrixResult is the rendered experiment outcome.
type FaultMatrixResult struct {
	// Seed drove the fault draws (distinct from the lab seed so the
	// clean measurements match the other experiments).
	Seed uint64
	// Wide marks the widened variant: the multi-pathology ensemble
	// classifying the full label space (tlb-thrash, numa-remote,
	// bw-saturated beside the paper's three). It changes only the
	// rendered header; the row shape is shared.
	Wide bool
	Rows []FaultMatrixRow
}

// String renders the matrix as a table.
func (r *FaultMatrixResult) String() string {
	var b strings.Builder
	if r.Wide {
		fmt.Fprintf(&b, "Fault matrix (wide): ensemble accuracy over the widened label space vs injected counter-fault rate (fault seed %d)\n", r.Seed)
	} else {
		fmt.Fprintf(&b, "Fault matrix: accuracy vs injected counter-fault rate (fault seed %d)\n", r.Seed)
	}
	b.WriteString("rate    cases  answered  correct  degraded  retried  failed  accuracy  mean-conf\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-7.2f %5d  %8d  %7d  %8d  %7d  %6d  %7.1f%%  %9.3f\n",
			row.Rate, row.Cases, row.Answered, row.Correct,
			row.Degraded, row.Retried, row.Failed,
			100*row.Accuracy, row.MeanConfidence)
	}
	return b.String()
}

// faultMatrixRates is the swept fault-rate axis.
func faultMatrixRates() []float64 { return []float64{0, 0.05, 0.15, 0.35} }

// faultMatrixSpecs enumerates the labeled evaluation grid: every
// multi-threaded mini-program in every supported mode, at sizes where
// the class signal is unambiguous on clean counters.
func (l *Lab) faultMatrixSpecs() []miniprog.Spec {
	progs := miniprog.MultiThreadedSet()
	size, matSize, threads, reps := 60000, 128, 6, 2
	if l.Quick {
		progs = progs[:4]
		size, matSize, reps = 30000, 96, 1
	}
	var specs []miniprog.Spec
	run := uint64(0)
	for r := 0; r < reps; r++ {
		for _, p := range progs {
			sz := size
			if p.Name == "pmatmult" || p.Name == "pmatcompare" {
				sz = matSize
			}
			for _, mode := range miniprog.Modes() {
				if !p.Supports[mode] {
					continue
				}
				run++
				specs = append(specs, miniprog.Spec{
					Program: p.Name, Size: sz, Threads: threads,
					Mode: mode, Seed: l.Seed*10000 + run*101,
				})
			}
		}
	}
	return specs
}

// FaultMatrix runs the accuracy-vs-fault-rate sweep. The detector is
// trained once on clean data; each rate then classifies the same labeled
// grid through a fresh collector whose injector (which makes it retry
// and tolerate failed cases at every positive rate) draws from a seed
// derived only from the lab seed — so the whole matrix is
// deterministic at every parallelism level.
func (l *Lab) FaultMatrix() (*FaultMatrixResult, error) {
	det, err := l.Detector()
	if err != nil {
		return nil, err
	}
	specs := l.faultMatrixSpecs()
	faultSeed := l.Seed*31 + 7
	res := &FaultMatrixResult{Seed: faultSeed}
	for _, rate := range faultMatrixRates() {
		row := FaultMatrixRow{Rate: rate, Cases: len(specs)}
		if err := l.faultBatch(&row, l.newCollector(faults.Config{Rate: rate, Seed: faultSeed}), det, specs); err != nil {
			return nil, err
		}
		row.finish()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// faultBatch classifies labeled specs at the row's fault rate through c
// and tallies the results into row, summing the answered cases'
// confidence into MeanConfidence until finish divides it.
func (l *Lab) faultBatch(row *FaultMatrixRow, c *core.Collector, det core.Classifier, specs []miniprog.Spec) error {
	results, err := c.BatchClassify(l.ctx(), det, len(specs), func(i int) core.BatchCase {
		spec := specs[i]
		kernels, err := miniprog.Build(spec)
		if err != nil {
			panic(err) // specs are enumerated from the registry; a build failure is a bug
		}
		return core.BatchCase{
			Desc: fmt.Sprintf("%s/size=%d/threads=%d/%s/rate=%g",
				spec.Program, spec.Size, spec.Threads, spec.Mode, row.Rate),
			Seed:    spec.Seed ^ 0x5151,
			Kernels: kernels,
		}
	})
	if err != nil {
		return err
	}
	for i, cr := range results {
		if cr.Attempts > 1 {
			row.Retried++
		}
		if cr.Failed {
			row.Failed++
			continue
		}
		row.Answered++
		row.MeanConfidence += cr.Confidence
		if cr.Degraded {
			row.Degraded++
		}
		if cr.Class == specs[i].Mode.String() {
			row.Correct++
		}
	}
	return nil
}

// finish turns the row's tallies into its accuracy and mean confidence.
func (row *FaultMatrixRow) finish() {
	if row.Answered > 0 {
		row.Accuracy = float64(row.Correct) / float64(row.Answered)
		row.MeanConfidence /= float64(row.Answered)
	}
}

// ---------------------------------------------------------------------------
// Widened fault matrix: the ensemble over the full label space

// faultMatrixWideSpecs enumerates the widened evaluation grid in two
// groups: cases that run on the standard machine (the legacy programs in
// the paper's three modes plus the TLB and bandwidth pathology programs)
// and the NUMA program's cases, which need the two-socket machine the
// ensemble trained its numa-remote exemplars on.
func (l *Lab) faultMatrixWideSpecs() (std, numa []miniprog.Spec) {
	progs := miniprog.MultiThreadedSet()
	size, matSize, threads, reps := 60000, 128, 6, 2
	if l.Quick {
		progs = progs[:4]
		size, matSize, reps = 30000, 96, 1
	}
	run := uint64(0)
	next := func(name string, sz int, mode miniprog.Mode) miniprog.Spec {
		run++
		return miniprog.Spec{
			Program: name, Size: sz, Threads: threads,
			Mode: mode, Seed: l.Seed*20000 + run*103,
		}
	}
	for r := 0; r < reps; r++ {
		for _, p := range progs {
			sz := size
			if p.Name == "pmatmult" || p.Name == "pmatcompare" {
				sz = matSize
			}
			for _, mode := range miniprog.Modes() {
				if !p.Supports[mode] {
					continue
				}
				std = append(std, next(p.Name, sz, mode))
			}
		}
		for _, p := range miniprog.PathologySet() {
			for _, mode := range miniprog.AllModes() {
				if !p.Supports[mode] {
					continue
				}
				if p.Name == "numaping" {
					numa = append(numa, next(p.Name, size, mode))
				} else {
					std = append(std, next(p.Name, size, mode))
				}
			}
		}
	}
	return std, numa
}

// FaultMatrixWide runs the accuracy-vs-fault-rate sweep over the widened
// label space, classifying with the lab's multi-pathology ensemble. The
// ensemble is trained once on clean data; each rate then classifies the
// same labeled grid — legacy and pathology programs on the standard
// machine, the NUMA program on the two-socket machine — through fresh
// collectors programming the widened event set. The whole
// matrix is deterministic at every parallelism level.
func (l *Lab) FaultMatrixWide() (*FaultMatrixResult, error) {
	ens, err := l.Ensemble()
	if err != nil {
		return nil, err
	}
	stdSpecs, numaSpecs := l.faultMatrixWideSpecs()
	faultSeed := l.Seed*37 + 11
	res := &FaultMatrixResult{Seed: faultSeed, Wide: true}
	batches := []struct {
		machine machine.Config
		specs   []miniprog.Spec
	}{
		{machine.DefaultConfig(), stdSpecs},
		{ensemble.NUMAMachine(), numaSpecs},
	}
	for _, rate := range faultMatrixRates() {
		row := FaultMatrixRow{Rate: rate, Cases: len(stdSpecs) + len(numaSpecs)}
		for _, batch := range batches {
			c := l.newCollector(faults.Config{Rate: rate, Seed: faultSeed})
			c.Machine = batch.machine
			c.Events = pmu.EnsembleEvents()
			if err := l.faultBatch(&row, c, ens, batch.specs); err != nil {
				return nil, err
			}
		}
		row.finish()
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
