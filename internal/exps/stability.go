package exps

import (
	"fmt"
	"strings"

	"fsml/internal/core"
	"fsml/internal/stats"
	"fsml/internal/suite"
)

// StabilityRun is one repeat of an unstable case.
type StabilityRun struct {
	Seed         uint64
	Class        string
	Instructions uint64
	Seconds      float64
}

// StabilityResult is the §4.3 repeated-runs investigation of one case.
type StabilityResult struct {
	Program string
	Case    suite.Case
	Runs    []StabilityRun
	// Histogram counts classes over the repeats.
	Histogram map[string]int
	// InstrByClass summarizes instruction counts per observed class —
	// the quantity the paper used to explain streamcluster's flipping
	// cell ("the longer execution time corresponds to excessively larger
	// number of instructions being executed").
	InstrByClass map[string]stats.Summary
}

// StabilityStudy reruns one benchmark case across seeds, reproducing the
// paper's §4.3 analysis of the two unstable cells: histogram's 1/36
// flicker and streamcluster's top-right Table 8 cell, whose verdict
// follows the spin-wait-inflated instruction count.
func (l *Lab) StabilityStudy(program string, cs suite.Case, repeats int) (*StabilityResult, error) {
	w, ok := suite.Lookup(program)
	if !ok {
		return nil, fmt.Errorf("exps: unknown workload %q", program)
	}
	det, err := l.Detector()
	if err != nil {
		return nil, err
	}
	seedOf := func(r int) uint64 { return cs.Seed + uint64(r)*6151 + 1 }
	// Each repeat is one case of the lab's measure-retry-classify step, so
	// a faulted read is re-measured and a repeat that still fails is
	// left out of the histogram instead of aborting the study.
	results, err := l.Collector().BatchClassify(l.ctx(), det, repeats, func(r int) core.BatchCase {
		run := cs
		run.Seed = seedOf(r)
		desc := fmt.Sprintf("%s/%s/rep%d", program, run, r)
		return core.BatchCase{Desc: desc, MeasureDesc: desc, Seed: run.Seed, Kernels: w.Build(run)}
	})
	if err != nil {
		return nil, err
	}
	res := &StabilityResult{Program: program, Case: cs, Histogram: map[string]int{}, InstrByClass: map[string]stats.Summary{}}
	instr := map[string][]float64{}
	for r, cr := range results {
		if cr.Failed {
			continue
		}
		res.Runs = append(res.Runs, StabilityRun{Seed: seedOf(r), Class: cr.Class, Instructions: cr.Instructions, Seconds: cr.Seconds})
		res.Histogram[cr.Class]++
		instr[cr.Class] = append(instr[cr.Class], float64(cr.Instructions))
	}
	for class, xs := range instr {
		res.InstrByClass[class] = stats.Summarize(xs)
	}
	return res, nil
}

// DefaultStabilityCases returns the two §4.3 unstable cells.
func DefaultStabilityCases() []struct {
	Program string
	Case    suite.Case
} {
	return []struct {
		Program string
		Case    suite.Case
	}{
		{"histogram", suite.Case{Input: "10MB", Threads: 12, Opt: 2, Seed: 500}},
		{"streamcluster", suite.Case{Input: "simsmall", Threads: 12, Opt: 1, Seed: 600}},
	}
}

// String renders the study.
func (r *StabilityResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Stability of %s %s over %d repeats:\n", r.Program, r.Case, len(r.Runs))
	for class, n := range r.Histogram {
		fmt.Fprintf(&b, "  %-8s %2d/%d   instructions: %s\n", class, n, len(r.Runs), r.InstrByClass[class])
	}
	return b.String()
}
