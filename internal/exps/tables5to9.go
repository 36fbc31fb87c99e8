package exps

import (
	"context"
	"fmt"
	"strings"

	"fsml/internal/core"
	"fsml/internal/machine"
	"fsml/internal/sched"
	"fsml/internal/shadow"
	"fsml/internal/suite"
)

// ---------------------------------------------------------------------------
// Table 5 — classification of the benchmark suites

// ProgramClassification is one row of Table 5.
type ProgramClassification struct {
	Name  string
	Suite string
	// Class is the overall (majority) classification.
	Class string
	// Histogram counts per-case classes ("35/36 good, 1/36 bad-fs").
	Histogram map[string]int
	// Cases holds every classified case for the detail views.
	Cases []core.CaseResult
	// PaperClass is the classification the paper reports.
	PaperClass string
}

// Table5Result is the full suite classification.
type Table5Result struct {
	Programs []ProgramClassification
}

// Table5 sweeps every workload over inputs x flags x threads, classifies
// each case with the trained detector, and takes the majority.
func (l *Lab) Table5() (*Table5Result, error) {
	res := &Table5Result{}
	for _, w := range suite.All() {
		row, err := l.ClassifyProgram(w)
		if err != nil {
			return nil, err
		}
		res.Programs = append(res.Programs, row)
	}
	return res, nil
}

// ClassifyProgram runs the full case sweep for one workload. Cases fan
// out across the lab's Parallelism workers; each case's seed is a pure
// function of its position in the sweep, so the verdict is bit-identical
// at every parallelism level.
func (l *Lab) ClassifyProgram(w suite.Workload) (ProgramClassification, error) {
	row := ProgramClassification{Name: w.Name, Suite: w.Suite, PaperClass: w.PaperClass}
	cases := suite.EnumerateCases(inputNames(l.inputsFor(w)), flagsFor(w), l.threadsFor(w),
		func(i int) uint64 { return (l.Seed + uint64(i) + 1) * 31 })
	results, err := l.runCases(w, cases)
	if err != nil {
		return row, err
	}
	row.Cases = results
	row.Class, row.Histogram = core.Majority(row.Cases)
	return row, nil
}

// inputNames projects an input list to its names.
func inputNames(inputs []suite.Input) []string {
	out := make([]string, len(inputs))
	for i, in := range inputs {
		out[i] = in.Name
	}
	return out
}

// String renders Table 5 side by side with the paper's verdicts.
func (r *Table5Result) String() string {
	var b strings.Builder
	b.WriteString("Table 5: classification of benchmark programs (majority over all cases)\n")
	fmt.Fprintf(&b, "%-8s %-18s %-8s %-8s %s\n", "suite", "program", "ours", "paper", "cases")
	for _, p := range r.Programs {
		fmt.Fprintf(&b, "%-8s %-18s %-8s %-8s %s\n",
			p.Suite, p.Name, p.Class, p.PaperClass, core.FormatHistogram(p.Histogram))
	}
	return b.String()
}

// Agreement counts programs whose majority class matches the paper's.
func (r *Table5Result) Agreement() (match, total int) {
	for _, p := range r.Programs {
		total++
		if p.Class == p.PaperClass {
			match++
		}
	}
	return match, total
}

// ---------------------------------------------------------------------------
// Tables 6 and 8 — per-case detail for the two positive programs

// DetailCell is one (input, flag, threads) cell: runtime plus class.
type DetailCell struct {
	Seconds float64
	Class   string
}

// DetailResult is a Table 6/8-shaped grid.
type DetailResult struct {
	Program string
	Inputs  []string
	Flags   []machine.OptLevel
	Threads []int
	// Cells[input][flag][thread].
	Cells map[string]map[machine.OptLevel]map[int]DetailCell
}

// detail sweeps one workload over explicit grids.
func (l *Lab) detail(name string, inputs []string, flags []machine.OptLevel, threads []int) (*DetailResult, error) {
	w, ok := suite.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("exps: unknown workload %q", name)
	}
	res := &DetailResult{Program: name, Inputs: inputs, Flags: flags, Threads: threads,
		Cells: map[string]map[machine.OptLevel]map[int]DetailCell{}}
	base := l.Seed * 977
	cases := suite.EnumerateCases(inputs, flags, threads,
		func(i int) uint64 { return base + uint64(i) + 1 })
	results, err := l.runCases(w, cases)
	if err != nil {
		return nil, err
	}
	// Reassemble the grid from the ordered results: the enumeration and
	// these loops walk the same input/flag/thread nesting.
	i := 0
	for _, in := range inputs {
		res.Cells[in] = map[machine.OptLevel]map[int]DetailCell{}
		for _, opt := range flags {
			res.Cells[in][opt] = map[int]DetailCell{}
			for _, th := range threads {
				cr := results[i]
				i++
				res.Cells[in][opt][th] = DetailCell{Seconds: cr.Seconds, Class: cr.Class}
			}
		}
	}
	return res, nil
}

// Table6 reproduces the linear_regression detail grid (3 inputs x
// -O0..-O2 x T in {1,3,6,9,12}).
func (l *Lab) Table6() (*DetailResult, error) {
	threads := []int{1, 3, 6, 9, 12}
	inputs := []string{"50MB", "100MB", "500MB"}
	if l.Quick {
		threads = []int{1, 6}
		inputs = inputs[:1]
	}
	return l.detail("linear_regression", inputs, phoenixFlags(), threads)
}

// Table8 reproduces the streamcluster detail grid (4 inputs x -O1..-O3 x
// T in {4,8,12}).
func (l *Lab) Table8() (*DetailResult, error) {
	threads := []int{4, 8, 12}
	inputs := []string{"simsmall", "simmedium", "simlarge", "native"}
	if l.Quick {
		threads = []int{4, 8}
		inputs = inputs[:2]
	}
	return l.detail("streamcluster", inputs, parsecFlags(), threads)
}

// String renders the detail grid in the paper's layout.
func (r *DetailResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: execution time (simulated seconds) and classification\n", r.Program)
	fmt.Fprintf(&b, "%-10s %-5s", "input", "flag")
	for _, t := range r.Threads {
		fmt.Fprintf(&b, "  %16s", fmt.Sprintf("T=%d", t))
	}
	b.WriteString("\n")
	for _, in := range r.Inputs {
		for _, opt := range r.Flags {
			fmt.Fprintf(&b, "%-10s %-5s", in, opt)
			for _, t := range r.Threads {
				c := r.Cells[in][opt][t]
				fmt.Fprintf(&b, "  %9.4fs %-6s", c.Seconds, c.Class)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// Count tallies the grid's class histogram.
func (r *DetailResult) Count() map[string]int {
	hist := map[string]int{}
	for _, byOpt := range r.Cells {
		for _, byThr := range byOpt {
			for _, c := range byThr {
				hist[c.Class]++
			}
		}
	}
	return hist
}

// ---------------------------------------------------------------------------
// Tables 7 and 9 — shadow-tool false-sharing rates

// RateCell is one verification cell: the shadow tool's rate and both
// verdicts (tool vs classifier).
type RateCell struct {
	FSRate   float64
	Detected bool // shadow criterion (rate > 1e-3)
	Class    string
}

// RateResult is a Table 7/9-shaped grid.
type RateResult struct {
	Program string
	Inputs  []string
	Flags   []machine.OptLevel
	Threads []int
	Cells   map[string]map[machine.OptLevel]map[int]RateCell
}

// rates sweeps one workload through the shadow tool (and, for the
// side-by-side verdicts, the classifier).
func (l *Lab) rates(name string, inputs []string, flags []machine.OptLevel, threads []int) (*RateResult, error) {
	w, ok := suite.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("exps: unknown workload %q", name)
	}
	res := &RateResult{Program: name, Inputs: inputs, Flags: flags, Threads: threads,
		Cells: map[string]map[machine.OptLevel]map[int]RateCell{}}
	base := l.Seed * 1361
	cases := suite.EnumerateCases(inputs, flags, threads,
		func(i int) uint64 { return base + uint64(i) + 1 })
	// Each cell runs two independent simulations — the shadow tool and
	// the classifier's measurement — so the pair fans out as one case.
	det, err := l.Detector()
	if err != nil {
		return nil, err
	}
	c := l.Collector()
	cells, err := sched.Map(l.ctx(), len(cases), l.schedOptions(),
		func(_ context.Context, i int) (RateCell, error) {
			cs := cases[i]
			rep, err := shadow.Run(l.machineConfig(cs.Seed), w.Build(cs))
			if err != nil {
				return RateCell{}, err
			}
			cr, err := c.ClassifyCase(det, func() core.BatchCase { return suiteCase(w, cs) })
			if err != nil {
				return RateCell{}, err
			}
			return RateCell{FSRate: rep.FSRate, Detected: rep.Detected, Class: cr.Class}, nil
		})
	if err != nil {
		return nil, err
	}
	i := 0
	for _, in := range inputs {
		res.Cells[in] = map[machine.OptLevel]map[int]RateCell{}
		for _, opt := range flags {
			res.Cells[in][opt] = map[int]RateCell{}
			for _, th := range threads {
				res.Cells[in][opt][th] = cells[i]
				i++
			}
		}
	}
	return res, nil
}

// machineConfig builds the per-run machine template.
func (l *Lab) machineConfig(seed uint64) machine.Config {
	cfg := l.Collector().Machine
	cfg.Seed = seed
	return cfg
}

// Table7 reproduces the linear_regression false-sharing-rate grid
// (T=3,6; the tool's 8-thread limit).
func (l *Lab) Table7() (*RateResult, error) {
	inputs := []string{"50MB", "100MB", "500MB"}
	if l.Quick {
		inputs = inputs[:1]
	}
	return l.rates("linear_regression", inputs, phoenixFlags(), []int{3, 6})
}

// Table9 reproduces the streamcluster rate grid (T=4,8; no native —
// "we could not run the experiments with the native input set as it
// takes a long time", which holds for the 5x-instrumented analog too).
func (l *Lab) Table9() (*RateResult, error) {
	inputs := []string{"simsmall", "simmedium", "simlarge"}
	if l.Quick {
		inputs = inputs[:2]
	}
	return l.rates("streamcluster", inputs, parsecFlags(), []int{4, 8})
}

// String renders the rate grid.
func (r *RateResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: false sharing rate (shadow tool) and our classification\n", r.Program)
	fmt.Fprintf(&b, "%-10s %-5s", "input", "flag")
	for _, t := range r.Threads {
		fmt.Fprintf(&b, "  %22s", fmt.Sprintf("T=%d", t))
	}
	b.WriteString("\n")
	for _, in := range r.Inputs {
		for _, opt := range r.Flags {
			fmt.Fprintf(&b, "%-10s %-5s", in, opt)
			for _, t := range r.Threads {
				c := r.Cells[in][opt][t]
				mark := " "
				if c.Detected {
					mark = "*"
				}
				fmt.Fprintf(&b, "  %12.9f%s %-7s", c.FSRate, mark, c.Class)
			}
			b.WriteString("\n")
		}
	}
	b.WriteString("(* = rate > 1e-3, the [33] criterion)\n")
	return b.String()
}
