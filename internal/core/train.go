package core

import (
	"context"
	"fmt"
	"strings"

	"fsml/internal/dataset"
	"fsml/internal/miniprog"
	"fsml/internal/pmu"
	"fsml/internal/sched"
)

// Grid defines the parameter sweep for training-data collection (§3.1):
// every supported (program, size, threads, mode, repeat) combination
// yields one labeled instance.
type Grid struct {
	// Sizes are vector/scalar problem sizes; MatSizes are matrix
	// dimensions used instead for matrix programs.
	Sizes    []int
	MatSizes []int
	// Threads is the thread-count sweep for multi-threaded programs.
	Threads []int
	// Repeats maps each mode to how many repeated (re-seeded) runs it
	// gets; the paper's class imbalance (good 324 / bad-fs 216 /
	// bad-ma 135 in Part A) comes from repeating good configurations more.
	Repeats map[miniprog.Mode]int
	// Modes restricts which modes the sweep enumerates. Nil means the
	// paper's three classes (miniprog.Modes()), which keeps the legacy
	// grids and their per-run seeds byte-identical; the ensemble's
	// widened grids pass miniprog.AllModes().
	Modes []miniprog.Mode
	// Seed is the base seed; every run derives a distinct seed from it.
	Seed uint64
}

// modes returns the grid's mode sweep, defaulting to the paper's three.
func (g Grid) modes() []miniprog.Mode {
	if g.Modes != nil {
		return g.Modes
	}
	return miniprog.Modes()
}

// Labels returns the label strings a grid can produce given the programs
// it sweeps: the mode sweep restricted to modes some program supports, in
// sweep order. This is the required-class set train/iterate guards use.
func (g Grid) Labels(progs []miniprog.Program) []string {
	var out []string
	for _, mode := range g.modes() {
		supported := false
		for _, p := range progs {
			if p.Supports[mode] {
				supported = true
				break
			}
		}
		if supported {
			out = append(out, mode.String())
		}
	}
	return out
}

// DefaultPartAGrid reproduces Part A's shape: 8 programs, multiple sizes
// and thread counts, good runs repeated 3x, bad-fs 2x, bad-ma 2x. With
// the default mini-program set this yields 675 instances in the paper's
// 324/216/135 class proportions (ours: 288/192/120 before fan-in of the
// matrix sizes; the exact counts are reported by CollectReport).
func DefaultPartAGrid() Grid {
	return Grid{
		Sizes:    []int{60000, 120000, 240000},
		MatSizes: []int{96, 128, 160},
		Threads:  []int{3, 6, 9, 12},
		Repeats: map[miniprog.Mode]int{
			miniprog.Good:  3,
			miniprog.BadFS: 2,
			miniprog.BadMA: 2,
		},
		Seed: 100,
	}
}

// DefaultPartBGrid reproduces Part B: sequential programs, more sizes
// (small ones deliberately included — they are the ones the filter
// removes), good repeated more than bad-ma.
func DefaultPartBGrid() Grid {
	return Grid{
		Sizes:    []int{2000, 8000, 60000, 120000, 240000, 480000},
		MatSizes: []int{32, 64, 128, 160},
		Threads:  []int{1},
		Repeats: map[miniprog.Mode]int{
			miniprog.Good:  2,
			miniprog.BadMA: 2,
		},
		Seed: 200,
	}
}

// isMatrix reports whether the program's Size is a matrix dimension.
func isMatrix(name string) bool {
	return name == "pmatmult" || name == "pmatcompare" || name == "smatmult"
}

// plannedRun is one enumerated grid cell: the spec to measure and the
// grouped description the filter keys on.
type plannedRun struct {
	spec miniprog.Spec
	desc string
}

// planGrid enumerates the grid in the paper's nested order — programs,
// sizes, threads, modes, repeats — assigning each run its seed as a pure
// function of the run index. Because the seed depends only on the cell's
// position (never on any state carried between runs), the plan can be
// executed in any order and reassembled deterministically.
func planGrid(progs []miniprog.Program, grid Grid) []plannedRun {
	var runs []plannedRun
	run := uint64(0)
	for _, p := range progs {
		sizes := grid.Sizes
		if isMatrix(p.Name) {
			sizes = grid.MatSizes
		}
		for _, size := range sizes {
			threads := grid.Threads
			if !p.MultiThreaded {
				threads = []int{1}
			}
			for _, th := range threads {
				for _, mode := range grid.modes() {
					if !p.Supports[mode] {
						continue
					}
					reps := grid.Repeats[mode]
					for r := 0; r < reps; r++ {
						run++
						runs = append(runs, plannedRun{
							spec: miniprog.Spec{
								Program: p.Name, Size: size, Threads: th,
								Mode: mode, Seed: grid.Seed + run*7919,
							},
							desc: fmt.Sprintf("%s/size=%d/threads=%d/rep=%d", p.Name, size, th, r),
						})
					}
				}
			}
		}
	}
	return runs
}

// Collect runs the grid over the given programs and returns one
// observation per run, in grid order. Observations are grouped so that
// runs differing only in mode share a "config key", which the filter
// uses to compare a bad run against its matched good run.
//
// Cases fan out across the collector's Parallelism workers; because each
// case's seed comes from the enumeration plan rather than shared state,
// the returned observations are bit-identical at every parallelism.
func (c *Collector) Collect(progs []miniprog.Program, grid Grid) ([]Observation, error) {
	return c.CollectContext(context.Background(), progs, grid)
}

// CollectContext is Collect with cancellation: when ctx is cancelled the
// batch stops feeding new cases and returns the context's error.
//
// Under fault injection a run can fail even after its retries (see
// MeasureRetry). The failed runs are then dropped and training proceeds
// on the surviving observations — the grid is redundant by design, so
// losing cells shrinks the training set instead of killing it. On an
// honest collector a failed run aborts the collection with a
// *PipelineError.
func (c *Collector) CollectContext(ctx context.Context, progs []miniprog.Program, grid Grid) ([]Observation, error) {
	runs := planGrid(progs, grid)
	obs, err := sched.Map(ctx, len(runs), c.schedOptions(), func(_ context.Context, i int) (Observation, error) {
		o, err := c.MeasureMiniProgram(runs[i].spec)
		if err != nil {
			if c.tolerant() {
				return Observation{}, nil // dropped below
			}
			return Observation{}, &PipelineError{Stage: StageCollect, Case: runs[i].desc, Err: err}
		}
		o.Desc = runs[i].desc
		return o, nil
	})
	if err != nil || !c.tolerant() {
		return obs, err
	}
	kept := obs[:0]
	for _, o := range obs {
		if usable(o) {
			kept = append(kept, o)
		}
	}
	return kept, nil
}

// configKey identifies runs that differ only in mode and repeat.
func configKey(desc string) string {
	if i := strings.LastIndex(desc, "/rep="); i >= 0 {
		return desc[:i]
	}
	return desc
}

// FilterReport records what the §3.1 instance filter removed, mirroring
// the paper's "we manually examined each of them and removed ..." counts.
type FilterReport struct {
	Kept, Removed map[string]int
}

// String summarizes the report. Labels with no kept or removed instances
// are omitted, so 3-class reports read exactly as before the label space
// widened.
func (r FilterReport) String() string {
	var b strings.Builder
	var labels []string
	for _, m := range miniprog.AllModes() {
		labels = append(labels, m.String())
	}
	for _, label := range labels {
		if r.Kept[label]+r.Removed[label] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s: kept %d, removed %d\n", label, r.Kept[label], r.Removed[label])
	}
	return b.String()
}

// FilterConfig controls the automated analog of the paper's manual
// examination: a "bad" training instance whose run was not actually
// slower than its matched good runs by MinSlowdown is unconvincing as an
// exemplar of the pathology and is dropped. When DropWeakGood is set
// (Part B), the matched good instances of an unconvincing pair are
// dropped as well — a small problem that fits in cache teaches the
// classifier nothing about either class.
type FilterConfig struct {
	MinSlowdown  float64
	DropWeakGood bool
}

// DefaultFilter matches the calibration used for the paper-shaped grids.
func DefaultFilter() FilterConfig { return FilterConfig{MinSlowdown: 1.5} }

// FilterObservations applies the rule and returns the surviving
// observations plus the removal report.
func FilterObservations(obs []Observation, cfg FilterConfig) ([]Observation, FilterReport) {
	report := FilterReport{Kept: map[string]int{}, Removed: map[string]int{}}
	// Mean good seconds per config.
	goodSec := map[string][]float64{}
	for _, o := range obs {
		if o.Label == "good" {
			k := configKey(o.Desc)
			goodSec[k] = append(goodSec[k], o.Seconds)
		}
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	weakConfig := map[string]bool{}
	var kept []Observation
	for _, o := range obs {
		if o.Label == "good" {
			continue // decided in the second pass
		}
		if o.Label == "bad-fs" {
			// The paper's filter removed only unconvincing bad-ma
			// instances; bad-fs exemplars span intensities deliberately
			// (diluted false sharing is precisely what the detector must
			// learn to see) and are always kept.
			kept = append(kept, o)
			report.Kept[o.Label]++
			continue
		}
		k := configKey(o.Desc)
		g, ok := goodSec[k]
		if !ok || mean(g) <= 0 {
			kept = append(kept, o)
			report.Kept[o.Label]++
			continue
		}
		if o.Seconds/mean(g) < cfg.MinSlowdown {
			report.Removed[o.Label]++
			if cfg.DropWeakGood {
				weakConfig[k] = true
			}
			continue
		}
		kept = append(kept, o)
		report.Kept[o.Label]++
	}
	for _, o := range obs {
		if o.Label != "good" {
			continue
		}
		if cfg.DropWeakGood && weakConfig[configKey(o.Desc)] {
			report.Removed[o.Label]++
			continue
		}
		kept = append(kept, o)
		report.Kept[o.Label]++
	}
	return kept, report
}

// BuildDataset converts observations into a labeled feature dataset over
// the first 15 Table 2 attributes.
func BuildDataset(obs []Observation) (*dataset.Dataset, error) {
	d := dataset.New(pmu.FeatureNames())
	for _, o := range obs {
		fv, err := o.Sample.FeatureVector()
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", o.Desc, err)
		}
		if o.Label == "" {
			return nil, fmt.Errorf("core: %s has no label", o.Desc)
		}
		if err := d.Add(dataset.Instance{Features: fv, Label: o.Label, Source: o.Desc}); err != nil {
			return nil, fmt.Errorf("core: %s: %w", o.Desc, err)
		}
	}
	return d, nil
}

// TrainingSummary is the Table 3 bookkeeping for one collection part.
type TrainingSummary struct {
	Name                 string
	Good, BadFS, BadMA   int
	RemovedGood          int
	RemovedFS, RemovedMA int
}

// Total returns the kept-instance count.
func (s TrainingSummary) Total() int { return s.Good + s.BadFS + s.BadMA }

// Summarize tallies a filter report into a Table 3 row.
func Summarize(name string, rep FilterReport) TrainingSummary {
	return TrainingSummary{
		Name:        name,
		Good:        rep.Kept["good"],
		BadFS:       rep.Kept["bad-fs"],
		BadMA:       rep.Kept["bad-ma"],
		RemovedGood: rep.Removed["good"],
		RemovedFS:   rep.Removed["bad-fs"],
		RemovedMA:   rep.Removed["bad-ma"],
	}
}
