package core

import (
	"context"
	"fmt"
	"strings"

	"fsml/internal/machine"
	"fsml/internal/pmu"
)

// This file implements the paper's stated future work (§6): detecting
// false sharing "at a finer granularity, for e.g., in short time slices"
// instead of over the whole program duration. The machine is advanced in
// bounded scheduler slices; counters are read and reset at each boundary
// so every slice gets its own classification. A program that false-shares
// only in one phase shows up as a run of bad-fs slices.

// Slice is one classified execution interval.
type Slice struct {
	// Index is the slice number, Rounds its scheduler-round length.
	Index  int
	Rounds uint64
	// Class is the detector's verdict for the interval ("" when the
	// interval retired too few instructions to classify, or when a
	// tolerated fault made it unclassifiable).
	Class string
	// Confidence and Degraded record the classification quality when
	// flagged counter reads forced a partial-subset prediction.
	Confidence float64
	Degraded   bool
	// Instructions and Seconds describe the interval.
	Instructions uint64
	Seconds      float64
}

// SliceProfile is the outcome of a sliced detection run.
type SliceProfile struct {
	Slices []Slice
	// Overall is the whole-run majority class over classified slices.
	Overall string
}

// minSliceInstructions guards against classifying near-empty tails:
// normalized counts from a handful of instructions are noise.
const minSliceInstructions = 2000

// Interval is one step of a sliced measurement: its index, what the
// machine executed during it and how long that took in simulated time.
type Interval struct {
	Index   int
	Result  machine.RunResult
	Seconds float64
	m       *machine.Machine
	p       *pmu.PMU
}

// Read samples the PMU over the interval. Every read draws measurement
// noise, so whether an interval is read shifts the noise of later ones.
func (iv Interval) Read() pmu.Sample { return iv.p.Read(iv.m.Hierarchy()) }

// MeasureSliced is the one slice loop: it runs kernels on a machine
// built like Measure's, advancing it rounds scheduler rounds at a time.
// fn sees every non-empty interval in order; the counter banks are reset
// after fn returns, so each interval is measured in isolation. The loop
// ends when the workload finishes, when fn fails (its error is
// returned), or when ctx is cancelled before an interval starts
// (ctx.Err() is returned).
func (c *Collector) MeasureSliced(ctx context.Context, desc string, seed uint64, kernels []machine.Kernel, rounds int, fn func(Interval) error) error {
	if rounds <= 0 {
		return fmt.Errorf("core: slice length must be positive, got %d", rounds)
	}
	m, p := c.probe(desc, seed)
	exec := m.StartExecution(kernels)
	for i := 0; ; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		res, finished := exec.Run(rounds)
		if res.Rounds == 0 && finished {
			return nil
		}
		if err := fn(Interval{Index: i, Result: res, Seconds: m.Seconds(res), m: m, p: p}); err != nil {
			return err
		}
		m.Hierarchy().ResetCounters()
		if finished {
			return nil
		}
	}
}

// DetectSliced runs kernels on a machine built from the collector's
// template, classifying every interval of sliceRounds scheduler rounds.
func (c *Collector) DetectSliced(det *Detector, seed uint64, kernels []machine.Kernel, sliceRounds int) (*SliceProfile, error) {
	profile := &SliceProfile{}
	var cases []CaseResult // Majority skips the unclassified slices
	err := c.MeasureSliced(context.Background(), fmt.Sprintf("sliced/seed=%d", seed), seed, kernels, sliceRounds, func(iv Interval) error {
		s := Slice{
			Index:        iv.Index,
			Rounds:       iv.Result.Rounds,
			Instructions: iv.Result.Instructions,
			Seconds:      iv.Seconds,
		}
		if s.Instructions >= minSliceInstructions {
			rr, err := det.ClassifyRobust(iv.Read())
			switch {
			case err == nil:
				s.Class, s.Confidence, s.Degraded = rr.Class, rr.Confidence, rr.Degraded
			case c.tolerant():
				// The slice stays unclassified; the phase profile and the
				// overall majority are computed over the surviving slices.
			default:
				return &PipelineError{Stage: StageClassify, Case: fmt.Sprintf("slice %d", iv.Index), Err: err}
			}
		}
		profile.Slices = append(profile.Slices, s)
		cases = append(cases, CaseResult{Class: s.Class})
		return nil
	})
	if err != nil {
		return nil, err
	}
	profile.Overall, _ = Majority(cases)
	return profile, nil
}

// PhaseRuns compresses the slice sequence into (class, length) runs,
// the report a user acts on: "false sharing during slices 12-40".
func (p *SliceProfile) PhaseRuns() []PhaseRun {
	var runs []PhaseRun
	for _, s := range p.Slices {
		if s.Class == "" {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1].Class == s.Class {
			runs[n-1].Slices++
			runs[n-1].End = s.Index
			continue
		}
		runs = append(runs, PhaseRun{Class: s.Class, Start: s.Index, End: s.Index, Slices: 1})
	}
	return runs
}

// PhaseRun is one maximal run of equally-classified slices.
type PhaseRun struct {
	Class      string
	Start, End int
	Slices     int
}

// String renders the profile compactly.
func (p *SliceProfile) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sliced detection: %d slices, overall %s\n", len(p.Slices), p.Overall)
	for _, r := range p.PhaseRuns() {
		fmt.Fprintf(&b, "  slices %3d-%3d  %s\n", r.Start, r.End, r.Class)
	}
	return b.String()
}
