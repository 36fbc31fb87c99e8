package exps

import (
	"context"
	"fmt"
	"strings"

	"fsml/internal/core"
	"fsml/internal/sched"
	"fsml/internal/shadow"
	"fsml/internal/suite"
)

// ---------------------------------------------------------------------------
// Table 10 — verification of detections against the shadow tool

// VerifyRow is one program's verification tally.
type VerifyRow struct {
	Name  string
	Suite string
	Cases int
	// ActualFS counts cases where the shadow tool's criterion says false
	// sharing is present; DetectedFS counts cases our classifier labeled
	// bad-fs.
	ActualFS   int
	DetectedFS int
	// TruePos / FalsePos break down the agreement.
	TruePos, FalsePos int
}

// Table10Result is the full verification sweep.
type Table10Result struct {
	Rows []VerifyRow
}

// Table10 runs every workload's verification grid (inputs x flags x
// T in {3,6} or {4,8}) through both the shadow tool (the "Actual"
// column) and the classifier (the "Detected" column). The sweep is
// flattened across all workloads before fanning out, so the engine keeps
// every worker busy even while the last cases of one program drain; the
// shared seed counter is replicated by the enumeration, making the
// parallel tallies bit-identical to the sequential ones.
func (l *Lab) Table10() (*Table10Result, error) {
	type verifyCase struct {
		w  suite.Workload
		cs suite.Case
	}
	var plan []verifyCase
	var rows []VerifyRow
	seed := l.Seed * 2087
	for _, w := range suite.All() {
		rows = append(rows, VerifyRow{Name: w.Name, Suite: w.Suite})
		inputs := l.inputsFor(w)
		if w.Name == "streamcluster" && !l.Quick {
			inputs = inputs[:3] // no native under 5x instrumentation
		}
		for _, in := range inputs {
			for _, opt := range flagsFor(w) {
				for _, th := range verifyThreadsFor(w) {
					seed++
					plan = append(plan, verifyCase{w: w, cs: suite.Case{
						Input: in.Name, Threads: th, Opt: opt, Seed: seed,
					}})
				}
			}
		}
	}

	det, err := l.Detector()
	if err != nil {
		return nil, err
	}
	c := l.Collector()
	type verdict struct {
		actual, detected bool
	}
	verdicts, err := sched.Map(l.ctx(), len(plan), l.schedOptions(),
		func(_ context.Context, i int) (verdict, error) {
			w, cs := plan[i].w, plan[i].cs
			rep, err := shadow.Run(l.machineConfig(cs.Seed), w.Build(cs))
			if err != nil {
				return verdict{}, err
			}
			cr, err := c.ClassifyCase(det, func() core.BatchCase { return suiteCase(w, cs) })
			if err != nil {
				return verdict{}, err
			}
			return verdict{actual: rep.Detected, detected: cr.Class == "bad-fs"}, nil
		})
	if err != nil {
		return nil, err
	}

	res := &Table10Result{Rows: rows}
	rowIdx := map[string]int{}
	for i, row := range res.Rows {
		rowIdx[row.Name] = i
	}
	for i, v := range verdicts {
		row := &res.Rows[rowIdx[plan[i].w.Name]]
		row.Cases++
		if v.actual {
			row.ActualFS++
		}
		if v.detected {
			row.DetectedFS++
			if v.actual {
				row.TruePos++
			} else {
				row.FalsePos++
			}
		}
	}
	return res, nil
}

// Totals sums the sweep.
func (r *Table10Result) Totals() VerifyRow {
	t := VerifyRow{Name: "Total"}
	for _, row := range r.Rows {
		t.Cases += row.Cases
		t.ActualFS += row.ActualFS
		t.DetectedFS += row.DetectedFS
		t.TruePos += row.TruePos
		t.FalsePos += row.FalsePos
	}
	return t
}

// String renders Table 10.
func (r *Table10Result) String() string {
	var b strings.Builder
	b.WriteString("Table 10: verification against the shadow tool (Actual = rate > 1e-3)\n")
	fmt.Fprintf(&b, "%-8s %-18s %7s %10s %10s\n", "suite", "program", "#cases", "actual FS", "detected FS")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s %-18s %7d %6d/%-4d %6d/%-4d\n",
			row.Suite, row.Name, row.Cases, row.ActualFS, row.Cases-row.ActualFS,
			row.DetectedFS, row.Cases-row.DetectedFS)
	}
	t := r.Totals()
	fmt.Fprintf(&b, "%-8s %-18s %7d %6d/%-4d %6d/%-4d\n", "", t.Name, t.Cases,
		t.ActualFS, t.Cases-t.ActualFS, t.DetectedFS, t.Cases-t.DetectedFS)
	return b.String()
}

// ---------------------------------------------------------------------------
// Table 11 — detection quality

// Table11Result is the 2x2 detection summary derived from Table 10.
type Table11Result struct {
	TP, FN, FP, TN int
}

// Table11 derives the detection-quality 2x2 matrix.
func Table11(t10 *Table10Result) Table11Result {
	var r Table11Result
	for _, row := range t10.Rows {
		r.TP += row.TruePos
		r.FP += row.FalsePos
		r.FN += row.ActualFS - row.TruePos
		r.TN += (row.Cases - row.ActualFS) - row.FalsePos
	}
	return r
}

// Correctness is (TP+TN)/all.
func (r Table11Result) Correctness() float64 {
	total := r.TP + r.FN + r.FP + r.TN
	if total == 0 {
		return 0
	}
	return float64(r.TP+r.TN) / float64(total)
}

// FalsePositiveRate is FP/(FP+TN).
func (r Table11Result) FalsePositiveRate() float64 {
	if r.FP+r.TN == 0 {
		return 0
	}
	return float64(r.FP) / float64(r.FP+r.TN)
}

// String renders Table 11.
func (r Table11Result) String() string {
	var b strings.Builder
	b.WriteString("Table 11: detection performance (FS = false sharing present)\n")
	b.WriteString("                    Detected FS   Detected NoFS\n")
	fmt.Fprintf(&b, "Actual FS    %10d %15d\n", r.TP, r.FN)
	fmt.Fprintf(&b, "Actual NoFS  %10d %15d\n", r.FP, r.TN)
	fmt.Fprintf(&b, "Correctness: (%d+%d)/%d = %.1f%%\n", r.TP, r.TN, r.TP+r.FN+r.FP+r.TN, 100*r.Correctness())
	fmt.Fprintf(&b, "False positive rate: %d/(%d+%d) = %.1f%%\n", r.FP, r.TN, r.FP, 100*r.FalsePositiveRate())
	b.WriteString("(paper: 97.8% correctness, 0% false positives)\n")
	return b.String()
}
