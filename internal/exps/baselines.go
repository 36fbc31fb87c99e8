package exps

import (
	"context"
	"fmt"
	"strings"

	"fsml/internal/core"
	"fsml/internal/machine"
	"fsml/internal/sched"
	"fsml/internal/shadow"
	"fsml/internal/sheriff"
	"fsml/internal/suite"
)

// BaselineRow compares the three detection systems on one program:
// our classifier, the shadow-memory tool of [33] (the paper's oracle),
// and the SHERIFF-style detector of [21].
type BaselineRow struct {
	Name  string
	Suite string
	// Ours is the classifier's verdict for the probed case.
	Ours string
	// ShadowDetected / SheriffDetected are the tools' verdicts.
	ShadowDetected  bool
	ShadowRate      float64
	SheriffDetected bool
	SheriffLines    int
	// PaperClass is Table 5's verdict for reference.
	PaperClass string
}

// BaselineComparison probes every workload with all three systems at a
// fixed case (smallest input, 4 threads, the program's worst-case flag).
// The published comparison points it reproduces:
//   - all three agree on linear_regression and streamcluster (positive)
//     and on the plainly clean programs;
//   - SHERIFF over-reports word_count and reverse_index, whose false
//     sharing is real but insignificant (§4.1: fixing it bought 1% and
//     2.4%), while the shadow criterion and our classifier call them
//     clean.
func (l *Lab) BaselineComparison() ([]BaselineRow, error) {
	workloads := suite.All()
	det, err := l.Detector()
	if err != nil {
		return nil, err
	}
	c := l.Collector()
	// One batch case per workload; each runs its three independent tools
	// (classifier, shadow, SHERIFF-style) on its own machines.
	return sched.Map(l.ctx(), len(workloads), l.schedOptions(),
		func(_ context.Context, i int) (BaselineRow, error) {
			w := workloads[i]
			opt := machine.O0
			if w.Suite == "parsec" {
				opt = machine.O2
			}
			cs := suite.Case{Input: w.Inputs[0].Name, Threads: 4, Opt: opt, Seed: l.Seed * 53}
			row := BaselineRow{Name: w.Name, Suite: w.Suite, PaperClass: w.PaperClass}

			cr, err := c.ClassifyCase(det, func() core.BatchCase { return suiteCase(w, cs) })
			if err != nil {
				return row, err
			}
			row.Ours = cr.Class

			shRep, err := shadow.Run(l.machineConfig(cs.Seed), w.Build(cs))
			if err != nil {
				return row, err
			}
			row.ShadowDetected = shRep.Detected
			row.ShadowRate = shRep.FSRate

			sfRep, err := sheriff.Run(l.machineConfig(cs.Seed), w.Build(cs))
			if err != nil {
				return row, err
			}
			row.SheriffDetected = sfRep.Detected
			row.SheriffLines = len(sfRep.Lines)
			return row, nil
		})
}

// RenderBaselineComparison formats the three-way comparison.
func RenderBaselineComparison(rows []BaselineRow) string {
	var b strings.Builder
	b.WriteString("Related-work comparison: classifier vs shadow tool [33] vs SHERIFF-style [21]\n")
	fmt.Fprintf(&b, "%-8s %-18s %-8s %-14s %-18s %s\n", "suite", "program", "ours", "shadow>1e-3", "sheriff", "paper")
	for _, r := range rows {
		shadowV := "no FS"
		if r.ShadowDetected {
			shadowV = "FS"
		}
		sheriffV := "no FS"
		if r.SheriffDetected {
			sheriffV = fmt.Sprintf("FS (%d lines)", r.SheriffLines)
		}
		fmt.Fprintf(&b, "%-8s %-18s %-8s %-14s %-18s %s\n", r.Suite, r.Name, r.Ours, shadowV, sheriffV, r.PaperClass)
	}
	b.WriteString("(SHERIFF-style over-reporting on word_count/reverse_index mirrors §4.1)\n")
	return b.String()
}
