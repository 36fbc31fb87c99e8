package exps

import (
	"reflect"
	"strings"
	"testing"

	"fsml/internal/faults"
	"fsml/internal/miniprog"
)

// TestFaultedRateSweepCompletes pins the fault posture of the shadow-
// tool sweeps: under heavy counter faults Table 7 measures every cell
// through the collector's retry-and-classify step, so a case whose
// counters stay unusable renders with a blank class instead of aborting
// the table.
func TestFaultedRateSweepCompletes(t *testing.T) {
	l := NewQuickLab()
	l.Faults = faults.Config{Rate: 0.5, Seed: 3}
	r, err := l.Table7()
	if err != nil {
		t.Fatalf("faulted Table 7 aborted: %v", err)
	}
	valid := map[string]bool{"": true, "good": true, "bad-fs": true, "bad-ma": true}
	cells := 0
	for _, in := range r.Inputs {
		for _, opt := range r.Flags {
			for _, th := range r.Threads {
				if c := r.Cells[in][opt][th]; !valid[c.Class] {
					t.Errorf("%s %s T=%d: class %q", in, opt, th, c.Class)
				}
				cells++
			}
		}
	}
	if cells != len(r.Inputs)*len(r.Flags)*len(r.Threads) || cells == 0 {
		t.Errorf("faulted Table 7 has %d cells", cells)
	}
}

// TestFaultMatrixShape asserts the experiment's defining shape on the
// quick grids: the clean row classifies everything at full confidence,
// and the heavily faulted row shows the degradation machinery actually
// firing (degraded or retried or failed cases) without losing the grid.
func TestFaultMatrixShape(t *testing.T) {
	r, err := quickLab(t).FaultMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(faultMatrixRates()) {
		t.Fatalf("got %d rows, want %d", len(r.Rows), len(faultMatrixRates()))
	}

	clean := r.Rows[0]
	if clean.Rate != 0 {
		t.Fatalf("first row rate = %g, want 0", clean.Rate)
	}
	if clean.Cases == 0 || clean.Answered != clean.Cases {
		t.Errorf("clean row lost cases: %+v", clean)
	}
	if clean.Degraded != 0 || clean.Retried != 0 || clean.Failed != 0 {
		t.Errorf("clean row shows fault machinery: %+v", clean)
	}
	if clean.Accuracy < 0.9 {
		t.Errorf("clean accuracy %.2f too low — detector or grid broken", clean.Accuracy)
	}
	if clean.MeanConfidence != 1 {
		t.Errorf("clean mean confidence = %v, want 1", clean.MeanConfidence)
	}

	worst := r.Rows[len(r.Rows)-1]
	if worst.Cases != clean.Cases {
		t.Errorf("rate rows sweep different grids: %d vs %d cases", worst.Cases, clean.Cases)
	}
	if worst.Degraded+worst.Retried+worst.Failed == 0 {
		t.Errorf("rate %g injected nothing observable: %+v", worst.Rate, worst)
	}
	// Degraded cases can still reach confidence 1 when the blended
	// branches agree, so only the bounds are pinned.
	if worst.Answered > 0 && (worst.MeanConfidence <= 0 || worst.MeanConfidence > 1) {
		t.Errorf("faulted row confidence out of bounds: %+v", worst)
	}
	if worst.Answered == 0 {
		t.Errorf("rate %g lost every case despite retries: %+v", worst.Rate, worst)
	}

	out := r.String()
	for _, want := range []string{"Fault matrix", "rate", "accuracy", "0.35"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestFaultMatrixDeterministicAcrossParallelism pins the determinism
// contract: the whole matrix — fault draws included — is byte-identical
// whether cases run sequentially or across workers.
func TestFaultMatrixDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) *FaultMatrixResult {
		l := NewQuickLab()
		l.Parallelism = par
		r, err := l.FaultMatrix()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	seq, p4 := run(1), run(4)
	if !reflect.DeepEqual(seq, p4) {
		t.Errorf("fault matrix differs across parallelism:\nseq: %+v\npar: %+v", seq, p4)
	}
	if seq.String() != p4.String() {
		t.Errorf("render differs across parallelism")
	}
}

// TestFaultMatrixWideShape asserts the widened variant's defining shape:
// the grid exercises every mode of the widened label space (including
// the NUMA cases on the two-socket machine), the clean row classifies
// everything, and the heavily faulted row shows the fault machinery
// firing without losing the grid.
func TestFaultMatrixWideShape(t *testing.T) {
	l := quickLab(t)
	std, numa := l.faultMatrixWideSpecs()
	if len(numa) == 0 {
		t.Fatal("wide grid has no NUMA cases")
	}
	modes := map[string]bool{}
	for _, s := range append(append([]miniprog.Spec{}, std...), numa...) {
		modes[s.Mode.String()] = true
	}
	for _, m := range miniprog.AllModes() {
		if !modes[m.String()] {
			t.Errorf("wide grid never exercises mode %s", m)
		}
	}

	r, err := l.FaultMatrixWide()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Wide {
		t.Error("result not marked Wide")
	}
	if len(r.Rows) != len(faultMatrixRates()) {
		t.Fatalf("got %d rows, want %d", len(r.Rows), len(faultMatrixRates()))
	}

	clean := r.Rows[0]
	if clean.Rate != 0 {
		t.Fatalf("first row rate = %g, want 0", clean.Rate)
	}
	if want := len(std) + len(numa); clean.Cases != want {
		t.Errorf("clean row sweeps %d cases, want %d", clean.Cases, want)
	}
	if clean.Cases == 0 || clean.Answered != clean.Cases {
		t.Errorf("clean row lost cases: %+v", clean)
	}
	if clean.Retried != 0 || clean.Failed != 0 {
		t.Errorf("clean row shows fault machinery: %+v", clean)
	}
	if clean.Accuracy < 0.75 {
		t.Errorf("clean wide accuracy %.2f too low — ensemble or grid broken", clean.Accuracy)
	}
	// Ensemble confidences are normalized over the whole label space, so
	// unlike the 3-class matrix the clean mean sits strictly inside (0,1).
	if clean.MeanConfidence <= 0 || clean.MeanConfidence > 1 {
		t.Errorf("clean mean confidence out of bounds: %+v", clean)
	}

	worst := r.Rows[len(r.Rows)-1]
	if worst.Cases != clean.Cases {
		t.Errorf("rate rows sweep different grids: %d vs %d cases", worst.Cases, clean.Cases)
	}
	if worst.Degraded+worst.Retried+worst.Failed == 0 {
		t.Errorf("rate %g injected nothing observable: %+v", worst.Rate, worst)
	}
	if worst.Answered == 0 {
		t.Errorf("rate %g lost every case despite retries: %+v", worst.Rate, worst)
	}

	out := r.String()
	for _, want := range []string{"Fault matrix (wide)", "ensemble", "rate", "accuracy", "0.35"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestFaultMatrixWideDeterministicAcrossParallelism extends the
// determinism contract to the widened matrix: ensemble training and the
// two-machine sweep are byte-identical at any worker count.
func TestFaultMatrixWideDeterministicAcrossParallelism(t *testing.T) {
	run := func(par int) *FaultMatrixResult {
		l := NewQuickLab()
		l.Parallelism = par
		r, err := l.FaultMatrixWide()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	seq, p4 := run(1), run(4)
	if !reflect.DeepEqual(seq, p4) {
		t.Errorf("wide fault matrix differs across parallelism:\nseq: %+v\npar: %+v", seq, p4)
	}
	if seq.String() != p4.String() {
		t.Errorf("render differs across parallelism")
	}
}

// TestFaultedStabilityStudyCompletes pins the §4.3 study's fault
// posture: every repeat is measured and classified through the
// collector's retry-and-classify step, so heavy counter faults neither
// abort the study nor reach its histogram. A repeat whose counters stay
// unusable is left out of the histogram and the instruction summary.
func TestFaultedStabilityStudyCompletes(t *testing.T) {
	l := NewQuickLab()
	l.Faults = faults.Config{Rate: 0.5, Seed: 3}
	const repeats = 6
	for _, sc := range DefaultStabilityCases() {
		r, err := l.StabilityStudy(sc.Program, sc.Case, repeats)
		if err != nil {
			t.Fatalf("%s: faulted stability study aborted: %v", sc.Program, err)
		}
		if len(r.Runs) == 0 || len(r.Runs) > repeats {
			t.Fatalf("%s: %d answered repeats of %d", sc.Program, len(r.Runs), repeats)
		}
		answered := 0
		for class, n := range r.Histogram {
			if class == "" {
				t.Errorf("%s: histogram counts %d unclassified repeats", sc.Program, n)
			}
			if got := r.InstrByClass[class].N; got != n {
				t.Errorf("%s: %s summarizes %d runs, histogram has %d", sc.Program, class, got, n)
			}
			answered += n
		}
		if answered != len(r.Runs) {
			t.Errorf("%s: histogram holds %d repeats, runs %d", sc.Program, answered, len(r.Runs))
		}
		for _, run := range r.Runs {
			if run.Instructions == 0 {
				t.Errorf("%s: repeat seed %d carries no instruction count", sc.Program, run.Seed)
			}
		}
	}
}
