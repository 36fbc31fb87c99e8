package ensemble

import (
	"fmt"
	"sort"

	"fsml/internal/core"
	"fsml/internal/ml"
	"fsml/internal/pmu"
)

// PathologyScore is one entry of the ranked verdict.
type PathologyScore = core.PathologyScore

// Result is a multi-pathology classification: core.RobustResult with
// Pathologies ranked over every class the ensemble knows and
// MissingEvents naming the ensemble attributes the sample does not carry
// (e.g. the remote-DRAM counter in a legacy 15-feature vector), for
// which members degraded per-member.
type Result = core.RobustResult

// Features returns the widened attribute list the ensemble expects.
func (d *Detector) Features() []string { return d.Attrs }

// Classify labels one PMU sample with the ensemble's top-ranked class.
func (d *Detector) Classify(s pmu.Sample) (string, error) {
	r, err := d.ClassifyRobust(s)
	if err != nil {
		return "", err
	}
	return r.Class, nil
}

// ClassifyRobust runs every committee over the sample and aggregates
// the votes into a ranked verdict.
//
// Degradation is per-member, reusing the single detector's
// PredictPartial/FlagStarved semantics: an event that is flagged
// suspect, or absent from the sample's programming, becomes a missing
// value for the members whose feature subset consults it — those
// members blend split branches and vote with reduced confidence while
// unaffected members vote at full strength. A flagged instruction
// normalizer poisons every normalized feature, so all attributes go
// missing and every member falls back toward its training prior. A
// sample with no usable instruction count at all is an error.
func (d *Detector) ClassifyRobust(s pmu.Sample) (core.RobustResult, error) {
	if s.Instructions <= 0 {
		return core.RobustResult{}, fmt.Errorf("pmu: sample has no usable instruction count (normalizer read %g)", s.Instructions)
	}
	layout := make(map[string]int, len(s.Names))
	for i, n := range s.Names {
		layout[n] = i
	}
	suspects := s.SuspectEvents()
	suspect := make(map[string]bool, len(suspects))
	for _, n := range suspects {
		suspect[n] = true
	}
	instrBad := s.InstrFlag.Suspect()

	missingSet := map[string]bool{}
	for _, a := range d.Attrs {
		if _, ok := layout[a]; !ok {
			missingSet[a] = true
		}
	}

	res := core.RobustResult{Suspects: suspects}
	for a := range missingSet {
		res.MissingEvents = append(res.MissingEvents, a)
	}
	sort.Strings(res.MissingEvents)

	// Committee votes. opinion sums Weight*opinion and Weight per class.
	type agg struct{ num, den float64 }
	scores := make(map[string]*agg, len(d.Classes))
	for _, c := range d.Classes {
		scores[c] = &agg{}
	}
	for _, m := range d.Members {
		class, conf, degraded := predictMember(m.Tree, s, layout, suspect, instrBad)
		if degraded {
			res.Degraded = true
		}
		op := conf
		if class != m.Class {
			op = 1 - conf
		}
		a := scores[m.Class]
		a.num += m.Weight * op
		a.den += m.Weight
	}

	// Base member: the paper's 3-class tree votes over its own label
	// space; the confidence mass it withholds from its predicted class
	// is spread over its other labels.
	if d.Base != nil && d.Base.Tree != nil {
		class, conf, degraded := predictMember(d.Base.Tree, s, layout, suspect, instrBad)
		if degraded {
			res.Degraded = true
		}
		others := len(d.BaseClasses) - 1
		for _, c := range d.BaseClasses {
			a, ok := scores[c]
			if !ok {
				continue
			}
			op := conf
			if c != class {
				if others <= 0 {
					continue
				}
				op = (1 - conf) / float64(others)
			}
			a.num += d.BaseWeight * op
			a.den += d.BaseWeight
		}
	}

	res.Pathologies = make([]PathologyScore, 0, len(d.Classes))
	var total float64
	for _, c := range d.Classes {
		a := scores[c]
		score := 0.0
		if a.den > 0 {
			score = a.num / a.den
		}
		res.Pathologies = append(res.Pathologies, PathologyScore{Class: c, Score: score})
		total += score
	}
	if total > 0 {
		for i := range res.Pathologies {
			res.Pathologies[i].Score /= total
		}
	}
	sort.SliceStable(res.Pathologies, func(i, j int) bool {
		if res.Pathologies[i].Score != res.Pathologies[j].Score {
			return res.Pathologies[i].Score > res.Pathologies[j].Score
		}
		return res.Pathologies[i].Class < res.Pathologies[j].Class
	})
	if len(res.Pathologies) > 0 {
		res.Class = res.Pathologies[0].Class
		res.Confidence = res.Pathologies[0].Score
	}
	return res, nil
}

// predictMember projects the sample onto one member tree's attribute
// list and predicts, blending branches at attributes whose events are
// suspect or absent. It returns the predicted class, the member's
// confidence in it, and whether the prediction was degraded.
func predictMember(tree *ml.Tree, s pmu.Sample, layout map[string]int, suspect map[string]bool, instrBad bool) (string, float64, bool) {
	attrs := tree.Attrs
	fv := make([]float64, len(attrs))
	missing := make([]bool, len(attrs))
	any := false
	for i, a := range attrs {
		j, ok := layout[a]
		if ok {
			fv[i] = s.Counts[j] / s.Instructions
		}
		if instrBad || !ok || suspect[a] {
			missing[i] = true
			any = true
		}
	}
	if !any {
		return tree.Predict(fv), 1, false
	}
	class, conf := tree.PredictPartial(fv, missing)
	return class, conf, true
}
