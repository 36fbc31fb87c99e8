package main

// Output checks. A request whose answer is wrong counts as a failed
// operation inside ok_ratio; it never aborts the run.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
)

// classifyAnswer is the part of a JSON classify response the checks
// compare.
type classifyAnswer struct {
	Class       string          `json:"class"`
	Confidence  float64         `json:"confidence"`
	Degraded    bool            `json:"degraded"`
	Seconds     float64         `json:"seconds"`
	PerfFormat  string          `json:"perf_format"`
	Pathologies json.RawMessage `json:"pathologies"`
}

// checker remembers the first answer to every ensemble and heavy
// payload, which later answers to the same payload must equal.
type checker struct {
	first map[*payload][]byte
	// failures keeps the first few mismatch descriptions for the run
	// description; mismatches counts them all.
	failures   []string
	mismatches int
}

func newChecker() *checker { return &checker{first: map[*payload][]byte{}} }

func (c *checker) fail(s *shot, format string, args ...any) {
	c.note(fmt.Sprintf("%s %s: ", kindNames[s.p.kind], s.id) + fmt.Sprintf(format, args...))
}

// note records one mismatch.
func (c *checker) note(msg string) {
	c.mismatches++
	if len(c.failures) < 8 {
		c.failures = append(c.failures, msg)
	}
}

// check verifies one answered request and reports whether it passed.
func (c *checker) check(s *shot) bool {
	before := c.mismatches
	switch {
	case s.err != nil:
		c.fail(s, "transport: %v", s.err)
	case s.status != http.StatusOK:
		c.fail(s, "status %d: %.200s", s.status, s.body)
	case s.p.kind == kindFrame:
		c.checkFrame(s)
	default:
		c.checkJSON(s)
	}
	return c.mismatches == before
}

func (c *checker) checkFrame(s *shot) {
	verdicts, err := decodeVerdictFrame(s.body)
	if err != nil {
		c.fail(s, "%v", err)
		return
	}
	if len(verdicts) != len(s.p.want) {
		c.fail(s, "%d verdicts for %d vectors", len(verdicts), len(s.p.want))
		return
	}
	for i, v := range verdicts {
		if v.class != s.p.want[i] || v.confidence != 1 || v.degraded {
			c.fail(s, "vector %d: got %s (confidence %g, degraded %v), oracle says %s",
				i, v.class, v.confidence, v.degraded, s.p.want[i])
			return
		}
	}
}

func (c *checker) checkJSON(s *shot) {
	var a classifyAnswer
	if err := json.Unmarshal(s.body, &a); err != nil {
		c.fail(s, "decoding answer: %v", err)
		return
	}
	switch s.p.kind {
	case kindVector:
		if a.Class != s.p.want[0] || a.Confidence != 1 || a.Degraded {
			c.fail(s, "got %s (confidence %g, degraded %v), oracle says %s", a.Class, a.Confidence, a.Degraded, s.p.want[0])
		}
	case kindPerf:
		e := s.p.perf
		if a.Class != e.Class || a.Confidence != e.Confidence || a.Degraded != e.Degraded || a.PerfFormat != e.Format {
			c.fail(s, "%s: got %s/%g/%v/%s, golden %s/%g/%v/%s", e.Fixture,
				a.Class, a.Confidence, a.Degraded, a.PerfFormat, e.Class, e.Confidence, e.Degraded, e.Format)
		}
	case kindEnsemble, kindHeavy:
		if a.Class == "" || (s.p.kind == kindEnsemble && len(a.Pathologies) == 0) {
			c.fail(s, "incomplete answer: %.200s", s.body)
			return
		}
		key, _ := json.Marshal(a)
		if prev, ok := c.first[s.p]; !ok {
			c.first[s.p] = key
		} else if !bytes.Equal(prev, key) {
			c.fail(s, "answer %s differs from the first answer to the same payload %s", key, prev)
		}
	}
}
