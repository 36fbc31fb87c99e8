package trace

import (
	"bytes"
	"testing"

	"fsml/internal/machine"
	"fsml/internal/trace/tracetest"
)

// BenchmarkTraceParse parses the canonical benchmark's six gzipped
// 20k-record heavy traces, gunzip included: one op is all six.
func BenchmarkTraceParse(b *testing.B) {
	set := tracetest.HeavySet(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, gz := range set {
			if _, err := Parse(bytes.NewReader(gz)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(set)*tracetest.HeavyRecords), "ns/record")
}

// BenchmarkTraceReplay replays the six heavy traces the way a served
// trace classify does — a fresh monitored default machine per replay —
// so machine construction is part of the cost. One op is all six.
func BenchmarkTraceReplay(b *testing.B) {
	var traces []*Trace
	for _, gz := range tracetest.HeavySet(1) {
		tr, err := Parse(bytes.NewReader(gz))
		if err != nil {
			b.Fatal(err)
		}
		traces = append(traces, tr)
	}
	cfg := machine.DefaultConfig()
	cfg.Monitor = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tr := range traces {
			machine.New(cfg).Run(tr.Kernels())
		}
	}
}
