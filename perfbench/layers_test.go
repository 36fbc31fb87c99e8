package main

import "testing"

// TestServeLayersWithoutBatchQueue checks the split of server request
// time when the server no longer exports the fsml_batch_* series: the
// queue wait is a measured 0, the rest is request minus classify time,
// and only the batch size is absent.
func TestServeLayersWithoutBatchQueue(t *testing.T) {
	before := scrape{
		"fsml_request_seconds_sum": 1, "fsml_request_seconds_count": 100,
		"fsml_stage_classify_seconds_sum": 0.1, "fsml_stage_classify_seconds_count": 100,
	}
	after := scrape{
		"fsml_request_seconds_sum": 1.4, "fsml_request_seconds_count": 300,
		"fsml_stage_classify_seconds_sum": 0.12, "fsml_stage_classify_seconds_count": 300,
	}
	st := &runState{layer: map[string]float64{}, desc: map[string]any{}}
	st.serveLayers([]*phase{{before: before, after: after}}, []*booted{{first: before, last: after}})

	want := map[string]float64{
		"serve.request_us":        2000, // 0.4 s over 200 requests
		"serve.queue_wait_share":  0,
		"serve.classify_stage_us": 100,
		"serve.other_us":          1900,
	}
	for name, v := range want {
		got, ok := st.layer[name]
		if !ok || got < v-1e-6 || got > v+1e-6 {
			t.Errorf("%s = %v (present %v), want %v", name, got, ok, v)
		}
	}
	absent := map[string]bool{}
	for _, name := range st.absent {
		absent[name] = true
	}
	if !absent["serve.batch_size_mean"] {
		t.Error("serve.batch_size_mean should be absent without fsml_batch_size")
	}
	for name := range want {
		if absent[name] {
			t.Errorf("%s reported absent", name)
		}
	}

	// With the batch series present, their queue wait is used.
	before["fsml_batch_queue_seconds_sum"], before["fsml_batch_queue_seconds_count"] = 0, 0
	after["fsml_batch_queue_seconds_sum"], after["fsml_batch_queue_seconds_count"] = 0.3, 200
	st = &runState{layer: map[string]float64{}, desc: map[string]any{}}
	st.serveLayers([]*phase{{before: before, after: after}}, []*booted{{first: before, last: after}})
	if got := st.layer["serve.queue_wait_share"]; got < 0.75-1e-9 || got > 0.75+1e-9 {
		t.Errorf("queue_wait_share = %v, want 0.75", got)
	}
	if got := st.layer["serve.other_us"]; got < 400-1e-6 || got > 400+1e-6 {
		t.Errorf("other_us = %v, want 400", got)
	}
}
