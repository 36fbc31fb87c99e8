package main

// Spans recorded in the benchmark's own code around each call into
// fsml: CLI commands, server set-up steps, phases, every HTTP request
// (keyed by its X-FSML-Request-ID) and the probe's in-process layer
// calls. They are kept in memory and written as JSON lines at exit.

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
	ReqID  string `json:"request_id,omitempty"`
}

// tracer records spans when enabled; a disabled tracer costs a branch.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

// open starts a span and returns its id (0 when tracing is off).
func (t *tracer) open(name string, parent int) int {
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	return len(t.spans)
}

func (t *tracer) close(id int) {
	if t.on && id > 0 {
		t.spans[id-1].End = int64(time.Since(t.epoch))
	}
}

// add records a finished span with explicit times (offsets from the
// epoch), e.g. a request timed by the load generator.
func (t *tracer) add(name string, parent int, start, end time.Duration, reqID string) {
	if t.on {
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
			Start: int64(start), End: int64(end), ReqID: reqID})
	}
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
