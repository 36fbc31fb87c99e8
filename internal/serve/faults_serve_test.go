package serve

// Tests of a server configured with counter faults. Trace replays and
// watch sessions measure through the server's one collector, whose fault
// posture follows its injector: re-seeded retries for unusable samples,
// degraded verdicts for flagged reads, and a server-side failure when no
// attempt yields a usable sample.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"fsml/internal/core"
	"fsml/internal/faults"
	"fsml/internal/machine"
	"fsml/internal/stream"
	"fsml/internal/trace"
)

// faultedServeConfig sticks counters at zero at a rate that flags some
// read of almost every replay; for the watch sessions below (seed 5) it
// sticks SNOOP_RESPONSE.HITM, which the tiny detector consults.
var faultedServeConfig = faults.Config{Rate: 0.3, Seed: 4, Kinds: []faults.Kind{faults.StuckZero}}

// pingPongTrace is a small two-thread trace whose threads store to
// neighboring words of one cache line.
func pingPongTrace() []byte {
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "T0 S 0x1000 x8\nT0 E 40\nT1 S 0x1008 x8\nT1 E 40\n")
	}
	return []byte(sb.String())
}

// wantTraceVerdict measures a trace the way a faulted server must —
// MeasureRetry on a collector with the same injector, then
// ClassifyRobust — and returns the verdict with its attempt count.
func wantTraceVerdict(t *testing.T, det *core.Detector, fc faults.Config, raw []byte, seed uint64) (core.RobustResult, core.Observation, int) {
	t.Helper()
	tr, err := trace.Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	col := core.NewCollector()
	col.Faults = faults.New(fc)
	obs, attempts, err := col.MeasureRetry(fmt.Sprintf("serve/trace/seed=%d", seed), seed, func() ([]machine.Kernel, error) {
		return tr.Kernels(), nil
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	rr, err := det.ClassifyRobust(obs.Sample)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return rr, obs, attempts
}

// TestFaultedTraceVerdictMatchesCollector pins that a faulted server's
// trace verdict is exactly MeasureRetry plus ClassifyRobust on the same
// seed, and that the faults actually reach the verdicts.
func TestFaultedTraceVerdictMatchesCollector(t *testing.T) {
	det := tinyDetector(t)
	_, client := newTestServer(t, Config{
		Faults: faultedServeConfig,
		Train:  func(TrainSpec) (*core.Detector, error) { return det, nil },
	})
	raw := pingPongTrace()
	affected := 0
	for seed := uint64(1); seed <= 8; seed++ {
		want, obs, attempts := wantTraceVerdict(t, det, faultedServeConfig, raw, seed)
		if want.Degraded || len(want.Suspects) > 0 || attempts > 1 {
			affected++
		}
		resp, err := client.Classify(context.Background(), ClassifyRequest{Trace: raw, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if resp.Class != want.Class || resp.Confidence != want.Confidence || resp.Degraded != want.Degraded ||
			strings.Join(resp.Suspects, ",") != strings.Join(want.Suspects, ",") || resp.Seconds != obs.Seconds {
			t.Errorf("seed %d: wire verdict %+v != collector %+v (%v s)", seed, resp, want, obs.Seconds)
		}
	}
	if affected == 0 {
		t.Error("no replay was retried or flagged: the server's faults never reached a verdict")
	}
}

// TestTotalCounterLossReplayIs500 pins that a replay whose every
// attempt reads a stuck instruction counter is the server's failure
// (500), not a client error.
func TestTotalCounterLossReplayIs500(t *testing.T) {
	_, client := newTestServer(t, Config{
		Faults: faults.Config{Rate: 1, Seed: 3, Kinds: []faults.Kind{faults.StuckZero}},
	})
	_, err := client.Classify(context.Background(), ClassifyRequest{Trace: pingPongTrace(), Seed: 1})
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want a 500 APIError", err)
	}
	if !strings.Contains(apiErr.Message, core.ErrUnusableSample.Error()) {
		t.Errorf("error %q does not name the unusable sample", apiErr.Message)
	}
}

// faultedWatch runs one complete watch session and returns its events.
func faultedWatch(c *Client) ([]stream.Event, *stream.Summary, error) {
	var events []stream.Event
	sum, err := c.Watch(context.Background(), WatchQuery{Spec: "4:4:3", Seed: 5, Iters: 4000, Buf: 4096},
		func(ev stream.Event) error {
			events = append(events, ev)
			return nil
		})
	return events, sum, err
}

// TestFaultedWatchReachesDone pins that a watch session on a faulted
// server streams to its terminal done event, with the faults visible as
// degraded windows.
func TestFaultedWatchReachesDone(t *testing.T) {
	_, c := newTestServer(t, Config{Faults: faultedServeConfig})
	events, sum, err := faultedWatch(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[len(events)-1].Kind != stream.KindDone {
		t.Fatalf("session of %d events did not end with done", len(events))
	}
	if sum == nil || sum.Truncated || sum.Windows == 0 {
		t.Fatalf("summary %+v, want a complete session with windows", sum)
	}
	degraded := 0
	for _, ev := range events {
		if ev.Kind == stream.KindWindow && ev.Window.Degraded {
			degraded++
		}
	}
	if degraded == 0 {
		t.Error("no degraded window: the server's faults never reached the session")
	}
}

// TestFaultedServerConcurrentReplaysAndWatch drives the server's shared
// collector from several handler goroutines at once — faulted trace
// replays beside a watch session — and checks every verdict against the
// sequential collector. It is part of the -race leg.
func TestFaultedServerConcurrentReplaysAndWatch(t *testing.T) {
	det := tinyDetector(t)
	_, client := newTestServer(t, Config{
		Faults: faultedServeConfig,
		Train:  func(TrainSpec) (*core.Detector, error) { return det, nil },
	})
	raw := pingPongTrace()
	const replays = 6
	want := make([]core.RobustResult, replays)
	for i := range want {
		want[i], _, _ = wantTraceVerdict(t, det, faultedServeConfig, raw, uint64(i+1))
	}
	_, refSum, err := faultedWatch(client)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, replays+1)
	for i := 0; i < replays; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Classify(context.Background(), ClassifyRequest{Trace: raw, Seed: uint64(i + 1)})
			switch {
			case err != nil:
				errs <- err
			case resp.Class != want[i].Class || resp.Confidence != want[i].Confidence:
				errs <- fmt.Errorf("seed %d: concurrent verdict %s/%v != sequential %s/%v",
					i+1, resp.Class, resp.Confidence, want[i].Class, want[i].Confidence)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, sum, err := faultedWatch(client)
		switch {
		case err != nil:
			errs <- err
		case sum.Windows != refSum.Windows || sum.Classified != refSum.Classified:
			errs <- fmt.Errorf("concurrent watch summary %+v != sequential %+v", sum, refSum)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
