package serve

// Tests of the serving layer's overload-resilience surface: admission
// control and shedding, the readiness probe, the shutdown gate, and the
// self-healing client. The chaos test (chaos_test.go) drives all of
// them at once; these pin each mechanism in isolation.

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fsml/internal/core"
	"fsml/internal/resilience"
)

// blockingTrainServer builds a server whose lazy trainer blocks until
// release is closed, so tests can hold a classify request (and its
// admission slot) in flight deterministically.
func blockingTrainServer(t *testing.T, cfg Config) (*Server, *Client, chan struct{}) {
	t.Helper()
	det := tinyDetector(t)
	release := make(chan struct{})
	cfg.Train = func(TrainSpec) (*core.Detector, error) {
		<-release
		return det, nil
	}
	s, client := newTestServer(t, cfg)
	return s, client, release
}

// TestAdmissionShedsWith429 saturates a 1-slot classify limiter and
// asserts the next request is shed: HTTP 429, a Retry-After hint, the
// shed counter bumped — and the admitted request still completes.
func TestAdmissionShedsWith429(t *testing.T) {
	s, client, release := blockingTrainServer(t, Config{MaxInflight: 1, ShedAfter: -1})
	first := make(chan error, 1)
	go func() {
		_, err := client.Classify(context.Background(), vectorRequest(2))
		first <- err
	}()
	// Wait until the first request holds the only admission slot.
	waitFor(t, func() bool { return s.limClassify.Saturated() })

	resp, err := http.Post(client.BaseURL+"/v1/classify", "application/json",
		strings.NewReader(`{"vector":[0.1,0.1]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit request status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After")
	}
	var body ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Error == "" {
		t.Errorf("429 body = (%+v, %v), want a JSON error", body, err)
	}
	if n := s.Metrics().Counter(mShedClassify); n != 1 {
		t.Errorf("%s = %d, want 1", mShedClassify, n)
	}

	// Readiness reflects the saturation while the slot is held.
	rr, err := client.Ready(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rr.Ready || !rr.Overloaded || rr.InflightClassify != 1 {
		t.Errorf("mid-saturation readyz = %+v, want overloaded/not-ready", rr)
	}

	close(release)
	if err := <-first; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
	waitFor(t, func() bool { return !s.limClassify.Saturated() })
	rr, err = client.Ready(context.Background())
	if err != nil || !rr.Ready {
		t.Fatalf("post-load readyz = (%+v, %v), want ready", rr, err)
	}
}

// TestShedWindowAbsorbsShortBursts gives the limiter a generous shed
// window: an over-limit request parks, the slot frees in time, and the
// request is served instead of shed.
func TestShedWindowAbsorbsShortBursts(t *testing.T) {
	s, client, release := blockingTrainServer(t, Config{MaxInflight: 1, ShedAfter: 10 * time.Second})
	first := make(chan error, 1)
	go func() {
		_, err := client.Classify(context.Background(), vectorRequest(2))
		first <- err
	}()
	waitFor(t, func() bool { return s.limClassify.Saturated() })
	second := make(chan error, 1)
	go func() {
		_, err := client.Classify(context.Background(), vectorRequest(1))
		second <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the second request park in the window
	close(release)
	if err := <-first; err != nil {
		t.Fatalf("first request: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("parked request should be admitted when the slot frees, got %v", err)
	}
	if n := s.Metrics().Counter(mShedClassify); n != 0 {
		t.Errorf("%s = %d, want 0 (the window absorbed the burst)", mShedClassify, n)
	}
}

// TestShutdownDrainsAdmittedRejectsNew is the shutdown/overload
// regression test: a request already admitted completes during the
// Shutdown drain, while a request arriving after shutdown begins is
// rejected with 503 — not queued — and the rejection is counted.
func TestShutdownDrainsAdmittedRejectsNew(t *testing.T) {
	s, client, release := blockingTrainServer(t, Config{})
	admitted := make(chan error, 1)
	var admittedResp *ClassifyResponse
	go func() {
		resp, err := client.Classify(context.Background(), ClassifyRequest{
			Events: []string{attrHITM, attrMiss},
			Vector: []float64{0.55, 0.05},
		})
		admittedResp = resp
		admitted <- err
	}()
	// The handler is admitted once it holds an inflight ref (it is
	// blocked inside lazy training).
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.inflight == 1
	})

	shutdownErr := make(chan error, 1)
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	go func() { shutdownErr <- s.Shutdown(sctx) }()
	waitFor(t, func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.shutting
	})

	// Late request: rejected at the gate, not queued behind the drain.
	if _, err := client.Classify(context.Background(), vectorRequest(1)); err == nil {
		t.Fatal("request after shutdown began should be rejected")
	} else {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
			t.Fatalf("late request error = %v, want 503", err)
		}
	}
	if n := s.Metrics().Counter(mRejectShutdown); n != 1 {
		t.Errorf("%s = %d, want 1", mRejectShutdown, n)
	}
	// Readiness tells the balancer why.
	if rr, err := client.Ready(context.Background()); err != nil || rr.Ready || !rr.ShuttingDown {
		t.Errorf("mid-shutdown readyz = (%+v, %v), want shutting_down/not-ready", rr, err)
	}

	// The admitted request is still in flight; Shutdown must be waiting.
	select {
	case err := <-shutdownErr:
		t.Fatalf("Shutdown returned %v before the admitted request finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-admitted; err != nil {
		t.Fatalf("admitted request failed during drain: %v", err)
	}
	if admittedResp == nil || admittedResp.Class != "bad-fs" {
		t.Errorf("admitted verdict = %+v, want bad-fs", admittedResp)
	}
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown = %v, want clean drain", err)
	}
}

// waitFor polls cond (10s budget) so tests synchronize on server state
// without fixed sleeps.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAtomicPersistInvisibleToDiskKeys pins the crash-safety contract
// of registry persistence: a successful persist leaves no temp file
// behind, and neither in-progress temp files nor quarantined corpses
// ever surface as warm-startable keys.
func TestAtomicPersistInvisibleToDiskKeys(t *testing.T) {
	det := tinyDetector(t)
	dir := t.TempDir()
	reg := NewRegistry(RegistryConfig{
		Dir:     dir,
		Metrics: NewMetrics(),
		Train:   func(TrainSpec) (*core.Detector, error) { return det, nil },
	})
	key := TrainSpec{Quick: true, Seed: 1}.Key()
	if _, _, err := reg.Get(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(leftovers) != 0 {
		t.Fatalf("persist left temp files behind: %v", leftovers)
	}
	// Plant the artifacts a crash mid-write / a quarantine would leave.
	for _, name := range []string{"train-quick-seed-9.json.tmp-123", "train-quick-seed-9.corrupt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if keys := reg.DiskKeys(); len(keys) != 1 || keys[0] != key {
		t.Fatalf("DiskKeys = %v, want just %q (artifacts must stay invisible)", keys, key)
	}
}

// ---------------------------------------------------------------------------
// Client retry

// okClassifyBody is a minimal valid classify response for stub servers.
const okClassifyBody = `{"class":"good","confidence":1,"degraded":false,"detector":"stub"}`

// shedNTimes builds a stub endpoint that fails the first n requests
// with the given status (and optional Retry-After) and then succeeds.
func shedNTimes(n int, status int, retryAfter string) (http.HandlerFunc, *atomic.Int64) {
	var calls atomic.Int64
	return func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(n) {
			if retryAfter != "" {
				w.Header().Set("Retry-After", retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_ = json.NewEncoder(w).Encode(ErrorResponse{Error: "stub rejection"})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(okClassifyBody))
	}, &calls
}

// retryClient wires a seeded, sleepless retry policy that records the
// delays it would have slept.
func retryClient(base string, max int, seed uint64) (*Client, *[]time.Duration) {
	delays := &[]time.Duration{}
	c := NewClient(base)
	c.Retry = RetryPolicy{
		Max:     max,
		Backoff: resilience.Backoff{Seed: seed},
		Sleep: func(_ context.Context, d time.Duration) error {
			*delays = append(*delays, d)
			return nil
		},
	}
	return c, delays
}

// TestClientRetriesShedsDeterministically pins the self-healing loop:
// a POST shed with 429 is retried until it succeeds, and the backoff
// schedule is exactly the seed's deterministic schedule — byte-for-byte
// reproducible across clients.
func TestClientRetriesShedsDeterministically(t *testing.T) {
	handler, calls := shedNTimes(3, http.StatusTooManyRequests, "")
	hs := httptest.NewServer(handler)
	defer hs.Close()

	run := func() []time.Duration {
		calls.Store(0)
		c, delays := retryClient(hs.URL, 5, 11)
		resp, err := c.Classify(context.Background(), ClassifyRequest{Vector: []float64{1}})
		if err != nil {
			t.Fatalf("retried classify = %v, want success", err)
		}
		if resp.Class != "good" {
			t.Fatalf("classify = %+v", resp)
		}
		if calls.Load() != 4 {
			t.Fatalf("attempts = %d, want 4 (3 sheds + success)", calls.Load())
		}
		return *delays
	}
	first := run()
	second := run()
	want := (resilience.Backoff{Seed: 11}).Schedule(3)
	for i := range want {
		if first[i] != want[i] {
			t.Errorf("delay %d = %v, want schedule value %v", i, first[i], want[i])
		}
		if first[i] != second[i] {
			t.Errorf("delay %d not reproducible: %v vs %v", i, first[i], second[i])
		}
	}
	if len(first) != 3 || len(second) != 3 {
		t.Fatalf("delays = %v / %v, want 3 each", first, second)
	}
}

// TestParseRetryAfterForms pins both RFC 9110 §10.2.3 forms of the
// header: delay-seconds and HTTP-date (all three date layouts
// http.ParseTime accepts). This server only ever emits delay-seconds,
// but proxies and load balancers in front of it rewrite the header
// into the date form, which the client used to ignore — silently
// dropping the server's wait hint.
func TestParseRetryAfterForms(t *testing.T) {
	now := time.Date(2026, time.August, 8, 9, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"0", 0},
		{"7", 7 * time.Second},
		{"-3", 0}, // negative delay: clamp, don't wait
		{"soon", 0},
		{"Sat, 08 Aug 2026 09:00:45 GMT", 45 * time.Second},    // IMF-fixdate
		{"Saturday, 08-Aug-26 09:01:30 GMT", 90 * time.Second}, // RFC 850
		{"Sat Aug  8 09:00:10 2026", 10 * time.Second},         // asctime
		{"Sat, 08 Aug 2026 08:59:00 GMT", 0},                   // past date: clamp
	} {
		if got := parseRetryAfter(tc.in, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// clientTransport is one client verb the retry matrix runs over: its
// HTTP method, the call, and how a stub server answers it — a success
// body, and a failure rendered the way the real server renders it on
// that endpoint.
type clientTransport struct {
	name   string
	method string
	call   func(ctx context.Context, c *Client) error
	ok     func(w http.ResponseWriter)
	fail   func(w http.ResponseWriter, status int)
}

// failJSON renders a failure as the JSON handlers and the admission
// middleware do.
func failJSON(w http.ResponseWriter, status int) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: "stub rejection"})
}

// clientTransports lists every verb behind the client's one retry
// loop, one per transport shape: a JSON body, a raw perf upload, a
// binary frame, and the two GETs (a JSON listing and the SSE dial).
var clientTransports = []clientTransport{
	{
		name: "Classify", method: http.MethodPost,
		call: func(ctx context.Context, c *Client) error {
			_, err := c.Classify(ctx, ClassifyRequest{Vector: []float64{1}})
			return err
		},
		ok:   func(w http.ResponseWriter) { _, _ = w.Write([]byte(okClassifyBody)) },
		fail: failJSON,
	},
	{
		name: "ClassifyPerf", method: http.MethodPost,
		call: func(ctx context.Context, c *Client) error {
			_, err := c.ClassifyPerf(ctx, "", []byte("1000 instructions\n"))
			return err
		},
		ok:   func(w http.ResponseWriter) { _, _ = w.Write([]byte(okClassifyBody)) },
		fail: failJSON,
	},
	{
		name: "ClassifyBinary", method: http.MethodPost,
		call: func(ctx context.Context, c *Client) error {
			_, err := c.ClassifyBinary(ctx, &BinClassifyRequest{Width: 1, Vecs: []float64{1}})
			return err
		},
		ok: func(w http.ResponseWriter) {
			out, _ := AppendBinResponse(nil, &BinClassifyResponse{Detector: "stub", Verdicts: []BinVerdict{{Class: "good", Confidence: 1}}})
			w.Header().Set("Content-Type", contentTypeBin)
			_, _ = w.Write(out)
		},
		// The frame handler renders its errors as binary error frames.
		fail: func(w http.ResponseWriter, status int) {
			w.Header().Set("Content-Type", contentTypeBin)
			w.WriteHeader(status)
			_, _ = w.Write(AppendBinError(nil, status, "stub rejection"))
		},
	},
	{
		name: "Detectors", method: http.MethodGet,
		call: func(ctx context.Context, c *Client) error {
			_, err := c.Detectors(ctx)
			return err
		},
		ok:   func(w http.ResponseWriter) { _, _ = w.Write([]byte(`{"detectors":[]}`)) },
		fail: failJSON,
	},
	{
		name: "Watch", method: http.MethodGet,
		call: func(ctx context.Context, c *Client) error {
			_, err := c.Watch(ctx, WatchQuery{}, nil)
			return err
		},
		ok: func(w http.ResponseWriter) {
			w.Header().Set("Content-Type", "text/event-stream")
			_, _ = w.Write([]byte("id: 0\nevent: done\ndata: {\"seq\":0,\"kind\":\"done\",\"summary\":{\"samples\":1}}\n\n"))
		},
		fail: failJSON,
	},
}

// TestClientRetrySafety pins the retry-only-when-safe matrix over every
// transport of the client's one retry loop. Shed (429) and shutdown or
// breaker (503) rejections are retried for every verb: the server did
// not process the request. Other 5xx and transport errors are retried
// only for GETs: a POST may have executed. A Retry-After hint, in
// either RFC 9110 form, is a floor on the wait. (The malformed base URL
// case runs over the same transports in
// TestClientBadBaseURLFailsFastWithoutRetries.)
func TestClientRetrySafety(t *testing.T) {
	const anyMethod = ""
	for _, tc := range []struct {
		name   string
		method string // the transports the case runs over
		status int    // 0 = connection refused
		hint   func() string
		retry  bool
	}{
		{name: "post 429 retried", method: http.MethodPost, status: http.StatusTooManyRequests, retry: true},
		{name: "post 503 retried", method: http.MethodPost, status: http.StatusServiceUnavailable, retry: true},
		{name: "post 500 not retried", method: http.MethodPost, status: http.StatusInternalServerError},
		{name: "post 502 not retried", method: http.MethodPost, status: http.StatusBadGateway},
		{name: "post transport error not retried", method: http.MethodPost},
		{name: "get 429 retried", method: http.MethodGet, status: http.StatusTooManyRequests, retry: true},
		{name: "get 503 retried", method: http.MethodGet, status: http.StatusServiceUnavailable, retry: true},
		{name: "get 500 not retried", method: http.MethodGet, status: http.StatusInternalServerError},
		{name: "get 502 retried", method: http.MethodGet, status: http.StatusBadGateway, retry: true},
		{name: "get transport error retried", method: http.MethodGet, retry: true},
		{name: "retry-after seconds are a floor", method: anyMethod, status: http.StatusTooManyRequests, retry: true,
			hint: func() string { return "3" }},
		{name: "retry-after date is a floor", method: anyMethod, status: http.StatusTooManyRequests, retry: true,
			hint: func() string { return time.Now().Add(5 * time.Second).UTC().Format(http.TimeFormat) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, tr := range clientTransports {
				if tc.method != anyMethod && tc.method != tr.method {
					continue
				}
				t.Run(tr.name, func(t *testing.T) {
					const fails = 2
					var calls atomic.Int64
					var hint string
					if tc.hint != nil {
						hint = tc.hint()
					}
					hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
						if calls.Add(1) > fails {
							tr.ok(w)
							return
						}
						if hint != "" {
							w.Header().Set("Retry-After", hint)
						}
						tr.fail(w, tc.status)
					}))
					defer hs.Close()
					if tc.status == 0 {
						hs.Close() // connection refused from here on
					}
					c, delays := retryClient(hs.URL, 5, 1)
					err := tr.call(context.Background(), c)
					switch {
					case tc.retry && tc.status != 0:
						if err != nil || calls.Load() != fails+1 || len(*delays) != fails {
							t.Fatalf("err=%v attempts=%d delays=%v, want success after %d retries", err, calls.Load(), *delays, fails)
						}
					case tc.retry:
						if err == nil || len(*delays) != 5 {
							t.Fatalf("err=%v delays=%v, want a transport error after 5 retries", err, *delays)
						}
					case tc.status != 0:
						var apiErr *APIError
						if !errors.As(err, &apiErr) || apiErr.Status != tc.status || apiErr.Message != "stub rejection" {
							t.Fatalf("err = %v, want APIError %d \"stub rejection\"", err, tc.status)
						}
						if calls.Load() != 1 || len(*delays) != 0 {
							t.Fatalf("attempts=%d delays=%v, want exactly one attempt", calls.Load(), *delays)
						}
					default:
						if err == nil || len(*delays) != 0 {
							t.Fatalf("err=%v delays=%v, want a transport error and no retries", err, *delays)
						}
					}
					if tc.hint != nil {
						// The seeded backoff's delays are sub-second; a date
						// hint loses up to a second to header truncation.
						for _, d := range *delays {
							if d < 3*time.Second {
								t.Fatalf("delays = %v, want every wait >= the Retry-After hint", *delays)
							}
						}
					}
				})
			}
		})
	}
}

// TestClientSleepHonorsContext bounds a retry wait by the caller's ctx.
func TestClientSleepHonorsContext(t *testing.T) {
	handler, _ := shedNTimes(99, http.StatusTooManyRequests, "30")
	hs := httptest.NewServer(handler)
	defer hs.Close()
	c := NewClient(hs.URL)
	c.Retry = RetryPolicy{Max: 3} // real sleep, but ctx cuts it short
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Classify(ctx, ClassifyRequest{Vector: []float64{1}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded from the retry sleep", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("ctx-bounded retry took %v", elapsed)
	}
}
