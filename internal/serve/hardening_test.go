package serve

// Tests of the client/server hardening surface the fleet layer leans
// on: base-URL normalization and its typed no-retry error, request-ID
// echo (including across a shed-then-retry), error-path logging, the
// /healthz version field, binary-frame key peeking, and content keying
// of raw model bytes.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestNormalizeBaseURL pins the normalization table: trailing slashes
// are stripped, and anything that cannot form request URLs fails with
// the typed *BaseURLError.
func TestNormalizeBaseURL(t *testing.T) {
	good := []struct{ in, want string }{
		{"http://127.0.0.1:8723", "http://127.0.0.1:8723"},
		{"http://127.0.0.1:8723/", "http://127.0.0.1:8723"},
		{"https://fleet.example/", "https://fleet.example"},
		{"http://h:1///", "http://h:1"},
	}
	for _, tc := range good {
		got, err := NormalizeBaseURL(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("NormalizeBaseURL(%q) = (%q, %v), want %q", tc.in, got, err, tc.want)
		}
	}
	bad := []string{
		"",                     // empty
		"127.0.0.1:8723",       // scheme-less (the classic paste error)
		"ftp://127.0.0.1:8723", // wrong scheme
		"http://",              // no host
		"/v1",                  // bare path
	}
	for _, in := range bad {
		_, err := NormalizeBaseURL(in)
		var buErr *BaseURLError
		if !errors.As(err, &buErr) {
			t.Errorf("NormalizeBaseURL(%q) = %v, want a *BaseURLError", in, err)
			continue
		}
		if buErr.BaseURL != in || buErr.Reason == "" {
			t.Errorf("NormalizeBaseURL(%q) error = %+v, want the input and a reason", in, buErr)
		}
	}
}

// TestClientBadBaseURLFailsFastWithoutRetries pins that a misconfigured
// client reports the typed error on the first call of every transport
// and the retry loop does not spin on it — the config cannot heal
// between attempts.
func TestClientBadBaseURLFailsFastWithoutRetries(t *testing.T) {
	for _, tr := range clientTransports {
		c, delays := retryClient("127.0.0.1:8723", 5, 1)
		err := tr.call(context.Background(), c)
		var buErr *BaseURLError
		if !errors.As(err, &buErr) {
			t.Fatalf("%s error = %v, want a *BaseURLError", tr.name, err)
		}
		if len(*delays) != 0 {
			t.Errorf("%s: retry loop slept %v on a config error", tr.name, *delays)
		}
	}
}

// TestClientTrailingSlashBaseURL pins the struct-literal escape hatch:
// a BaseURL pasted with a trailing slash still forms "/v1/..." (not
// "//v1/...") because the client normalizes per request.
func TestClientTrailingSlashBaseURL(t *testing.T) {
	_, raw := newTestServer(t, Config{})
	c := &Client{BaseURL: raw.BaseURL + "/"}
	resp, err := c.Health(context.Background())
	if err != nil {
		t.Fatalf("health with trailing-slash base URL: %v", err)
	}
	if resp.Status != "ok" {
		t.Errorf("health status = %q", resp.Status)
	}
	if target, err := c.endpoint("/healthz"); err != nil || strings.Contains(strings.TrimPrefix(target, "http://"), "//") {
		t.Errorf("endpoint = (%q, %v), want single-slash path", target, err)
	}
}

// TestRequestIDEchoAndErrorLogging pins satellite 2's server half: the
// request ID comes back on success, shed, and error responses, and the
// error path logs it.
func TestRequestIDEchoAndErrorLogging(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	_, client := newTestServer(t, Config{Logf: logf})

	const id = "req-abc-123"
	req, err := http.NewRequest(http.MethodPost, client.BaseURL+"/v1/classify",
		strings.NewReader(`{not json`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(RequestIDHeader, id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-body status = %d, want 400", resp.StatusCode)
	}
	if got := resp.Header.Get(RequestIDHeader); got != id {
		t.Errorf("error response echoes %q, want %q", got, id)
	}
	mu.Lock()
	joined := strings.Join(lines, "\n")
	mu.Unlock()
	if !strings.Contains(joined, id) || !strings.Contains(joined, "400") {
		t.Errorf("error log %q does not carry the request ID and status", joined)
	}

	// Success path: echoed too, nothing logged about it.
	req, err = http.NewRequest(http.MethodGet, client.BaseURL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, id)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != id {
		t.Errorf("success response echoes %q, want %q", got, id)
	}
}

// TestRequestIDSurvivesShedAndRetry holds the single admission slot,
// sends an identified request that gets shed (429 carrying the same
// ID, and a shed log line naming it), then retries after release and
// gets the ID back on the 200.
func TestRequestIDSurvivesShedAndRetry(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	s, client, release := blockingTrainServer(t, Config{MaxInflight: 1, ShedAfter: -1, Logf: logf})
	first := make(chan error, 1)
	go func() {
		_, err := client.Classify(context.Background(), vectorRequest(2))
		first <- err
	}()
	waitFor(t, func() bool { return s.limClassify.Saturated() })

	const id = "retry-me-42"
	send := func() *http.Response {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, client.BaseURL+"/v1/classify",
			strings.NewReader(`{"vector":[0.55,0.05],"events":["`+attrHITM+`","`+attrMiss+`"]}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(RequestIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	shed := send()
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated status = %d, want 429", shed.StatusCode)
	}
	if got := shed.Header.Get(RequestIDHeader); got != id {
		t.Errorf("shed response echoes %q, want %q", got, id)
	}
	mu.Lock()
	joined := strings.Join(lines, "\n")
	mu.Unlock()
	if !strings.Contains(joined, id) {
		t.Errorf("shed log %q does not carry the request ID", joined)
	}

	close(release)
	if err := <-first; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
	ok := send()
	if ok.StatusCode != http.StatusOK {
		t.Fatalf("retried status = %d, want 200", ok.StatusCode)
	}
	if got := ok.Header.Get(RequestIDHeader); got != id {
		t.Errorf("retried response echoes %q, want the original %q", got, id)
	}
}

// TestHealthReportsVersion pins satellite 6: /healthz carries a build
// version for the fleet prober to compare across peers.
func TestHealthReportsVersion(t *testing.T) {
	_, client := newTestServer(t, Config{})
	h, err := client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if h.Version == "" {
		t.Error("healthz version is empty")
	}
	if h.Version != Version() {
		t.Errorf("healthz version = %q, want Version() = %q", h.Version, Version())
	}
}

// TestPeekBinDetector pins the coordinator's cheap routing peek against
// the full binary decoder.
func TestPeekBinDetector(t *testing.T) {
	frame, err := AppendBinRequest(nil, &BinClassifyRequest{
		Detector: "sha256:cafef00dcafef00d",
		Events:   []string{attrHITM, attrMiss},
		Width:    2,
		Vecs:     []float64{0.5, 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	key, err := PeekBinDetector(frame)
	if err != nil || key != "sha256:cafef00dcafef00d" {
		t.Errorf("PeekBinDetector = (%q, %v), want the frame's detector", key, err)
	}
	// Default-detector frames peek to "".
	frame, err = AppendBinRequest(nil, &BinClassifyRequest{Events: []string{attrHITM, attrMiss}, Width: 2, Vecs: []float64{0.5, 0.1}})
	if err != nil {
		t.Fatal(err)
	}
	key, err = PeekBinDetector(frame)
	if err != nil || key != "" {
		t.Errorf("PeekBinDetector(defaulted) = (%q, %v), want empty", key, err)
	}
	if _, err := PeekBinDetector([]byte("not a frame")); err == nil {
		t.Error("PeekBinDetector accepted garbage")
	}
}

// TestModelKey pins that keying raw model bytes matches the registry's
// content keying of the canonical encoding.
func TestModelKey(t *testing.T) {
	model, err := tinyDetector(t).Encode()
	if err != nil {
		t.Fatal(err)
	}
	key, err := ModelKey(model)
	if err != nil {
		t.Fatal(err)
	}
	if want := ContentKey(model); key != want {
		t.Errorf("ModelKey = %q, want ContentKey of the canonical encoding %q", key, want)
	}
	if !strings.HasPrefix(key, "sha256:") {
		t.Errorf("ModelKey = %q, want a sha256: content key", key)
	}
	if _, err := ModelKey([]byte("junk")); err == nil {
		t.Error("ModelKey accepted junk bytes")
	}
}
