package serve

// A minimal client for the detection service, wrapping the wire types
// so Go callers don't hand-roll JSON. Stdlib net/http only, like the
// server — plus a self-healing retry layer: capped exponential backoff
// with deterministic seeded jitter (internal/resilience), Retry-After
// honoring, and retry-only-when-safe semantics.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"fsml/internal/resilience"
)

// RetryPolicy shapes the client's self-healing behavior. The zero value
// never retries; set Max to opt in.
//
// Retry safety: a shed (429) or shutdown/breaker rejection (503)
// response is a server-side guarantee that the request was NOT
// processed, so those are retried for every verb. Anything else —
// transport errors included, where the request may have reached the
// server — is retried only for idempotent (GET) calls. When the server
// sends a Retry-After hint, the client waits at least that long,
// whichever of hint and backoff is larger.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt
	// (0 = at most one attempt, no retries).
	Max int
	// Backoff shapes the delays between attempts; the zero value is
	// 50ms doubling to a 2s cap with ±20% seeded jitter. Delays are a
	// pure function of (Backoff.Seed, attempt) — reproducible.
	Backoff resilience.Backoff
	// Sleep overrides the inter-attempt wait (tests record schedules
	// or skip real time). Nil sleeps on the wall clock, honoring ctx.
	Sleep func(ctx context.Context, d time.Duration) error
}

// sleep waits d, honoring ctx, via the override when set.
func (p RetryPolicy) sleep(ctx context.Context, d time.Duration) error {
	if p.Sleep != nil {
		return p.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Client talks to a detection server.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8723".
	BaseURL string
	// HTTPClient overrides the transport (nil = http.DefaultClient).
	HTTPClient *http.Client
	// Retry is the self-healing policy (zero value: no retries).
	Retry RetryPolicy
}

// NewClient returns a client for the given server root.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// BaseURLError reports a Client.BaseURL that cannot form request URLs:
// empty, missing an http/https scheme, or missing a host. It is typed
// so misconfiguration fails loudly on the first call instead of
// surfacing as a cryptic transport error (or, for a trailing slash, as
// silently doubled "//v1/..." paths).
type BaseURLError struct {
	BaseURL string
	Reason  string
}

func (e *BaseURLError) Error() string {
	return fmt.Sprintf("serve: bad base URL %q: %s", e.BaseURL, e.Reason)
}

// NormalizeBaseURL canonicalizes a server root: trailing slashes are
// stripped (so path concatenation never yields "//v1/...") and a URL
// without an http/https scheme or a host is rejected with a typed
// *BaseURLError.
func NormalizeBaseURL(raw string) (string, error) {
	trimmed := strings.TrimRight(raw, "/")
	if trimmed == "" {
		return "", &BaseURLError{BaseURL: raw, Reason: "empty URL"}
	}
	u, err := url.Parse(trimmed)
	if err != nil {
		return "", &BaseURLError{BaseURL: raw, Reason: err.Error()}
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", &BaseURLError{BaseURL: raw, Reason: fmt.Sprintf("scheme %q, want http or https", u.Scheme)}
	}
	if u.Host == "" {
		return "", &BaseURLError{BaseURL: raw, Reason: "missing host"}
	}
	return trimmed, nil
}

// endpoint joins BaseURL and path, normalizing the base at call time so
// a struct-literal Client{BaseURL: "http://host/"} behaves exactly like
// one built by NewClient.
func (c *Client) endpoint(path string) (string, error) {
	base, err := NormalizeBaseURL(c.BaseURL)
	if err != nil {
		return "", err
	}
	return base + path, nil
}

// APIError is a non-2xx response from the server.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the server's Retry-After hint, when present (shed
	// and circuit-open responses carry one).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve: server returned %d: %s", e.Status, e.Message)
}

// retryable classifies an attempt's failure: can this verb safely try
// again, and did the server ask for a minimum wait?
func retryable(method string, err error) (ok bool, hint time.Duration) {
	var buErr *BaseURLError
	if errors.As(err, &buErr) {
		// A malformed base URL never heals on its own; retrying would
		// just pad the failure with backoff sleeps.
		return false, 0
	}
	if apiErr, isAPI := err.(*APIError); isAPI {
		switch apiErr.Status {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			// Shed / shutting down / breaker open: the server did not
			// process the request; any verb may retry.
			return true, apiErr.RetryAfter
		case http.StatusBadGateway, http.StatusGatewayTimeout:
			// The request may have executed somewhere; only idempotent
			// calls retry.
			return method == http.MethodGet, apiErr.RetryAfter
		default:
			return false, 0
		}
	}
	// Transport-level failure: the request may or may not have reached
	// the server, so only idempotent calls retry.
	return method == http.MethodGet, 0
}

// do runs one request under the client's retry policy; every verb
// except the unretried probes (Ready, MetricsText) goes through it. An
// attempt is send plus, on a 2xx, read, which consumes the response
// (closing its body or keeping it for the caller). A failed attempt is
// retried only when retryable says the verb may, after the larger of
// the backoff delay and the server's Retry-After hint.
func (c *Client) do(ctx context.Context, method, path, mediaType string, body []byte, read func(*http.Response) error) error {
	for attempt := 0; ; attempt++ {
		resp, err := c.send(ctx, method, path, mediaType, body)
		if err == nil {
			err = read(resp)
		}
		if err == nil {
			return nil
		}
		ok, hint := retryable(method, err)
		if !ok || attempt >= c.Retry.Max {
			return err
		}
		delay := c.Retry.Backoff.Delay(attempt)
		if hint > delay {
			delay = hint
		}
		if serr := c.Retry.sleep(ctx, delay); serr != nil {
			return serr
		}
	}
}

// send performs one HTTP attempt. mediaType is the body's Content-Type;
// a GET carries no body, so for it mediaType is the Accept type. A 2xx
// response is returned open for the caller to read; any other status is
// read, closed and decoded into an *APIError.
func (c *Client) send(ctx context.Context, method, path, mediaType string, body []byte) (*http.Response, error) {
	target, err := c.endpoint(path)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, method, target, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if mediaType != "" {
		if method == http.MethodGet {
			req.Header.Set("Accept", mediaType)
		} else {
			req.Header.Set("Content-Type", mediaType)
		}
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, decodeAPIError(resp)
	}
	return resp, nil
}

// decodeAPIError reads and closes a non-2xx response and renders it as
// an *APIError. The format follows the Content-Type: a binary error
// frame from the frame endpoint's handler, else a JSON ErrorResponse
// (every other handler and the admission middleware), else the trimmed
// text of whatever answered (a proxy, a stub).
func decodeAPIError(resp *http.Response) error {
	blob, err := readBody(resp, maxBodyBytes)
	if err != nil {
		return err
	}
	apiErr := &APIError{Status: resp.StatusCode, RetryAfter: parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())}
	if strings.HasPrefix(resp.Header.Get("Content-Type"), contentTypeBin) {
		if _, errFrame, err := DecodeBinResponse(blob); err == nil && errFrame != nil {
			apiErr.Status, apiErr.Message = errFrame.Status, errFrame.Message
			return apiErr
		}
	}
	var e ErrorResponse
	if json.Unmarshal(blob, &e) == nil && e.Error != "" {
		apiErr.Message = e.Error
	} else {
		apiErr.Message = strings.TrimSpace(string(blob))
	}
	return apiErr
}

// readBody reads a response body, capped at limit bytes, and closes it.
func readBody(resp *http.Response, limit int64) ([]byte, error) {
	defer resp.Body.Close()
	return io.ReadAll(io.LimitReader(resp.Body, limit))
}

// doJSON runs a JSON verb: in (nil = no body) is marshalled once and
// the 2xx body is decoded into out (nil = discarded).
func (c *Client) doJSON(ctx context.Context, method, path string, in, out any) error {
	var blob []byte
	mediaType := ""
	if in != nil {
		var err error
		if blob, err = json.Marshal(in); err != nil {
			return err
		}
		mediaType = "application/json"
	}
	return c.do(ctx, method, path, mediaType, blob, readJSON(out))
}

// readJSON returns the read step of a verb with a JSON response.
func readJSON(out any) func(*http.Response) error {
	return func(resp *http.Response) error {
		blob, err := readBody(resp, maxBodyBytes)
		if err != nil || out == nil {
			return err
		}
		return json.Unmarshal(blob, out)
	}
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form:
// delay-seconds ("120") or an HTTP-date ("Fri, 08 Aug 2026 09:00:00
// GMT", including the obsolete RFC 850 and asctime layouts that
// http.ParseTime accepts). This server only emits delay-seconds, but
// the client also talks through proxies and load balancers that
// rewrite the header into the date form. A date in the past — or
// anything unparseable — yields 0, never a negative wait.
func parseRetryAfter(v string, now time.Time) time.Duration {
	if v == "" {
		return 0
	}
	if sec, err := strconv.Atoi(v); err == nil {
		if sec < 0 {
			return 0
		}
		return time.Duration(sec) * time.Second
	}
	t, err := http.ParseTime(v)
	if err != nil {
		return 0
	}
	d := t.Sub(now)
	if d < 0 {
		return 0
	}
	return d
}

// Classify posts one classification request. req.Detector's key
// family picks the model: an "ensemble:..." key (EnsembleSpec.Key)
// answers with the multi-pathology ensemble's ranked Pathologies.
func (c *Client) Classify(ctx context.Context, req ClassifyRequest) (*ClassifyResponse, error) {
	var out ClassifyResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v1/classify", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ClassifyPerf uploads raw `perf stat` / `perf c2c report` output
// (see internal/perfingest) for classification: the body goes up
// verbatim under the PerfContentType media type, the server maps it
// onto the detector's feature space, and events the capture is missing
// degrade the verdict instead of failing it. detector selects a
// registry key ("" = server default); an "ensemble:..." key ranks the
// capture with the ensemble, whose members degrade per-member on the
// counters the capture lacks. Retries follow the client's policy,
// exactly as for Classify.
func (c *Client) ClassifyPerf(ctx context.Context, detector string, perf []byte) (*ClassifyResponse, error) {
	path := "/v1/classify"
	if detector != "" {
		path += "?" + url.Values{"detector": {detector}}.Encode()
	}
	var out ClassifyResponse
	if err := c.do(ctx, http.MethodPost, path, PerfContentType, perf, readJSON(&out)); err != nil {
		return nil, err
	}
	return &out, nil
}

// Report posts one report sweep request.
func (c *Client) Report(ctx context.Context, req ReportRequest) (*ReportResponse, error) {
	var out ReportResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v1/report", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RegisterDetector uploads a serialized model (the `fsml train -o`
// format) and returns its registry key.
func (c *Client) RegisterDetector(ctx context.Context, model []byte) (*RegisterResponse, error) {
	var out RegisterResponse
	req := RegisterRequest{Model: json.RawMessage(model)}
	if err := c.doJSON(ctx, http.MethodPost, "/v1/detectors", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Train asks the server for a lazily trained detector and returns its
// registry key (training happens server-side on first use).
func (c *Client) Train(ctx context.Context, spec TrainSpec) (*RegisterResponse, error) {
	var out RegisterResponse
	req := RegisterRequest{Train: &TrainSpecRequest{Quick: spec.Quick, Seed: spec.Seed}}
	if err := c.doJSON(ctx, http.MethodPost, "/v1/detectors", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Detectors lists the server's registry.
func (c *Client) Detectors(ctx context.Context) (*DetectorsResponse, error) {
	var out DetectorsResponse
	if err := c.doJSON(ctx, http.MethodGet, "/v1/detectors", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Health checks liveness.
func (c *Client) Health(ctx context.Context) (*HealthResponse, error) {
	var out HealthResponse
	if err := c.doJSON(ctx, http.MethodGet, "/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Ready checks readiness. Unlike the other calls it returns the parsed
// body even when the server answers 503 — a not-ready report is data,
// not an error — so rr.Ready distinguishes the cases; err is reserved
// for transport and decoding failures. Readiness probes are exempt from
// the retry policy: a prober wants the current answer, not a padded one.
func (c *Client) Ready(ctx context.Context) (*ReadyResponse, error) {
	var blob []byte
	resp, err := c.send(ctx, http.MethodGet, "/readyz", "", nil)
	var apiErr *APIError
	switch {
	case err == nil:
		blob, err = readBody(resp, maxBodyBytes)
	case errors.As(err, &apiErr) && apiErr.Status == http.StatusServiceUnavailable:
		// The not-ready body is a ReadyResponse, which carries no
		// "error" field, so the decoder kept it whole as the message.
		blob, err = []byte(apiErr.Message), nil
	}
	if err != nil {
		return nil, err
	}
	var out ReadyResponse
	if err := json.Unmarshal(blob, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Lifecycle fetches the self-healing loop's status and run history.
// limit bounds the history (0 = server default of 16; negative = all
// retained).
func (c *Client) Lifecycle(ctx context.Context, limit int) (*LifecycleResponse, error) {
	path := "/v1/lifecycle"
	if limit > 0 {
		path += "?limit=" + strconv.Itoa(limit)
	} else if limit < 0 {
		path += "?limit=0"
	}
	var out LifecycleResponse
	if err := c.doJSON(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MetricsText fetches the raw metrics exposition. Like Ready, it is a
// probe and is not retried.
func (c *Client) MetricsText(ctx context.Context) (string, error) {
	resp, err := c.send(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return "", err
	}
	blob, err := readBody(resp, maxBodyBytes)
	if err != nil {
		return "", err
	}
	return string(blob), nil
}
