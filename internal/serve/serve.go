// Package serve is the detection-as-a-service layer: a long-running
// HTTP server that keeps trained detectors hot in a registry, classifies
// each request inline on its handler goroutine, and exposes the paper's
// pipeline as a JSON API.
//
// Endpoints:
//
//	POST /v1/classify    classify a normalized event vector, an uploaded
//	                     (optionally gzip) access trace, or — with a
//	                     text/x-perf-stat body — raw `perf stat` /
//	                     `perf c2c report` output
//	POST /v1/classify-bin the same classifications over the binary frame
//	                     protocol (many vectors per frame; see wire.go)
//	POST /v1/report      full report.Options sweep of a named workload
//	GET  /v1/watch       live monitoring: stream windowed verdicts,
//	                     phase changes, and drift alarms as SSE
//	GET  /v1/detectors   list the detector registry
//	POST /v1/detectors   register an uploaded model or a train spec
//	GET  /healthz        liveness
//	GET  /readyz         readiness: overload, shutdown, breaker state
//	GET  /metrics        self-contained counters and histograms
//
// Everything is stdlib net/http. Verdicts are byte-identical to one-shot
// classification: each request owns its seed and its simulated machine,
// so concurrency and parallelism change wall-clock time only.
//
// The server is built to stay up under abuse (see internal/resilience):
// classify and report admissions are bounded per endpoint and shed with
// 429 + Retry-After once the inflight cap and shed window are exhausted;
// lazy training sits behind a per-spec circuit breaker so a broken train
// spec fails fast instead of re-running full training per request; and
// registry persistence is crash-safe (atomic writes, corrupt files
// quarantined and retrained). /healthz answers as long as the process
// lives; /readyz tells load balancers whether this instance should be
// receiving traffic right now.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"fsml/internal/core"
	"fsml/internal/ensemble"
	"fsml/internal/faults"
	"fsml/internal/lifecycle"
	"fsml/internal/machine"
	"fsml/internal/perfingest"
	"fsml/internal/pmu"
	"fsml/internal/report"
	"fsml/internal/resilience"
	"fsml/internal/stream"
	"fsml/internal/suite"
	"fsml/internal/trace"
)

// Config shapes a Server. The zero value serves on 127.0.0.1:8723 with a
// quick-trained default detector and an 8-entry registry.
type Config struct {
	// Addr is the listen address for Start (default "127.0.0.1:8723").
	Addr string
	// Parallelism caps concurrent case simulations per report sweep and
	// lazy training run (0 = GOMAXPROCS).
	Parallelism int
	// RegistryDir, when non-empty, persists trained/uploaded models and
	// warm-starts the registry from disk (see Registry).
	RegistryDir string
	// RegistryCapacity bounds resident detectors (default 8).
	RegistryCapacity int
	// DefaultDetector is the registry key used when a request names none
	// (default: the quick seed-1 train spec, so an empty config serves
	// out of the box after one lazy training run).
	DefaultDetector string
	// DefaultTimeout is the per-request deadline when the request does
	// not set timeout_ms (default 2m; negative disables).
	DefaultTimeout time.Duration
	// Faults injects deterministic counter faults into trace-replay
	// measurements (degraded classifications then surface in responses).
	// The zero value keeps counters honest.
	Faults faults.Config
	// MaxInflight bounds concurrently admitted requests per heavy
	// endpoint — classify and report each get their own limiter, so a
	// report storm cannot starve classification. It is the only bound
	// on classify concurrency: admitted requests classify inline
	// (default 64; negative disables admission control).
	MaxInflight int
	// ShedAfter is how long an over-limit request may wait for an
	// admission slot before it is shed with 429 + Retry-After
	// (default 100ms; negative sheds immediately).
	ShedAfter time.Duration
	// BreakerThreshold is the consecutive lazy-training failures that
	// open a train spec's circuit breaker (default 3; negative
	// disables the breakers).
	BreakerThreshold int
	// BreakerCooldown is how long an open training breaker waits
	// before admitting one half-open retrain probe (default 15s).
	BreakerCooldown time.Duration
	// Train overrides the registry's lazy trainer (tests).
	Train func(spec TrainSpec) (*core.Detector, error)
	// TrainEnsemble overrides the registry's lazy ensemble trainer
	// (tests). Nil selects the exps.Lab base + widened-grid pipeline.
	TrainEnsemble func(spec EnsembleSpec) (*ensemble.Detector, error)
	// Lifecycle, when non-nil, enables the self-healing model loop:
	// drift alarms from watch sessions debounce into a retrain, the
	// candidate shadow-scores live traffic beside the incumbent, and
	// winning the budget flips the registry's active-version pointer
	// (with automatic rollback on regression). Registry, Counters,
	// Name, HistoryDir, and Parallelism are filled by the server when
	// left zero. See GET /v1/lifecycle and `fsml lifecycle`.
	Lifecycle *lifecycle.Config
	// Logf, when non-nil, receives one line per shed/error response,
	// tagged with the request's X-FSML-Request-ID when the caller sent
	// one — that is how the two hops of a fleet failover correlate in
	// logs. Nil keeps the server silent.
	Logf func(format string, args ...any)
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8723"
	}
	if c.RegistryCapacity <= 0 {
		c.RegistryCapacity = 8
	}
	if c.DefaultDetector == "" {
		c.DefaultDetector = TrainSpec{Quick: true, Seed: 1}.Key()
	}
	if c.DefaultTimeout == 0 {
		c.DefaultTimeout = 2 * time.Minute
	}
	if c.MaxInflight == 0 {
		c.MaxInflight = 64
	}
	if c.ShedAfter == 0 {
		c.ShedAfter = 100 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown == 0 {
		c.BreakerCooldown = 15 * time.Second
	}
	return c
}

// Server is the detection service.
type Server struct {
	cfg     Config
	metrics *Metrics
	reg     *Registry
	// col measures trace replays and /v1/watch sessions under the
	// configured faults. It is read-only after New, so every handler
	// goroutine shares it.
	col *core.Collector

	limClassify *resilience.Limiter
	limReport   *resilience.Limiter
	limWatch    *resilience.Limiter

	// lc is the self-healing model loop (nil when disabled); lcErr
	// keeps a construction failure for /v1/lifecycle to surface — a
	// broken loop config degrades to a plain server, never a dead one.
	lc    *lifecycle.Manager
	lcErr error

	// watchStop is closed when shutdown begins, so long-lived watch
	// sessions truncate at their next slice boundary and the drain can
	// complete.
	watchStop chan struct{}

	// mu guards the shutdown gate: shutting flips once, inflight counts
	// admitted handlers still running, and handlersDone closes when the
	// last of them exits after shutdown began. An admitted request
	// always completes the drain; a request arriving after shutdown
	// began is rejected with 503 at the gate, never queued.
	mu           sync.Mutex
	shutting     bool
	inflight     int
	handlersDone chan struct{}

	httpServer *http.Server
	ln         net.Listener
}

// New builds a server (not yet listening; use Start, or mount Handler
// on a listener of your own).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	shedAfter := cfg.ShedAfter
	if shedAfter < 0 {
		shedAfter = 0
	}
	s := &Server{
		cfg:     cfg,
		metrics: m,
		reg: NewRegistry(RegistryConfig{
			Capacity:         cfg.RegistryCapacity,
			Dir:              cfg.RegistryDir,
			Parallelism:      cfg.Parallelism,
			Train:            cfg.Train,
			TrainEnsemble:    cfg.TrainEnsemble,
			Metrics:          m,
			BreakerThreshold: cfg.BreakerThreshold,
			BreakerCooldown:  cfg.BreakerCooldown,
		}),
		limClassify:  resilience.NewLimiter(cfg.MaxInflight, shedAfter),
		limReport:    resilience.NewLimiter(cfg.MaxInflight, shedAfter),
		limWatch:     resilience.NewLimiter(cfg.MaxInflight, shedAfter),
		watchStop:    make(chan struct{}),
		handlersDone: make(chan struct{}),
	}
	s.col = core.NewCollector()
	s.col.Faults = faults.New(cfg.Faults)
	if cfg.Lifecycle != nil {
		s.initLifecycle()
	}
	return s
}

// Metrics exposes the server's metric registry (tests and embedders).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Registry exposes the classifier registry (embedders that pre-register).
func (s *Server) Registry() *Registry { return s.reg }

// RequestIDHeader is the correlation header. A fleet coordinator (or
// any proxy) stamps it on forwarded requests; the server echoes it on
// every response and tags shed/error log lines with it, so the hops of
// a failover are correlatable end to end.
const RequestIDHeader = "X-FSML-Request-ID"

// Handler returns the server's routing table. Work endpoints pass the
// admission gate (shutdown rejection, per-endpoint inflight limiting);
// the health, readiness, and metrics probes never do — they must answer
// precisely when the server is refusing work. The whole table sits
// behind the request-ID echo wrapper.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/classify", s.admit(s.limClassify, mShedClassify, s.handleClassify))
	mux.HandleFunc("POST /v1/classify-bin", s.admit(s.limClassify, mShedClassify, s.handleClassifyBin))
	mux.HandleFunc("POST /v1/report", s.admit(s.limReport, mShedReport, s.handleReport))
	mux.HandleFunc("GET /v1/watch", s.admit(s.limWatch, mShedWatch, s.handleWatch))
	mux.HandleFunc("GET /v1/detectors", s.admit(nil, "", s.handleListDetectors))
	mux.HandleFunc("POST /v1/detectors", s.admit(nil, "", s.handleRegisterDetector))
	mux.HandleFunc("GET /v1/lifecycle", s.admit(nil, "", s.handleLifecycle))
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id != "" {
			w.Header().Set(RequestIDHeader, id)
		}
		sw := &statusWriter{ResponseWriter: w}
		mux.ServeHTTP(sw, r)
		if sw.status >= 400 {
			if id == "" {
				id = "-"
			}
			s.logf("serve: %s %s -> %d (request-id %s)", r.Method, r.URL.Path, sw.status, id)
		}
	})
}

// logf forwards to cfg.Logf when set.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// statusWriter records the response status for the shed/error log line.
// It passes Flush through so SSE streaming (GET /v1/watch) keeps
// working behind the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// admit is the admission-control middleware. It rejects requests that
// arrive after shutdown began (503, never queued), sheds over-limit
// requests once the shed window expires (429 + Retry-After), and tracks
// admitted handlers so Shutdown can drain them. lim may be nil for
// endpoints that only need the shutdown gate.
func (s *Server) admit(lim *resilience.Limiter, shedMetric string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		if s.shutting {
			s.mu.Unlock()
			s.metrics.Add(mRejectShutdown, 1)
			s.writeError(w, ErrShuttingDown)
			return
		}
		s.inflight++
		s.mu.Unlock()
		defer s.handlerExit()
		if lim != nil {
			release, err := lim.Acquire(r.Context())
			if err != nil {
				if errors.Is(err, resilience.ErrOverloaded) {
					s.shed(w, shedMetric)
				} else {
					s.writeError(w, err) // the client gave up while waiting
				}
				return
			}
			defer release()
		}
		h(w, r)
	}
}

// shed renders a 429 load-shed response. Shed requests were never
// started, so clients may retry them after the Retry-After hint even
// when the verb is not idempotent.
func (s *Server) shed(w http.ResponseWriter, metric string) {
	s.metrics.Add(metric, 1)
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.ShedAfter)))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusTooManyRequests)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: "serve: overloaded, request shed; retry after backoff"})
}

// retryAfterSeconds renders a duration as a whole-second Retry-After
// hint, at least 1.
func retryAfterSeconds(d time.Duration) int {
	sec := int((d + time.Second - 1) / time.Second)
	if sec < 1 {
		sec = 1
	}
	return sec
}

// handlerExit retires one admitted handler and completes the shutdown
// drain when it was the last.
func (s *Server) handlerExit() {
	s.mu.Lock()
	s.inflight--
	if s.shutting && s.inflight == 0 {
		select {
		case <-s.handlersDone:
		default:
			close(s.handlersDone)
		}
	}
	s.mu.Unlock()
}

// Start listens on cfg.Addr and serves until Shutdown. It returns once
// the listener is accepting, so callers can immediately dial Addr().
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpServer = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = s.httpServer.Serve(ln) }()
	return nil
}

// Addr returns the bound listen address (valid after Start; lets ":0"
// configs discover their port).
func (s *Server) Addr() string {
	if s.ln == nil {
		return s.cfg.Addr
	}
	return s.ln.Addr().String()
}

// Shutdown drains gracefully: close the admission gate (new requests
// get 503, never queued), stop accepting connections, wait for every
// already-admitted handler to complete, then close the lifecycle loop.
// The whole drain is bounded by ctx: if admitted handlers outlive the
// deadline, Shutdown returns ctx.Err() and leaves the drain goroutine
// to finish behind it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.shutting {
		s.shutting = true
		// Watch sessions are long-lived by design; signal them before
		// waiting so they truncate (emitting their done event) instead
		// of holding the drain until their workload finishes.
		close(s.watchStop)
		if s.inflight == 0 {
			close(s.handlersDone)
		}
	}
	s.mu.Unlock()
	var err error
	if s.httpServer != nil {
		err = s.httpServer.Shutdown(ctx)
	}
	drained := make(chan struct{})
	go func() {
		<-s.handlersDone // admitted handlers first ...
		if s.lc != nil {
			s.lc.Close() // ... then the loop (finalizes the open run)
		}
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		if err == nil {
			err = ctx.Err()
		}
	}
	return err
}

// ---------------------------------------------------------------------------
// Request plumbing

// maxBodyBytes bounds request bodies (uploaded traces dominate).
const maxBodyBytes = 64 << 20

// ErrShuttingDown rejects requests that arrive after Shutdown began.
var ErrShuttingDown = errors.New("serve: server is shutting down")

// badRequestError marks client errors (HTTP 400).
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// UnknownDetectorError reports a registry key that is neither resident,
// nor on disk, nor lazily trainable (HTTP 404).
type UnknownDetectorError struct{ Key string }

func (e *UnknownDetectorError) Error() string {
	return fmt.Sprintf("serve: unknown detector %q: not cached, not on disk, and not a train: or ensemble: spec", e.Key)
}

// reqContext applies the per-request deadline: the request's timeout_ms
// if set, else the server default.
func (s *Server) reqContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// decodeJSON reads one JSON body into v, strictly.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequestf("decoding request body: %v", err)
	}
	return nil
}

// writeJSON renders a 200 response.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// errorStatus maps an error to its HTTP status plus the Retry-After
// hint (zero when none applies). Shared by the JSON and binary error
// renderers so both protocols agree on semantics.
func errorStatus(err error) (status int, retryAfter time.Duration) {
	status = http.StatusInternalServerError
	var br *badRequestError
	var ud *UnknownDetectorError
	var tu *TrainingUnavailableError
	var se *stream.SpecError
	var fe *FrameError
	switch {
	case errors.As(err, &br), errors.As(err, &se), errors.As(err, &fe):
		status = http.StatusBadRequest
	case errors.As(err, &ud):
		status = http.StatusNotFound
	case errors.As(err, &tu):
		// The train spec's circuit is open: fail fast, and tell the
		// client when the half-open probe will be admitted.
		status = http.StatusServiceUnavailable
		retryAfter = tu.RetryAfter
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		status = 499 // client closed request (nginx convention)
	case errors.Is(err, ErrShuttingDown):
		status = http.StatusServiceUnavailable
	}
	return status, retryAfter
}

// writeError maps an error to its status and renders the JSON error
// body.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	s.metrics.Add(mReqErrors, 1)
	status, retryAfter := errorStatus(err)
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ErrorResponse{Error: err.Error()})
}

// detector resolves a request's detector key through the registry. An
// empty key means "the default": with the lifecycle loop enabled that
// is the active-version pointer (a promotion changes what this returns,
// atomically); a pointer whose model cannot be loaded falls back to the
// configured default — counted, because serving the fallback model
// beats refusing the request.
func (s *Server) detector(ctx context.Context, key string) (*core.Detector, string, error) {
	if key == "" {
		key = s.activeDetectorKey()
		det, _, err := s.reg.Get(ctx, key)
		if err != nil && key != s.cfg.DefaultDetector {
			s.metrics.Add(mLifecycleFallback, 1)
			key = s.cfg.DefaultDetector
			det, _, err = s.reg.Get(ctx, key)
		}
		return det, key, err
	}
	det, _, err := s.reg.Get(ctx, key)
	return det, key, err
}

// ---------------------------------------------------------------------------
// Handlers

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, HealthResponse{Status: "ok", Detectors: len(s.reg.List()), Version: Version()})
}

// buildVersion memoizes Version's debug.ReadBuildInfo walk.
var buildVersion struct {
	once sync.Once
	v    string
}

// Version resolves this binary's build version once: the main module
// version when stamped, else the VCS revision, else "devel". /healthz
// reports it so a fleet prober can surface mixed-version fleets.
func Version() string {
	buildVersion.once.Do(func() {
		buildVersion.v = "devel"
		info, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if v := info.Main.Version; v != "" && v != "(devel)" {
			buildVersion.v = v
			return
		}
		for _, kv := range info.Settings {
			if kv.Key == "vcs.revision" && len(kv.Value) >= 12 {
				buildVersion.v = kv.Value[:12]
				return
			}
		}
	})
	return buildVersion.v
}

// handleReady is the readiness probe: distinct from /healthz liveness,
// it reports whether this instance should receive traffic right now.
// Not ready (503 with the same JSON body) while shutting down, while
// both admission limiters are saturated, or while a training breaker is
// open. Load balancers poll it; the chaos test pins its transitions.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	shutting := s.shutting
	s.mu.Unlock()
	resp := ReadyResponse{
		ShuttingDown:     shutting,
		Overloaded:       s.limClassify.Saturated() || s.limReport.Saturated() || s.limWatch.Saturated(),
		InflightClassify: s.limClassify.Inflight(),
		InflightReport:   s.limReport.Inflight(),
		InflightWatch:    s.limWatch.Inflight(),
		OpenBreakers:     s.reg.OpenBreakers(),
		Detectors:        len(s.reg.List()),
	}
	if s.lc != nil {
		resp.Lifecycle = string(s.lc.State())
	}
	resp.Ready = !resp.ShuttingDown && !resp.Overloaded && len(resp.OpenBreakers) == 0
	if !resp.Ready {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(resp)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(s.metrics.Render()))
}

func (s *Server) handleListDetectors(w http.ResponseWriter, _ *http.Request) {
	s.metrics.Add(mReqDetectors, 1)
	writeJSON(w, DetectorsResponse{
		Detectors: s.reg.List(),
		Capacity:  s.cfg.RegistryCapacity,
		Disk:      s.reg.DiskKeys(),
	})
}

func (s *Server) handleRegisterDetector(w http.ResponseWriter, r *http.Request) {
	s.metrics.Add(mReqDetectors, 1)
	var req RegisterRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	switch {
	case len(req.Model) > 0 && req.Train != nil:
		s.writeError(w, badRequestf("register: set model or train, not both"))
	case len(req.Model) > 0:
		det, err := core.DecodeDetector(req.Model)
		if err != nil {
			s.writeError(w, badRequestf("register: %v", err))
			return
		}
		key, existed, err := s.reg.Register(det)
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, RegisterResponse{Key: key, Cached: existed, TrainedOn: det.TrainedOn})
	case req.Train != nil:
		ctx, cancel := s.reqContext(r, 0)
		defer cancel()
		key := TrainSpec{Quick: req.Train.Quick, Seed: req.Train.Seed}.Key()
		det, hit, err := s.reg.Get(ctx, key)
		if err != nil {
			s.writeError(w, err)
			return
		}
		writeJSON(w, RegisterResponse{Key: key, Cached: hit, TrainedOn: det.TrainedOn})
	default:
		s.writeError(w, badRequestf("register: need a model upload or a train spec"))
	}
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	// Observed via defer so error and timeout responses land in the
	// latency histogram too, not just successes.
	defer func() { s.metrics.Observe(mRequestSec, latencyBuckets, time.Since(t0).Seconds()) }()
	s.metrics.Add(mReqClassify, 1)
	var req ClassifyRequest
	var perf *perfCapture
	var err error
	if isPerfUpload(r) {
		perf, err = decodePerfUpload(w, r, &req)
	} else if err = decodeJSON(w, r, &req); err == nil {
		err = validateClassify(&req)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	ctx, cancel := s.reqContext(r, req.TimeoutMS)
	defer cancel()
	c, key, err := s.classifier(ctx, r, req.Detector)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp, err := s.classify(ctx, c, key, &req, perf)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, resp)
}

// validateClassify enforces the request invariants before any work
// starts.
func validateClassify(req *ClassifyRequest) error {
	hasVector := len(req.Vector) > 0
	hasTrace := len(req.Trace) > 0
	switch {
	case hasVector && hasTrace:
		return badRequestf("classify: set vector or trace, not both")
	case !hasVector && !hasTrace:
		return badRequestf("classify: need a vector or a trace")
	}
	if hasTrace && (len(req.Events) > 0 || len(req.SuspectEvents) > 0) {
		return badRequestf("classify: events/suspect_events apply to vector requests only")
	}
	if hasVector && len(req.Events) > 0 && len(req.Events) != len(req.Vector) {
		return badRequestf("classify: %d events but %d vector entries", len(req.Events), len(req.Vector))
	}
	return nil
}

// classifier resolves a classify request's key through the registry;
// the key family decides the classifier. ?ensemble=1 (any true-ish
// boolean) only supplies the default ensemble key when the request
// names none, and makes a key of another family a client error. An
// empty key without it is the default detector.
func (s *Server) classifier(ctx context.Context, r *http.Request, key string) (Classifier, string, error) {
	if ok, _ := strconv.ParseBool(r.URL.Query().Get("ensemble")); ok {
		if key == "" {
			key = EnsembleSpec{Quick: true, Seed: 1}.Key()
		}
		if _, ok := parseSpecKey(key, ensemblePrefix); !ok {
			return nil, key, badRequestf("classify: %q is not an ensemble key (want ensemble:quick=...,seed=...)", key)
		}
	}
	if key == "" {
		det, dkey, err := s.detector(ctx, "")
		if err != nil {
			return nil, dkey, err
		}
		return det, dkey, nil
	}
	c, _, err := s.reg.Lookup(ctx, key)
	return c, key, err
}

// runStage runs one request's classify work on the handler goroutine:
// a single deadline check before the work starts, and the single
// fsml_stage_classify_seconds observation around it. Every classify
// path goes through here; nothing queues.
func (s *Server) runStage(ctx context.Context, work func() error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	c0 := time.Now()
	defer func() { s.metrics.Observe(mClassifySec, latencyBuckets, time.Since(c0).Seconds()) }()
	return work()
}

// classify is the classify pipeline every single-verdict request
// shares — JSON vectors and traces, perf uploads, and binary trace
// frames: build the pmu.Sample (wrap the vector, replay the trace, or
// take the mapped perf capture), classify it, mirror the verdict to
// the shadow scorer.
func (s *Server) classify(ctx context.Context, c Classifier, key string, req *ClassifyRequest, perf *perfCapture) (*ClassifyResponse, error) {
	var resp *ClassifyResponse
	err := s.runStage(ctx, func() error {
		var m measurement
		var err error
		switch {
		case perf != nil:
			m.sample = perf.sample
		case len(req.Trace) > 0:
			m, err = s.replay(req.Trace, req.Seed)
		default:
			m.sample, err = vectorSample(c, req.Events, req.Vector, req.SuspectEvents)
		}
		if err != nil {
			return err
		}
		rr, err := s.verdict(c, key, m)
		if err != nil {
			return err
		}
		resp = &ClassifyResponse{
			Class: rr.Class, Confidence: rr.Confidence, Degraded: rr.Degraded,
			Suspects: rr.Suspects, MissingEvents: rr.MissingEvents,
			Detector: key, Seconds: m.seconds, Pathologies: rr.Pathologies,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if perf != nil {
		resp.PerfFormat, resp.UnmappedEvents = perf.format, perf.unmapped
	}
	if resp.Degraded {
		s.metrics.Add(mDegraded, 1)
	}
	return resp, nil
}

// measurement is the sample a verdict is made on. kernels and seconds
// are set for trace replays only: the replayable workload lets the
// shadow scorer judge a disagreement against instrumentation ground
// truth.
type measurement struct {
	sample  pmu.Sample
	kernels []machine.Kernel
	seconds float64
}

// verdict classifies one measurement and mirrors the authoritative
// verdict to the shadow scorer. A sample the client supplied that does
// not classify is a client error; a failed replay measurement is the
// server's.
func (s *Server) verdict(c Classifier, key string, m measurement) (core.RobustResult, error) {
	rr, err := c.ClassifyRobust(m.sample)
	if err != nil {
		if m.kernels != nil {
			return rr, fmt.Errorf("classify: %w", err)
		}
		return rr, badRequestf("classify: %v", err)
	}
	s.mirror(key, rr.Class, rr.Confidence, m.sample, m.kernels)
	return rr, nil
}

// vectorSample wraps a pre-normalized event vector in a synthetic
// sample with an instruction normalizer of 1, so the values pass
// through the detector's projection unchanged. Unnamed vectors take the
// classifier's attribute order; suspect events are flagged stuck.
func vectorSample(c Classifier, events []string, vector []float64, suspects []string) (pmu.Sample, error) {
	if len(events) == 0 {
		events = c.Features()
		if len(events) != len(vector) {
			return pmu.Sample{}, badRequestf("classify: detector expects %d events, vector has %d (name them via events)", len(events), len(vector))
		}
	}
	sample := pmu.Sample{Names: events, Counts: vector, Instructions: 1}
	if len(suspects) > 0 {
		idx := make(map[string]int, len(events))
		for i, n := range events {
			idx[n] = i
		}
		sample.Flags = make([]pmu.CountFlag, len(events))
		for _, n := range suspects {
			i, ok := idx[n]
			if !ok {
				return pmu.Sample{}, badRequestf("classify: suspect event %q is not in the vector", n)
			}
			sample.Flags[i] = pmu.FlagStuck
		}
	}
	return sample, nil
}

// replay replays an uploaded trace on a fresh simulated machine and
// measures it with the emulated PMU through the server's collector: under
// the server's fault config an unusable sample gets the re-seeded
// retries of the offline collector, and one that stays unusable is the
// server's failure, not the client's.
func (s *Server) replay(blob []byte, seed uint64) (measurement, error) {
	tr, err := trace.Parse(bytes.NewReader(blob))
	if err != nil {
		return measurement{}, badRequestf("classify: %v", err)
	}
	if seed == 0 {
		seed = 1
	}
	obs, _, err := s.col.MeasureRetry(fmt.Sprintf("serve/trace/seed=%d", seed), seed, func() ([]machine.Kernel, error) {
		return tr.Kernels(), nil
	})
	if err != nil {
		return measurement{}, fmt.Errorf("classify: %w", err)
	}
	return measurement{sample: obs.Sample, kernels: tr.Kernels(), seconds: obs.Seconds}, nil
}

// PerfContentType is the POST /v1/classify media type for raw perf
// tool output: the body is `perf stat` (human or -x, CSV, plain or
// interval) or `perf c2c report` text, exactly as the tool printed it.
// Because the body is not the JSON envelope, the detector key and
// deadline ride in the query string: ?detector=KEY&timeout_ms=N.
const PerfContentType = "text/x-perf-stat"

// isPerfUpload reports whether a classify request carries raw perf
// output instead of the JSON request envelope.
func isPerfUpload(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct) == PerfContentType
}

// perfCapture is a decoded perf upload: the capture mapped onto the
// Table-2 feature space, plus what the response reports about how it
// was read.
type perfCapture struct {
	sample   pmu.Sample
	format   string
	unmapped []string
}

// decodePerfUpload decodes a raw perf capture: parse (format
// auto-detected) and map onto the Table-2 feature space through the
// alias table. Features the capture did not measure are left to the
// robust classifier, which degrades the verdict's confidence rather
// than failing the request. The detector key and deadline come from the
// query string into req.
func decodePerfUpload(w http.ResponseWriter, r *http.Request, req *ClassifyRequest) (*perfCapture, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		return nil, badRequestf("classify: reading perf upload: %v", err)
	}
	rep, err := perfingest.Parse(bytes.NewReader(body))
	if err != nil {
		return nil, badRequestf("classify: %v", err)
	}
	sample, mapping, err := rep.Sample()
	if err != nil {
		return nil, badRequestf("classify: %v", err)
	}
	q := r.URL.Query()
	if v := q.Get("timeout_ms"); v != "" {
		req.TimeoutMS, err = strconv.ParseInt(v, 10, 64)
		if err != nil || req.TimeoutMS < 0 {
			return nil, badRequestf("classify: bad timeout_ms %q", v)
		}
	}
	req.Detector = q.Get("detector")
	return &perfCapture{sample: sample, format: string(rep.Format), unmapped: mapping.Unmapped}, nil
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	// Deferred so error and timeout responses are measured too.
	defer func() {
		sec := time.Since(t0).Seconds()
		s.metrics.Observe(mReportSec, latencyBuckets, sec)
		s.metrics.Observe(mRequestSec, latencyBuckets, sec)
	}()
	s.metrics.Add(mReqReport, 1)
	var req ReportRequest
	if err := decodeJSON(w, r, &req); err != nil {
		s.writeError(w, err)
		return
	}
	if req.Program == "" {
		s.writeError(w, badRequestf("report: need a program name"))
		return
	}
	if _, ok := suite.Lookup(req.Program); !ok {
		s.writeError(w, badRequestf("report: unknown program %q (see `fsml list`)", req.Program))
		return
	}
	ctx, cancel := s.reqContext(r, req.TimeoutMS)
	defer cancel()
	det, key, err := s.detector(ctx, req.Detector)
	if err != nil {
		s.writeError(w, err)
		return
	}
	opts := report.Options{
		Threads:     req.Threads,
		MaxInputs:   req.MaxInputs,
		Seed:        req.Seed,
		Parallelism: s.cfg.Parallelism,
	}
	rep, err := report.BuildContext(ctx, det, req.Program, opts)
	if err != nil {
		if ctx.Err() != nil {
			err = ctx.Err()
		}
		s.writeError(w, err)
		return
	}
	writeJSON(w, ReportResponse{Detector: key, Report: rep})
}
