package serve

// Tests of the serving layer. The hot paths run against a tiny
// hand-built detector (deterministic, trains in microseconds) so the
// suite exercises concurrent classification, the registry, and the wire
// format without paying for a full training sweep.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsml/internal/core"
	"fsml/internal/dataset"
	"fsml/internal/pmu"
	"fsml/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// Attribute names of the tiny test detector. Both are real PMU feature
// names, so trace-replay measurements project onto them.
const (
	attrHITM = "SNOOP_RESPONSE.HITM"
	attrMiss = "L2_RQSTS.LD_MISS"
)

// tinyDetector hand-builds a deterministic two-attribute detector:
// high HITM -> bad-fs, high miss rate -> bad-ma, both low -> good.
func tinyDetector(t testing.TB) *core.Detector {
	t.Helper()
	d := dataset.New([]string{attrHITM, attrMiss})
	add := func(label string, hitm, miss float64) {
		if err := d.Add(dataset.Instance{Features: []float64{hitm, miss}, Label: label}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		f := float64(i) * 0.01
		add("bad-fs", 0.50+f, 0.05+f/2)
		add("bad-ma", 0.01+f/10, 0.60+f)
		add("good", 0.01+f/10, 0.02+f/10)
	}
	det, err := core.TrainDetector(d)
	if err != nil {
		t.Fatalf("training tiny detector: %v", err)
	}
	return det
}

// newTestServer builds a server around the tiny detector (unless cfg
// already injects a trainer) and mounts it on an httptest listener.
// Admission control is off unless the test opts in with an explicit
// MaxInflight, so burst tests exercise concurrency rather than shedding.
func newTestServer(t testing.TB, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.Train == nil {
		det := tinyDetector(t)
		cfg.Train = func(TrainSpec) (*core.Detector, error) { return det, nil }
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = -1
	}
	s := New(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(hs.Close)
	return s, NewClient(hs.URL)
}

// ---------------------------------------------------------------------------
// Registry

// TestRegistrySingleflightTrainsOnce fires many concurrent Gets at the
// same untrained key and asserts exactly one training run happens —
// everyone else waits on the in-flight entry and shares the result.
// Run under -race, this also exercises the entry's publication.
func TestRegistrySingleflightTrainsOnce(t *testing.T) {
	det := tinyDetector(t)
	var trains atomic.Int64
	m := NewMetrics()
	reg := NewRegistry(RegistryConfig{
		Metrics: m,
		Train: func(TrainSpec) (*core.Detector, error) {
			trains.Add(1)
			time.Sleep(20 * time.Millisecond) // widen the race window
			return det, nil
		},
	})
	key := TrainSpec{Quick: true, Seed: 1}.Key()
	const callers = 64
	got := make([]*core.Detector, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, _, err := reg.Get(context.Background(), key)
			if err != nil {
				t.Errorf("Get: %v", err)
				return
			}
			got[i] = d
		}(i)
	}
	wg.Wait()
	if n := trains.Load(); n != 1 {
		t.Fatalf("trained %d times, want exactly 1 (singleflight)", n)
	}
	for i, d := range got {
		if d != det {
			t.Fatalf("caller %d got a different detector instance", i)
		}
	}
	if hits, misses := m.Counter(mRegistryHits), m.Counter(mRegistryMisses); misses != 1 || hits != callers-1 {
		t.Errorf("hits=%d misses=%d, want %d/1", hits, misses, callers-1)
	}
}

// TestRegistryListDuringLoad lists the registry while a lazy train is in
// flight. Under -race this pins the publish-under-lock invariant: the
// loader must not write entry fields concurrently with List's reads.
func TestRegistryListDuringLoad(t *testing.T) {
	det := tinyDetector(t)
	started := make(chan struct{})
	release := make(chan struct{})
	reg := NewRegistry(RegistryConfig{Train: func(TrainSpec) (*core.Detector, error) {
		close(started)
		<-release
		return det, nil
	}})
	key := TrainSpec{Quick: true, Seed: 1}.Key()
	done := make(chan error, 1)
	go func() {
		_, _, err := reg.Get(context.Background(), key)
		done <- err
	}()
	<-started
	list := reg.List()
	if len(list) != 1 || list[0].State != "loading" || list[0].Source != "" {
		t.Errorf("mid-load List = %+v, want one loading entry with no source yet", list)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("Get: %v", err)
	}
	list = reg.List()
	if len(list) != 1 || list[0].State != "ready" || list[0].Source != "trained" {
		t.Errorf("post-load List = %+v, want one ready trained entry", list)
	}
}

// TestRegistryWarmStartReadError asserts a model file that exists but
// cannot be read surfaces the disk error instead of silently retraining
// (which would mask the fault and overwrite the file). A directory in
// the file's place yields a read error that is not fs.ErrNotExist.
func TestRegistryWarmStartReadError(t *testing.T) {
	dir := t.TempDir()
	key := TrainSpec{Quick: true, Seed: 1}.Key()
	path := filepath.Join(dir, strings.ReplaceAll(key, ":", "-")+".json")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(RegistryConfig{Dir: dir, Train: func(TrainSpec) (*core.Detector, error) {
		t.Fatal("must not fall through to training past an unreadable model file")
		return nil, nil
	}})
	_, _, err := reg.Get(context.Background(), key)
	if err == nil {
		t.Fatal("Get should surface the read error")
	}
	if !strings.Contains(err.Error(), path) {
		t.Errorf("error %q does not name the unreadable file", err)
	}
}

// TestRegistryFailedTrainIsRetryable asserts a failed load is dropped so
// the next Get tries again instead of caching the error forever.
func TestRegistryFailedTrainIsRetryable(t *testing.T) {
	det := tinyDetector(t)
	var calls atomic.Int64
	reg := NewRegistry(RegistryConfig{Train: func(TrainSpec) (*core.Detector, error) {
		if calls.Add(1) == 1 {
			return nil, errors.New("transient")
		}
		return det, nil
	}})
	key := TrainSpec{Quick: true}.Key()
	if _, _, err := reg.Get(context.Background(), key); err == nil {
		t.Fatal("first Get should fail")
	}
	d, _, err := reg.Get(context.Background(), key)
	if err != nil || d != det {
		t.Fatalf("retry Get = (%v, %v), want the detector", d, err)
	}
}

// TestRegistryQuarantineAndRetrain pins the crash-safe load path: a
// corrupt model file behind a train-spec key is quarantined to
// <name>.corrupt and the key retrains automatically, instead of the
// load failing forever on the same bad bytes.
func TestRegistryQuarantineAndRetrain(t *testing.T) {
	dir := t.TempDir()
	det := tinyDetector(t)
	key := TrainSpec{Quick: true, Seed: 1}.Key()
	stale := fmt.Sprintf(`{"format": "fsml-detector", "version": %d, "tree": null}`, core.ModelVersion+97)
	path := filepath.Join(dir, strings.ReplaceAll(key, ":", "-")+".json")
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	var trains atomic.Int64
	m := NewMetrics()
	reg := NewRegistry(RegistryConfig{Dir: dir, Metrics: m, Train: func(TrainSpec) (*core.Detector, error) {
		trains.Add(1)
		return det, nil
	}})
	got, _, err := reg.Get(context.Background(), key)
	if err != nil {
		t.Fatalf("Get over a corrupt file = %v, want quarantine + retrain", err)
	}
	if got != det || trains.Load() != 1 {
		t.Fatalf("got %p after %d trains, want the retrained detector from 1 train", got, trains.Load())
	}
	qpath := strings.TrimSuffix(path, ".json") + ".corrupt"
	if _, err := os.Stat(qpath); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
	if m.Counter(mQuarantined) != 1 {
		t.Errorf("%s = %d, want 1", mQuarantined, m.Counter(mQuarantined))
	}
	// The retrained model was re-persisted atomically over the old path.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("retrained model not re-persisted: %v", err)
	}
	if _, err := core.DecodeDetector(blob); err != nil {
		t.Errorf("re-persisted model does not decode: %v", err)
	}
	// A restart warm-starts from the healthy file without training.
	reg2 := NewRegistry(RegistryConfig{Dir: dir, Train: func(TrainSpec) (*core.Detector, error) {
		t.Fatal("healthy warm start must not train")
		return nil, nil
	}})
	if _, _, err := reg2.Get(context.Background(), key); err != nil {
		t.Fatalf("post-quarantine warm start: %v", err)
	}
}

// TestRegistryQuarantineContentKey: a corrupt file behind a
// content-hash key has no trainer to fall back on — the bytes exist
// nowhere else — so the load fails, but the file is still quarantined
// and the error says to re-upload.
func TestRegistryQuarantineContentKey(t *testing.T) {
	dir := t.TempDir()
	key := "sha256:deadbeefdeadbeef"
	path := filepath.Join(dir, strings.ReplaceAll(key, ":", "-")+".json")
	if err := os.WriteFile(path, []byte(`{"format":"fsml-detector","ver`), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry(RegistryConfig{Dir: dir})
	_, _, err := reg.Get(context.Background(), key)
	if err == nil {
		t.Fatal("corrupt content-keyed model must fail the load")
	}
	if !strings.Contains(err.Error(), "re-upload") {
		t.Errorf("error %q does not tell the operator to re-upload", err)
	}
	if _, serr := os.Stat(strings.TrimSuffix(path, ".json") + ".corrupt"); serr != nil {
		t.Errorf("corrupt content-keyed file not quarantined: %v", serr)
	}
	if _, serr := os.Stat(path); !errors.Is(serr, fs.ErrNotExist) {
		t.Errorf("original corrupt file still present: %v", serr)
	}
}

// TestRegistryTrainingBreaker drives the training circuit through its
// full cycle: threshold consecutive failures open it, callers then fail
// fast with a typed TrainingUnavailableError (no training work), and
// after the cooldown a half-open probe retrains and closes it.
func TestRegistryTrainingBreaker(t *testing.T) {
	det := tinyDetector(t)
	clock := time.Unix(2000, 0)
	var clockMu sync.Mutex
	now := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		clock = clock.Add(d)
		clockMu.Unlock()
	}
	var trains atomic.Int64
	healthy := atomic.Bool{}
	m := NewMetrics()
	reg := NewRegistry(RegistryConfig{
		Metrics:          m,
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Second,
		Now:              now,
		Train: func(TrainSpec) (*core.Detector, error) {
			trains.Add(1)
			if !healthy.Load() {
				return nil, errors.New("injected training failure")
			}
			return det, nil
		},
	})
	key := TrainSpec{Quick: true, Seed: 5}.Key()
	ctx := context.Background()

	// Two real failures open the breaker.
	for i := 0; i < 2; i++ {
		if _, _, err := reg.Get(ctx, key); err == nil {
			t.Fatalf("failing train %d should error", i)
		}
	}
	if trains.Load() != 2 {
		t.Fatalf("trains = %d, want 2", trains.Load())
	}
	// Open: requests fail fast without training.
	_, _, err := reg.Get(ctx, key)
	var tu *TrainingUnavailableError
	if !errors.As(err, &tu) {
		t.Fatalf("open-circuit Get = %v, want *TrainingUnavailableError", err)
	}
	if tu.Key != key || tu.RetryAfter <= 0 {
		t.Errorf("TrainingUnavailableError = %+v, want key %s and positive RetryAfter", tu, key)
	}
	if trains.Load() != 2 {
		t.Fatalf("fast-fail still trained: %d", trains.Load())
	}
	if got := reg.OpenBreakers(); len(got) != 1 || got[0] != key {
		t.Errorf("OpenBreakers = %v, want [%s]", got, key)
	}
	if m.Counter(mBreakerOpened) != 1 || m.Counter(mBreakerFastFail) != 1 {
		t.Errorf("opened=%d fastfail=%d, want 1/1", m.Counter(mBreakerOpened), m.Counter(mBreakerFastFail))
	}

	// Cooldown elapses but training still fails: the probe re-opens it.
	advance(11 * time.Second)
	if _, _, err := reg.Get(ctx, key); err == nil {
		t.Fatal("failing probe should error")
	}
	if trains.Load() != 3 {
		t.Fatalf("probe trains = %d, want 3", trains.Load())
	}
	if _, _, err := reg.Get(ctx, key); !errors.As(err, &tu) {
		t.Fatalf("post-probe Get = %v, want fast fail again", err)
	}

	// Training recovers: the next probe closes the circuit.
	healthy.Store(true)
	advance(11 * time.Second)
	d, _, err := reg.Get(ctx, key)
	if err != nil || d != det {
		t.Fatalf("recovery probe = (%v, %v), want the detector", d, err)
	}
	if len(reg.OpenBreakers()) != 0 {
		t.Errorf("OpenBreakers after recovery = %v, want none", reg.OpenBreakers())
	}
	if m.Counter(mBreakerClosed) != 1 {
		t.Errorf("closed transitions = %d, want 1", m.Counter(mBreakerClosed))
	}
	// And the key now serves from cache.
	if _, hit, err := reg.Get(ctx, key); err != nil || !hit {
		t.Fatalf("post-recovery Get = (hit=%t, %v), want cache hit", hit, err)
	}
}

// TestRegistryWarmStartRoundTrip persists through one registry and
// warm-loads through a second, as across a server restart.
func TestRegistryWarmStartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	det := tinyDetector(t)
	reg1 := NewRegistry(RegistryConfig{Dir: dir})
	key, existed, err := reg1.Register(det)
	if err != nil || existed {
		t.Fatalf("Register = (%q, %t, %v)", key, existed, err)
	}
	reg2 := NewRegistry(RegistryConfig{Dir: dir, Train: func(TrainSpec) (*core.Detector, error) {
		t.Fatal("warm start must not train")
		return nil, nil
	}})
	if disk := reg2.DiskKeys(); len(disk) != 1 || disk[0] != key {
		t.Fatalf("DiskKeys = %v, want [%s]", disk, key)
	}
	d2, hit, err := reg2.Get(context.Background(), key)
	if err != nil || hit {
		t.Fatalf("Get = (hit=%t, %v), want cold disk load", hit, err)
	}
	s := pmu.Sample{Names: []string{attrHITM, attrMiss}, Counts: []float64{0.55, 0.05}, Instructions: 1}
	c1, err1 := det.Classify(s)
	c2, err2 := d2.Classify(s)
	if err1 != nil || err2 != nil || c1 != c2 {
		t.Fatalf("reloaded detector disagrees: (%q,%v) vs (%q,%v)", c1, err1, c2, err2)
	}
}

// TestRegistryEviction fills past capacity and checks LRU order goes
// first.
func TestRegistryEviction(t *testing.T) {
	m := NewMetrics()
	reg := NewRegistry(RegistryConfig{Capacity: 2, Metrics: m})
	base := tinyDetector(t)
	var keys []string
	for i := 0; i < 3; i++ {
		det := &core.Detector{Tree: base.Tree, Model: base.Model, TrainedOn: map[string]int{"good": i + 1}}
		key, _, err := reg.Register(det)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, key)
	}
	list := reg.List()
	if len(list) != 2 {
		t.Fatalf("resident = %d entries, want 2: %+v", len(list), list)
	}
	if list[0].Key != keys[2] || list[1].Key != keys[1] {
		t.Errorf("LRU order = [%s %s], want [%s %s]", list[0].Key, list[1].Key, keys[2], keys[1])
	}
	if m.Counter(mRegistryEvicts) != 1 {
		t.Errorf("evictions = %d, want 1", m.Counter(mRegistryEvicts))
	}
}

// ---------------------------------------------------------------------------
// HTTP API

// vectorRequest builds the i-th deterministic classify request of the
// acceptance sweep: the three class regions in rotation, every fifth
// request with a flagged HITM counter to exercise degraded verdicts.
func vectorRequest(i int) ClassifyRequest {
	req := ClassifyRequest{Events: []string{attrHITM, attrMiss}}
	jitter := float64(i%7) * 0.003
	switch i % 3 {
	case 0:
		req.Vector = []float64{0.52 + jitter, 0.06}
	case 1:
		req.Vector = []float64{0.012, 0.64 + jitter}
	default:
		req.Vector = []float64{0.012, 0.03 + jitter}
	}
	if i%5 == 0 {
		req.SuspectEvents = []string{attrHITM}
	}
	return req
}

// sampleOf mirrors the server's vector-to-sample construction, for
// computing expected verdicts out of band.
func sampleOf(req ClassifyRequest) pmu.Sample {
	s := pmu.Sample{Names: req.Events, Counts: req.Vector, Instructions: 1}
	if len(req.SuspectEvents) > 0 {
		s.Flags = make([]pmu.CountFlag, len(req.Events))
		for i, n := range req.Events {
			for _, sus := range req.SuspectEvents {
				if n == sus {
					s.Flags[i] = pmu.FlagStuck
				}
			}
		}
	}
	return s
}

// TestServeConcurrentMatchesSequential is the acceptance test: >= 64
// parallel requests classified inline on their handler goroutines must
// produce verdicts identical to sequential single-shot classification,
// and the shared default detector must score registry cache hits. Run
// under -race it covers inline classification against the registry.
func TestServeConcurrentMatchesSequential(t *testing.T) {
	det := tinyDetector(t)
	s, client := newTestServer(t, Config{
		Parallelism: 4,
		Train:       func(TrainSpec) (*core.Detector, error) { return det, nil },
	})
	const n = 96
	got := make([]*ClassifyResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Classify(context.Background(), vectorRequest(i))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			got[i] = resp
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if got[i] == nil {
			t.Fatalf("request %d missing", i)
		}
		want, err := det.ClassifyRobust(sampleOf(vectorRequest(i)))
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Class != want.Class || got[i].Confidence != want.Confidence ||
			got[i].Degraded != want.Degraded || !equalStrings(got[i].Suspects, want.Suspects) {
			t.Errorf("request %d: concurrent verdict %+v != sequential %+v", i, got[i], want)
		}
	}
	if hits := s.Metrics().Counter(mRegistryHits); hits < 1 {
		t.Errorf("registry hits = %d, want >= 1 (shared default detector)", hits)
	}
}

// TestClassifyNotQueuedBehindReplay pins inline classification: while
// a long trace replay holds one admission slot, vector classifies sent
// one after another on a second connection all return before the
// replay does. Nothing shared serializes requests; the admission
// limiter is the only bound on concurrency.
func TestClassifyNotQueuedBehindReplay(t *testing.T) {
	s, replayClient := newTestServer(t, Config{MaxInflight: 4})
	vecClient := NewClient(replayClient.BaseURL)
	vecClient.HTTPClient = &http.Client{Transport: &http.Transport{}} // its own connection
	ctx := context.Background()
	if _, err := vecClient.Classify(ctx, vectorRequest(0)); err != nil {
		t.Fatal(err) // warm the registry so no request below trains
	}

	// Two threads storing to one cache line, millions of times each.
	heavy := []byte("T0 S 0x1000 x3000000\nT1 S 0x1008 x3000000\n")
	replayDone := make(chan time.Time, 1)
	go func() {
		if _, err := replayClient.Classify(ctx, ClassifyRequest{Trace: heavy}); err != nil {
			t.Errorf("replay: %v", err)
		}
		replayDone <- time.Now()
	}()
	for s.limClassify.Inflight() == 0 {
		runtime.Gosched() // until the replay holds its admission slot
	}

	const n = 4
	var lastVector time.Time
	for i := 0; i < n; i++ {
		if _, err := vecClient.Classify(ctx, vectorRequest(i)); err != nil {
			t.Fatalf("vector %d: %v", i, err)
		}
		lastVector = time.Now()
	}
	replayEnd := <-replayDone
	t.Logf("replay returned %v after the last vector", replayEnd.Sub(lastVector))
	if !lastVector.Before(replayEnd) {
		t.Errorf("vector classifies returned %v after the replay: queued behind it", lastVector.Sub(replayEnd))
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestClassifyGoldenWire pins the classify wire format byte for byte —
// including the Degraded/Confidence/Suspects fields of a flagged-counter
// request. Regenerate with: go test ./internal/serve -run
// TestClassifyGoldenWire -update
func TestClassifyGoldenWire(t *testing.T) {
	reqBody := `{
  "events": ["` + attrHITM + `", "` + attrMiss + `"],
  "vector": [0.52, 0.06],
  "suspect_events": ["` + attrHITM + `"]
}`
	_, client := newTestServer(t, Config{})
	resp, err := http.Post(client.BaseURL+"/v1/classify", "application/json", strings.NewReader(reqBody))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	golden := filepath.Join("testdata", "classify_degraded.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(body, want) {
		t.Errorf("wire format drifted from golden:\ngot:\n%s\nwant:\n%s", body, want)
	}
	// The golden response must actually exercise the degraded fields.
	var parsed ClassifyResponse
	if err := json.Unmarshal(body, &parsed); err != nil {
		t.Fatal(err)
	}
	if !parsed.Degraded || parsed.Confidence >= 1 || len(parsed.Suspects) != 1 {
		t.Errorf("golden response is not a degraded verdict: %+v", parsed)
	}
}

// TestClassifyTraceRoundTrip classifies an uploaded trace — plain and
// gzipped — and asserts the verdict matches an identically seeded local
// measurement of the same trace.
func TestClassifyTraceRoundTrip(t *testing.T) {
	det := tinyDetector(t)
	_, client := newTestServer(t, Config{Train: func(TrainSpec) (*core.Detector, error) { return det, nil }})

	// Two threads hammering one cache line: the classic false-sharing
	// shape, interleaved with enough plain work to keep the sample sane.
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&sb, "T0 S 0x1000 x8\nT0 E 40\nT1 S 0x1008 x8\nT1 E 40\n")
	}
	raw := []byte(sb.String())

	tr, err := trace.Parse(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	c := core.NewCollector()
	obs := c.Measure(fmt.Sprintf("serve/trace/seed=%d", seed), seed, tr.Kernels())
	want, err := det.ClassifyRobust(obs.Sample)
	if err != nil {
		t.Fatal(err)
	}

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		blob []byte
	}{{"plain", raw}, {"gzip", gz.Bytes()}} {
		resp, err := client.Classify(context.Background(), ClassifyRequest{Trace: tc.blob, Seed: seed})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.Class != want.Class || resp.Confidence != want.Confidence || resp.Degraded != want.Degraded {
			t.Errorf("%s: wire verdict %+v != local %+v", tc.name, resp, want)
		}
		if resp.Seconds != obs.Seconds {
			t.Errorf("%s: simulated runtime %v != local %v", tc.name, resp.Seconds, obs.Seconds)
		}
	}
}

// TestServeErrors pins the HTTP status mapping.
func TestServeErrors(t *testing.T) {
	_, client := newTestServer(t, Config{})
	post := func(path, body string) (int, string) {
		resp, err := http.Post(client.BaseURL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		blob, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(blob)
	}
	cases := []struct {
		name, path, body string
		want             int
	}{
		{"vector and trace", "/v1/classify", `{"vector":[1],"trace":"` + "dDAgTCAw" + `"}`, 400},
		{"neither", "/v1/classify", `{}`, 400},
		{"length mismatch", "/v1/classify", `{"events":["a"],"vector":[1,2]}`, 400},
		{"unknown field", "/v1/classify", `{"vectors":[1]}`, 400},
		{"unknown suspect", "/v1/classify", `{"events":["` + attrHITM + `"],"vector":[0.5],"suspect_events":["nope"]}`, 400},
		{"unknown detector", "/v1/classify", `{"detector":"sha256:doesnotexist0000","vector":[0.5,0.5]}`, 404},
		{"report no program", "/v1/report", `{}`, 400},
		{"report unknown program", "/v1/report", `{"program":"pdot"}`, 400},
		{"report timeout", "/v1/report", `{"program":"histogram","timeout_ms":1}`, 504},
		{"register empty", "/v1/detectors", `{}`, 400},
		{"register both", "/v1/detectors", `{"model":{},"train":{"quick":true}}`, 400},
	}
	for _, tc := range cases {
		if got, body := post(tc.path, tc.body); got != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, got, tc.want, body)
		}
	}
}

// TestServeSmoke is the end-to-end lifecycle test the Makefile smoke
// target runs: bind :0, health-check, register a model, classify with
// it, scrape metrics, shut down gracefully.
func TestServeSmoke(t *testing.T) {
	det := tinyDetector(t)
	s := New(Config{
		Addr:  "127.0.0.1:0",
		Train: func(TrainSpec) (*core.Detector, error) { return det, nil },
	})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	client := NewClient("http://" + s.Addr())
	ctx := context.Background()

	h, err := client.Health(ctx)
	if err != nil || h.Status != "ok" {
		t.Fatalf("health = (%+v, %v)", h, err)
	}

	model, err := det.Encode()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := client.RegisterDetector(ctx, model)
	if err != nil || !strings.HasPrefix(reg.Key, "sha256:") {
		t.Fatalf("register = (%+v, %v)", reg, err)
	}

	resp, err := client.Classify(ctx, ClassifyRequest{
		Detector: reg.Key,
		Events:   []string{attrHITM, attrMiss},
		Vector:   []float64{0.55, 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Class != "bad-fs" || resp.Detector != reg.Key {
		t.Errorf("classify = %+v, want bad-fs via %s", resp, reg.Key)
	}

	list, err := client.Detectors(ctx)
	if err != nil || len(list.Detectors) == 0 {
		t.Fatalf("detectors = (%+v, %v)", list, err)
	}

	metrics, err := client.MetricsText(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{mReqClassify, mClassifySec + "_count"} {
		if !strings.Contains(metrics, series) {
			t.Errorf("metrics exposition missing %s:\n%s", series, metrics)
		}
	}

	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := client.Health(ctx); err == nil {
		t.Error("server still answering after Shutdown")
	}
}

// TestShutdownHonorsDeadline pins the bounded drain: an admitted
// classify handler stuck in lazy training must not hang Shutdown past
// its ctx deadline.
func TestShutdownHonorsDeadline(t *testing.T) {
	det := tinyDetector(t)
	release := make(chan struct{})
	running := make(chan struct{})
	s, client := newTestServer(t, Config{Train: func(TrainSpec) (*core.Detector, error) {
		close(running)
		<-release
		return det, nil
	}})
	handlerDone := make(chan struct{})
	go func() {
		defer close(handlerDone)
		_, _ = client.Classify(context.Background(), vectorRequest(0))
	}()
	// Registered after newTestServer's cleanup, so it runs first: the
	// stuck handler finishes before the test listener closes.
	t.Cleanup(func() {
		close(release)
		<-handlerDone
	})
	<-running
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Shutdown took %v despite a 50ms deadline", elapsed)
	}
}

// TestErrorLatencyObserved asserts error responses land in the request
// latency histogram, so operational percentiles include failures.
func TestErrorLatencyObserved(t *testing.T) {
	s, client := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := client.Classify(ctx, ClassifyRequest{}); err == nil {
		t.Fatal("empty classify request should fail")
	}
	if n := s.Metrics().HistogramCount(mRequestSec); n != 1 {
		t.Errorf("%s count = %d after one failed request, want 1", mRequestSec, n)
	}
}

// ---------------------------------------------------------------------------
// Benchmarks

// BenchmarkServeClassify measures concurrent JSON classify round trips
// (results recorded in EXPERIMENTS.md).
func BenchmarkServeClassify(b *testing.B) {
	_, client := newTestServer(b, Config{})
	// Warm the registry outside the timer.
	if _, err := client.Classify(context.Background(), vectorRequest(1)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.SetParallelism(8)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := client.Classify(context.Background(), vectorRequest(i)); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// ---------------------------------------------------------------------------
// Perf uploads

// perfFixture reads a checked-in perf capture from the perfingest
// golden corpus, so the serve tests exercise the same bytes the parser
// tests pin.
func perfFixture(t testing.TB, name string) []byte {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "perfingest", "testdata", name+".txt"))
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestClassifyPerfUpload drives POST /v1/classify with a raw
// text/x-perf-stat body end to end: a complete capture classifies
// cleanly, a capture missing the tree's root attribute degrades (the
// whole point of the robust path), and garbage is a 400, not a 500.
func TestClassifyPerfUpload(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	full, err := c.ClassifyPerf(ctx, "", perfFixture(t, "stat_human"))
	if err != nil {
		t.Fatal(err)
	}
	if full.Degraded || full.Confidence != 1 {
		t.Errorf("full capture: %+v, want clean classification", full)
	}
	if full.PerfFormat != "stat" {
		t.Errorf("perf_format = %q, want stat", full.PerfFormat)
	}
	wantUnmapped := false
	for _, u := range full.UnmappedEvents {
		wantUnmapped = wantUnmapped || u == "LLC-loads"
	}
	if !wantUnmapped {
		t.Errorf("unmapped_events = %v, want LLC-loads reported", full.UnmappedEvents)
	}

	// stat_missing has no HITM event — the tiny detector's root split —
	// so the verdict must be degraded, not an error.
	deg, err := c.ClassifyPerf(ctx, "", perfFixture(t, "stat_missing"))
	if err != nil {
		t.Fatal(err)
	}
	if !deg.Degraded || deg.Confidence >= 1 || len(deg.Suspects) == 0 {
		t.Errorf("missing-events capture: %+v, want degraded verdict with suspects", deg)
	}

	_, err = c.ClassifyPerf(ctx, "", []byte("complete garbage : here"))
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("garbage upload err = %v, want 400", err)
	}

	_, err = c.ClassifyPerf(ctx, "no-such-detector", perfFixture(t, "stat_human"))
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("unknown detector err = %v, want 404", err)
	}
}

// TestClassifyPerfContentTypeParams: the media type may carry
// parameters (charset) without being mistaken for the JSON envelope.
func TestClassifyPerfContentTypeParams(t *testing.T) {
	_, c := newTestServer(t, Config{})
	req, err := http.NewRequest(http.MethodPost, c.BaseURL+"/v1/classify",
		bytes.NewReader(perfFixture(t, "stat_csv")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", PerfContentType+"; charset=utf-8")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || out.PerfFormat != "stat-csv" {
		t.Errorf("status %d, %+v; want 200 with perf_format stat-csv", resp.StatusCode, out)
	}
}
