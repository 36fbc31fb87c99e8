package serve

// Tests of the ensemble side of the serving layer: key parsing,
// classifying with an ensemble key (and the ?ensemble=1 route that
// defaults to one), ensemble keys' warm start, quarantine and
// circuit breaker in the one registry, and the detector listing. Like the rest of the suite,
// almost everything runs against a tiny hand-built model; only
// TestEnsembleTrainsBaseOnce pays for real quick training, because it
// pins the default trainer.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fsml/internal/core"
	"fsml/internal/dataset"
	"fsml/internal/ensemble"
	"fsml/internal/exps"
	"fsml/internal/pmu"
)

// vecSample wraps a pre-normalized vector the way vectorSample does:
// a synthetic sample with an instruction normalizer of 1.
func vecSample(names []string, vec []float64) pmu.Sample {
	return pmu.Sample{Names: names, Counts: vec, Instructions: 1}
}

// Attribute names of the tiny test ensemble. The wide space extends the
// tiny detector's two attributes with synthetic pathology markers — two
// correlated markers per class, so every bagged feature subset keeps at
// least one of them.
var tinyWideAttrs = []string{
	attrHITM, "FS.SECONDARY",
	attrMiss,
	"TLB.WALK_A", "TLB.WALK_B",
	"GOOD.MARK_A", "GOOD.MARK_B",
}

// tinyWideSignature maps each label to the indexes of its spike
// attributes in tinyWideAttrs.
var tinyWideSignature = map[string][]int{
	"bad-fs":     {0, 1},
	"tlb-thrash": {3, 4},
	"good":       {5, 6},
}

// tinyWideVector builds one feature vector for a label: low noise
// everywhere, a spike on the label's signature attributes.
func tinyWideVector(label string, i int) []float64 {
	fv := make([]float64, len(tinyWideAttrs))
	for j := range fv {
		fv[j] = 0.01 + float64((i+j)%7)*0.001
	}
	for _, j := range tinyWideSignature[label] {
		fv[j] = 2 + float64(i)*0.01
	}
	return fv
}

// tinyWideDataset labels a dozen tinyWideVectors per class.
func tinyWideDataset(t testing.TB) *dataset.Dataset {
	t.Helper()
	d := dataset.New(tinyWideAttrs)
	for label := range tinyWideSignature {
		for i := 0; i < 12; i++ {
			if err := d.Add(dataset.Instance{Features: tinyWideVector(label, i), Label: label}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

// tinyEnsembleSpec grows the tiny test ensembles.
var tinyEnsembleSpec = ensemble.Spec{Members: 3, Sample: 0.8, Seed: 5}

// tinyEnsemble hand-builds a deterministic three-class ensemble around
// the tiny detector.
func tinyEnsemble(t testing.TB) *ensemble.Detector {
	t.Helper()
	det, err := ensemble.Train(tinyWideDataset(t), tinyDetector(t), tinyEnsembleSpec)
	if err != nil {
		t.Fatalf("training tiny ensemble: %v", err)
	}
	return det
}

// newEnsembleTestServer wires a server whose registry serves the tiny
// ensemble instantly.
func newEnsembleTestServer(t testing.TB) (*Server, *Client) {
	t.Helper()
	ens := tinyEnsemble(t)
	return newTestServer(t, Config{
		TrainEnsemble: func(EnsembleSpec) (*ensemble.Detector, error) { return ens, nil },
	})
}

// defaultEnsembleKey is the key the ?ensemble=1 route fills in when a
// request names none.
var defaultEnsembleKey = EnsembleSpec{Quick: true, Seed: 1}.Key()

// ensembleRequest is req addressed to the default ensemble by key.
func ensembleRequest(req ClassifyRequest) ClassifyRequest {
	req.Detector = defaultEnsembleKey
	return req
}

// postEnsembleRoute posts req as JSON to POST /v1/classify?ensemble=1,
// the server route that defaults the key to the ensemble's, and
// returns the status with the decoded body: the verdict on 200, the
// error message otherwise.
func postEnsembleRoute(t *testing.T, base string, req ClassifyRequest) (int, *ClassifyResponse, string) {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/classify?ensemble=1", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("decoding %d error body: %v", resp.StatusCode, err)
		}
		return resp.StatusCode, nil, e.Error
	}
	var out ClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, &out, ""
}

func TestEnsembleSpecKeyRoundTrip(t *testing.T) {
	for _, spec := range []EnsembleSpec{
		{Quick: true, Seed: 1},
		{Quick: false, Seed: 42},
		{Quick: true, Seed: 0}, // canonicalizes to seed=1
	} {
		key := spec.Key()
		got, ok := parseSpecKey(key, ensemblePrefix)
		if !ok {
			t.Fatalf("parseSpecKey(%q) rejected its own Key", key)
		}
		want := spec
		if want.Seed == 0 {
			want.Seed = 1
		}
		if EnsembleSpec(got) != want {
			t.Errorf("round trip %q: got %+v, want %+v", key, got, want)
		}
	}
	for _, bad := range []string{
		"", "ensemble:", "train:quick=true,seed=1",
		"ensemble:quick=2,seed=1", "ensemble:frob=1", "ensemble:quick",
	} {
		if _, ok := parseSpecKey(bad, ensemblePrefix); ok {
			t.Errorf("parseSpecKey(%q) accepted a malformed key", bad)
		}
	}
}

// TestEnsembleTrainsBaseOnce pins the default ensemble trainer: a
// 3-class classify followed by an ?ensemble=1 classify trains the quick
// seed-1 base detector exactly once, because the ensemble resolves its
// base through the detector registry, and the ensemble the server
// builds is byte-identical to the lab's.
func TestEnsembleTrainsBaseOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("trains the quick detector and ensemble")
	}
	lab := &exps.Lab{Quick: true, Seed: 1}
	var trains atomic.Int64
	s, client := newTestServer(t, Config{Train: func(spec TrainSpec) (*core.Detector, error) {
		trains.Add(1)
		if spec != (TrainSpec{Quick: true, Seed: 1}) {
			return nil, fmt.Errorf("unexpected train spec %+v", spec)
		}
		return lab.Detector()
	}})
	ctx := context.Background()
	// A replayed trace measures every event, so it suits both the
	// 3-class detector and the ensemble.
	req := ClassifyRequest{Trace: []byte(strings.Repeat("T0 S 0x1000 x8\nT0 E 40\nT1 S 0x1008 x8\nT1 E 40\n", 200))}
	if _, err := client.Classify(ctx, req); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Classify(ctx, ensembleRequest(req)); err != nil {
		t.Fatal(err)
	}
	if n := trains.Load(); n != 1 {
		t.Errorf("base detector trained %d times, want 1", n)
	}

	c, _, err := s.reg.Lookup(ctx, defaultEnsembleKey)
	if err != nil {
		t.Fatal(err)
	}
	served := c.(*ensemble.Detector)
	base, _, err := s.reg.Get(ctx, TrainSpec{Quick: true, Seed: 1}.Key())
	if err != nil {
		t.Fatal(err)
	}
	if served.Base != base {
		t.Error("the ensemble's base is not the registry's detector: it was trained separately")
	}
	want, err := lab.Ensemble()
	if err != nil {
		t.Fatal(err)
	}
	gotBlob, err := served.Encode()
	if err != nil {
		t.Fatal(err)
	}
	wantBlob, err := want.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBlob, wantBlob) {
		t.Error("served ensemble differs from exps.Lab{Quick: true, Seed: 1}.Ensemble()")
	}
}

// TestClassifyRouteEnsembleDefaultKey drives POST /v1/classify?ensemble=1
// through the real HTTP stack: a request naming no key gets the default
// ensemble's ranked multi-label verdict, the same one a plain classify
// naming that key gets. The same vector without either must keep the
// single-detector wire shape (no pathologies field).
func TestClassifyRouteEnsembleDefaultKey(t *testing.T) {
	_, client := newEnsembleTestServer(t)
	req := ClassifyRequest{Events: tinyWideAttrs, Vector: tinyWideVector("tlb-thrash", 99)}

	status, resp, msg := postEnsembleRoute(t, client.BaseURL, req)
	if status != http.StatusOK {
		t.Fatalf("?ensemble=1 answered %d: %s", status, msg)
	}
	if resp.Class != "tlb-thrash" {
		t.Errorf("top class %q, want tlb-thrash (pathologies %v)", resp.Class, resp.Pathologies)
	}
	if resp.Detector != defaultEnsembleKey {
		t.Errorf("detector key %q, want %q", resp.Detector, defaultEnsembleKey)
	}
	byKey, err := client.Classify(context.Background(), ensembleRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(byKey, resp) {
		t.Errorf("classify by key = %+v, want the ?ensemble=1 verdict %+v", byKey, resp)
	}
	if len(resp.Pathologies) != 3 {
		t.Fatalf("got %d pathologies, want 3: %v", len(resp.Pathologies), resp.Pathologies)
	}
	sum := 0.0
	for i, p := range resp.Pathologies {
		sum += p.Score
		if i > 0 && p.Score > resp.Pathologies[i-1].Score {
			t.Errorf("pathologies not ranked descending: %v", resp.Pathologies)
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("pathology scores sum to %v, want 1", sum)
	}
	if resp.Pathologies[0].Class != resp.Class || resp.Pathologies[0].Score != resp.Confidence {
		t.Errorf("Class/Confidence (%q %v) do not mirror the top entry %v", resp.Class, resp.Confidence, resp.Pathologies[0])
	}

	// Without the opt-in the request hits the single detector: its two
	// attributes, no pathology ranking on the wire.
	plain, err := client.Classify(context.Background(), ClassifyRequest{
		Events: []string{attrHITM, attrMiss}, Vector: []float64{0.6, 0.05},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Pathologies != nil {
		t.Errorf("plain classify grew a pathologies field: %v", plain.Pathologies)
	}
	if plain.Class != "bad-fs" {
		t.Errorf("plain classify: %q, want bad-fs", plain.Class)
	}
}

// TestEnsembleVerdictCarriesMissingEvents pins that an ensemble
// verdict on a sample lacking some of the ensemble's attributes names
// them on the wire, the way the local verdict does.
func TestEnsembleVerdictCarriesMissingEvents(t *testing.T) {
	_, client := newEnsembleTestServer(t)
	events, vec := tinyWideAttrs[:3], tinyWideVector("bad-fs", 3)[:3]
	resp, err := client.Classify(context.Background(), ensembleRequest(ClassifyRequest{Events: events, Vector: vec}))
	if err != nil {
		t.Fatal(err)
	}
	local, err := tinyEnsemble(t).ClassifyRobust(vecSample(events, vec))
	if err != nil {
		t.Fatal(err)
	}
	if len(local.MissingEvents) == 0 || !reflect.DeepEqual(resp.MissingEvents, local.MissingEvents) {
		t.Errorf("wire missing events %v, want the local verdict's %v", resp.MissingEvents, local.MissingEvents)
	}
}

// TestClassifyRouteEnsembleRejectsForeignKey pins that the two key families
// do not decode into each other: asking the ensemble path for a
// single-detector key is a client error, not a silent fallback.
func TestClassifyRouteEnsembleRejectsForeignKey(t *testing.T) {
	_, client := newEnsembleTestServer(t)
	req := ClassifyRequest{
		Detector: TrainSpec{Quick: true, Seed: 1}.Key(),
		Events:   tinyWideAttrs, Vector: tinyWideVector("good", 3),
	}
	status, _, msg := postEnsembleRoute(t, client.BaseURL, req)
	if status != http.StatusBadRequest {
		t.Fatalf("got %d (%s), want 400", status, msg)
	}
	if !strings.Contains(msg, "not an ensemble key") {
		t.Errorf("error %q does not name the key family mismatch", msg)
	}
}

// TestClassifyKeyFamilyDecides pins that the key family, not the
// ?ensemble=1 opt-in, decides the classifier: a plain classify naming a
// persisted ensemble key gets the ensemble's own ranked verdict, and
// the ensemble's model file is neither misread as a detector nor
// quarantined.
func TestClassifyKeyFamilyDecides(t *testing.T) {
	dir := t.TempDir()
	ens := tinyEnsemble(t)
	_, client := newTestServer(t, Config{
		RegistryDir:   dir,
		TrainEnsemble: func(EnsembleSpec) (*ensemble.Detector, error) { return ens, nil },
	})
	ctx := context.Background()
	req := ensembleRequest(ClassifyRequest{Events: tinyWideAttrs, Vector: tinyWideVector("tlb-thrash", 4)})
	want, err := ens.ClassifyRobust(vecSample(req.Events, req.Vector))
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.Classify(ctx, req)
	if err != nil {
		t.Fatalf("plain classify of %s: %v", req.Detector, err)
	}
	if got.Class != want.Class || !reflect.DeepEqual(got.Pathologies, want.Pathologies) {
		t.Errorf("plain classify of %s = %+v, want the ensemble verdict %+v", req.Detector, got, want)
	}
	path := filepath.Join(dir, "ensemble-quick=true,seed=1.json")
	if _, err := os.Stat(quarantinePath(path)); err == nil {
		t.Error("the ensemble model file was quarantined as a corrupt detector")
	}
}

// TestDetectorPathsRejectEnsembleKeys pins the other direction: the
// paths that need a 3-class detector answer an ensemble key with a 400
// before any ensemble training starts.
func TestDetectorPathsRejectEnsembleKeys(t *testing.T) {
	var trains atomic.Int64
	s, client := newTestServer(t, Config{
		TrainEnsemble: func(EnsembleSpec) (*ensemble.Detector, error) {
			trains.Add(1)
			return nil, errors.New("must not train")
		},
	})
	ctx := context.Background()
	key := EnsembleSpec{Quick: true, Seed: 1}.Key()
	_, binErr := client.ClassifyBinary(ctx, &BinClassifyRequest{Detector: key, Width: 2, Vecs: []float64{0.55, 0.05}})
	_, repErr := client.Report(ctx, ReportRequest{Program: "histogram", Detector: key})
	for name, err := range map[string]error{"classify-bin": binErr, "report": repErr} {
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
			t.Errorf("%s with %s: %v, want a 400 APIError", name, key, err)
		}
	}
	if _, err := s.reg.Resolve(key); err == nil {
		t.Error("Resolve served an ensemble key as a detector")
	}
	if n := trains.Load(); n != 0 {
		t.Errorf("ensemble trained %d times for detector-only paths", n)
	}
}

// TestEnsembleRegistryWarmStartAndQuarantine exercises the disk side of
// ensemble keys: the first Lookup trains and persists under the
// ensemble-<spec>.json name, a fresh registry over the same dir
// warm-starts without training, and a corrupted model file is
// quarantined and retrained instead of poisoning the server.
func TestEnsembleRegistryWarmStartAndQuarantine(t *testing.T) {
	dir := t.TempDir()
	ens := tinyEnsemble(t)
	var trains atomic.Int64
	train := func(EnsembleSpec) (*ensemble.Detector, error) {
		trains.Add(1)
		return ens, nil
	}
	key := EnsembleSpec{Quick: true, Seed: 1}.Key()

	reg1 := NewRegistry(RegistryConfig{Dir: dir, TrainEnsemble: train})
	if _, _, err := reg1.Lookup(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	if n := trains.Load(); n != 1 {
		t.Fatalf("trained %d times, want 1", n)
	}
	path := filepath.Join(dir, "ensemble-quick=true,seed=1.json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("model file not persisted: %v", err)
	}

	reg2 := NewRegistry(RegistryConfig{Dir: dir, TrainEnsemble: train})
	got, _, err := reg2.Lookup(context.Background(), key)
	if err != nil {
		t.Fatal(err)
	}
	if n := trains.Load(); n != 1 {
		t.Fatalf("warm start trained anyway (%d trainings)", n)
	}
	if res, _ := got.ClassifyRobust(vecSample(tinyWideAttrs, tinyWideVector("bad-fs", 7))); res.Class != "bad-fs" {
		t.Errorf("warm-started ensemble classifies bad-fs vector as %q", res.Class)
	}

	if err := os.WriteFile(path, []byte("{definitely not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	reg3 := NewRegistry(RegistryConfig{Dir: dir, TrainEnsemble: train, Metrics: m})
	if _, _, err := reg3.Lookup(context.Background(), key); err != nil {
		t.Fatal(err)
	}
	if n := trains.Load(); n != 2 {
		t.Fatalf("corrupt file: trained %d times total, want 2 (retrain)", n)
	}
	if _, err := os.Stat(quarantinePath(path)); err != nil {
		t.Errorf("corrupt model not quarantined: %v", err)
	}
	if m.Counter(mQuarantined) != 1 {
		t.Errorf("quarantine counter %d, want 1", m.Counter(mQuarantined))
	}
	// The quarantined file was replaced by a fresh persist, in the
	// ensemble's own serialization.
	want, err := ens.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if blob, err := os.ReadFile(path); err != nil || !bytes.Equal(blob, want) {
		t.Errorf("retrained model not re-persisted as ens.Encode(): %v", err)
	}
}

// TestEnsembleTrainingBreakerOpens pins that an ensemble spec whose
// training keeps failing trips the registry's circuit breaker: after
// BreakerThreshold failures the next classify by ensemble key fails fast
// with 503 and Retry-After without calling the trainer, and /readyz
// names the ensemble key among the open breakers.
func TestEnsembleTrainingBreakerOpens(t *testing.T) {
	const threshold = 2
	var trains atomic.Int64
	_, client := newTestServer(t, Config{
		BreakerThreshold: threshold,
		BreakerCooldown:  time.Hour,
		TrainEnsemble: func(EnsembleSpec) (*ensemble.Detector, error) {
			trains.Add(1)
			return nil, errors.New("synthetic widened-grid failure")
		},
	})
	ctx := context.Background()
	req := ensembleRequest(ClassifyRequest{Events: tinyWideAttrs, Vector: tinyWideVector("good", 1)})
	for i := 0; i < threshold; i++ {
		if _, err := client.Classify(ctx, req); err == nil {
			t.Fatalf("attempt %d over a failing trainer succeeded", i)
		}
	}
	_, err := client.Classify(ctx, req)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.RetryAfter <= 0 {
		t.Fatalf("after %d failures: %v, want 503 with Retry-After", threshold, err)
	}
	if n := trains.Load(); n != threshold {
		t.Errorf("trainer ran %d times, want %d: the open circuit must not train", n, threshold)
	}
	rr, err := client.Ready(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Ready || len(rr.OpenBreakers) != 1 || rr.OpenBreakers[0] != defaultEnsembleKey {
		t.Fatalf("readyz = %+v, want not ready with open breaker %s", rr, defaultEnsembleKey)
	}
}

// TestColdConcurrentClassifiesTrainOnce fires concurrent cold
// ensemble-key and default-key classifies at one registry. Default-key
// requests resolve the default train: key directly; the ensemble trainer
// resolves the same key through a nested Get for its base. Both
// singleflights must hold: the base trains once, the ensemble once,
// around the registry's own base.
func TestColdConcurrentClassifiesTrainOnce(t *testing.T) {
	base := tinyDetector(t)
	wide := tinyWideDataset(t)
	var baseTrains, ensTrains atomic.Int64
	var s *Server
	s, client := newTestServer(t, Config{
		Train: func(TrainSpec) (*core.Detector, error) {
			baseTrains.Add(1)
			time.Sleep(20 * time.Millisecond) // widen the race window
			return base, nil
		},
		TrainEnsemble: func(spec EnsembleSpec) (*ensemble.Detector, error) {
			ensTrains.Add(1)
			b, _, err := s.Registry().Get(context.Background(), TrainSpec(spec).Key())
			if err != nil {
				return nil, err
			}
			return ensemble.Train(wide, b, tinyEnsembleSpec)
		},
	})
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				resp, err := client.Classify(ctx, ensembleRequest(ClassifyRequest{Events: tinyWideAttrs, Vector: tinyWideVector("tlb-thrash", i)}))
				if err != nil || resp.Class != "tlb-thrash" {
					t.Errorf("ensemble classify %d = (%+v, %v), want tlb-thrash", i, resp, err)
				}
				return
			}
			resp, err := client.Classify(ctx, ClassifyRequest{Events: []string{attrHITM, attrMiss}, Vector: []float64{0.55, 0.05}})
			if err != nil || resp.Class != "bad-fs" {
				t.Errorf("plain classify %d = (%+v, %v), want bad-fs", i, resp, err)
			}
		}(i)
	}
	wg.Wait()
	if n := baseTrains.Load(); n != 1 {
		t.Errorf("base trained %d times, want 1", n)
	}
	if n := ensTrains.Load(); n != 1 {
		t.Errorf("ensemble trained %d times, want 1", n)
	}
	c, _, err := s.reg.Lookup(ctx, defaultEnsembleKey)
	if err != nil {
		t.Fatal(err)
	}
	if c.(*ensemble.Detector).Base != base {
		t.Error("the ensemble's base is not the registry's detector")
	}
}

// TestDetectorsListIncludesEnsembles pins that GET /v1/detectors shows
// resident ensembles beside the single detectors, and that the disk
// listing reverses the ensemble key mangling.
func TestDetectorsListIncludesEnsembles(t *testing.T) {
	ens := tinyEnsemble(t)
	dir := t.TempDir()
	_, client := newTestServer(t, Config{
		RegistryDir:   dir,
		TrainEnsemble: func(EnsembleSpec) (*ensemble.Detector, error) { return ens, nil },
	})
	key := defaultEnsembleKey
	if _, err := client.Classify(context.Background(), ensembleRequest(ClassifyRequest{
		Events: tinyWideAttrs, Vector: tinyWideVector("good", 1),
	})); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Detectors(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, d := range resp.Detectors {
		if d.Key == key {
			found = true
			if d.State != "ready" {
				t.Errorf("ensemble entry state %q, want ready", d.State)
			}
		}
	}
	if !found {
		t.Errorf("detector listing %v misses the resident ensemble %q", resp.Detectors, key)
	}
	health, err := client.Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ready, err := client.Ready(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(resp.Detectors); health.Detectors != n || ready.Detectors != n {
		t.Errorf("healthz counts %d detectors, readyz %d, listing %d: the counts must agree", health.Detectors, ready.Detectors, n)
	}
	diskHasKey := false
	for _, k := range resp.Disk {
		if k == key {
			diskHasKey = true
		}
	}
	if !diskHasKey {
		t.Errorf("disk listing %v misses the persisted ensemble %q", resp.Disk, key)
	}
}
