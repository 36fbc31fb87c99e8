package serve

// The ensemble side of the serving layer. Multi-pathology ensembles get
// their own key family ("ensemble:quick=...,seed=...") and their own
// small registry: they are few, expensive to train, and decode to a
// different type than core detectors, so sharing the LRU would buy
// nothing but type assertions. Classify requests opt in per request with
// ?ensemble=1 and get the ranked pathologies back in the response.

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"fsml/internal/core"
	"fsml/internal/ensemble"
	"fsml/internal/pmu"
)

// EnsembleSpec identifies a lazily trainable ensemble: the collection
// options that matter for the resulting model. Its Key is canonical.
type EnsembleSpec struct {
	// Quick selects the reduced widened grids.
	Quick bool
	// Seed drives collection and bagging determinism (0 means 1).
	Seed uint64
}

// Key returns the canonical registry key of the spec.
func (s EnsembleSpec) Key() string {
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	return fmt.Sprintf("ensemble:quick=%t,seed=%d", s.Quick, seed)
}

// parseEnsembleKey parses an "ensemble:quick=...,seed=..." registry key.
func parseEnsembleKey(key string) (EnsembleSpec, bool) {
	rest, ok := strings.CutPrefix(key, "ensemble:")
	if !ok {
		return EnsembleSpec{}, false
	}
	spec := EnsembleSpec{}
	for _, part := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return EnsembleSpec{}, false
		}
		switch k {
		case "quick":
			b, err := strconv.ParseBool(v)
			if err != nil {
				return EnsembleSpec{}, false
			}
			spec.Quick = b
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return EnsembleSpec{}, false
			}
			spec.Seed = n
		default:
			return EnsembleSpec{}, false
		}
	}
	return spec, true
}

// ensembleEntry is one slot; ready closes once det/err are final.
type ensembleEntry struct {
	source string
	ready  chan struct{}
	det    *ensemble.Detector
	err    error
}

// ensembleRegistry caches trained ensembles by spec key, with
// singleflight lazy training and the same crash-safe disk side as the
// detector registry (same dir, "ensemble-" file prefix). No LRU: a
// server realistically holds a handful of ensembles, and evicting one
// would re-trigger full widened-grid training.
type ensembleRegistry struct {
	dir     string
	train   func(spec EnsembleSpec) (*ensemble.Detector, error)
	metrics *Metrics

	mu      sync.Mutex
	entries map[string]*ensembleEntry
}

// newEnsembleRegistry wires the lazy trainer (cfg.TrainEnsemble for
// tests, else Server.trainEnsemble).
func newEnsembleRegistry(dir string, train func(spec EnsembleSpec) (*ensemble.Detector, error), m *Metrics) *ensembleRegistry {
	return &ensembleRegistry{dir: dir, train: train, metrics: m, entries: map[string]*ensembleEntry{}}
}

// trainEnsemble is the default ensemble trainer: the widened-grid
// pipeline around the 3-class detector of the same quick/seed spec. The
// base resolves through the detector registry, so a server that already
// holds it (resident or on disk) does not train it twice, and its
// training shares the registry's singleflight and breaker.
func (s *Server) trainEnsemble(spec EnsembleSpec) (*ensemble.Detector, error) {
	seed := spec.Seed
	if seed == 0 {
		seed = 1
	}
	ctx := context.Background()
	base, _, err := s.reg.Get(ctx, TrainSpec{Quick: spec.Quick, Seed: seed}.Key())
	if err != nil {
		return nil, err
	}
	cfg := ensemble.TrainConfig{Quick: spec.Quick, Seed: seed, Parallelism: s.cfg.Parallelism}
	return ensemble.TrainContext(ctx, cfg, base)
}

func (r *ensembleRegistry) count(name string) {
	if r.metrics != nil {
		r.metrics.Add(name, 1)
	}
}

// fileFor maps a key to its model file ("ensemble:..." -> "ensemble-...").
func (r *ensembleRegistry) fileFor(key string) string {
	return filepath.Join(r.dir, strings.ReplaceAll(key, ":", "-")+".json")
}

// Get returns the ensemble for key, loading or training it on first use
// (singleflight, like the detector registry).
func (r *ensembleRegistry) Get(ctx context.Context, key string) (*ensemble.Detector, error) {
	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		r.mu.Unlock()
		r.count(mRegistryHits)
		select {
		case <-e.ready:
			return e.det, e.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	e := &ensembleEntry{ready: make(chan struct{})}
	r.entries[key] = e
	r.mu.Unlock()
	r.count(mRegistryMisses)

	det, source, err := r.load(key)
	r.mu.Lock()
	e.det, e.source, e.err = det, source, err
	close(e.ready)
	if err != nil {
		if r.entries[key] == e {
			delete(r.entries, key)
		}
	}
	r.mu.Unlock()
	return det, err
}

// load resolves a missing key: disk warm start first (corrupt files
// quarantined, then retrained), then lazy training.
func (r *ensembleRegistry) load(key string) (*ensemble.Detector, string, error) {
	spec, isSpec := parseEnsembleKey(key)
	if !isSpec {
		return nil, "", &UnknownDetectorError{Key: key}
	}
	if r.dir != "" {
		path := r.fileFor(key)
		blob, err := os.ReadFile(path)
		switch {
		case err == nil:
			det, derr := ensemble.Decode(blob)
			if derr == nil {
				return det, "disk", nil
			}
			if qerr := os.Rename(path, quarantinePath(path)); qerr != nil {
				return nil, "", fmt.Errorf("serve: ensemble warm start from %s: %w (quarantine failed: %v)", path, derr, qerr)
			}
			r.count(mQuarantined)
			// Retrain below as if the file never existed.
		case !errors.Is(err, fs.ErrNotExist):
			return nil, "", fmt.Errorf("serve: ensemble warm start reading %s: %w", path, err)
		}
	}
	det, err := r.train(spec)
	if err != nil {
		return nil, "", fmt.Errorf("serve: training %s: %w", key, err)
	}
	r.persist(key, det)
	return det, "trained", nil
}

// persist writes the model file crash-safe; best effort like the
// detector registry.
func (r *ensembleRegistry) persist(key string, det *ensemble.Detector) {
	if r.dir == "" {
		return
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return
	}
	_ = det.SaveFile(r.fileFor(key))
}

// List returns resident ensemble entries for the detector listing,
// sorted by key.
func (r *ensembleRegistry) List() []DetectorInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DetectorInfo, 0, len(r.entries))
	for key, e := range r.entries {
		info := DetectorInfo{Key: key, State: "loading", Source: e.source}
		select {
		case <-e.ready:
			if e.err == nil {
				info.State = "ready"
			}
		default:
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// ---------------------------------------------------------------------------
// Request plumbing

// ensembleRequested reports whether a classify request opted into the
// multi-pathology ensemble via ?ensemble=1 (any true-ish boolean works).
func ensembleRequested(q string) bool {
	if q == "" {
		return false
	}
	b, err := strconv.ParseBool(q)
	return err == nil && b
}

// ensembleDetector resolves a request's ensemble key. An empty key means
// the default quick spec with the default seed; a non-ensemble key is a
// client error — the two key families do not decode into each other.
func (s *Server) ensembleDetector(ctx context.Context, key string) (*ensemble.Detector, string, error) {
	if key == "" {
		key = EnsembleSpec{Quick: true, Seed: 1}.Key()
	}
	if _, ok := parseEnsembleKey(key); !ok {
		return nil, key, badRequestf("classify: %q is not an ensemble key (want ensemble:quick=...,seed=...)", key)
	}
	det, err := s.ens.Get(ctx, key)
	if err != nil {
		return nil, key, err
	}
	return det, key, nil
}

// verdictor abstracts "whatever classifies this sample": the single
// detector or the ensemble. Exactly one field is set.
type verdictor struct {
	det *core.Detector
	ens *ensemble.Detector
}

// attrs returns the classifier's expected event list (for vector
// requests that name no events).
func (v verdictor) attrs() []string {
	switch {
	case v.ens != nil:
		return v.ens.Attrs
	case v.det != nil && v.det.Tree != nil:
		return v.det.Tree.Attrs
	default:
		return pmu.FeatureNames()
	}
}

// classify runs the sample through whichever classifier is set. The
// ranked pathologies are non-nil only on the ensemble path.
func (v verdictor) classify(s pmu.Sample) (core.RobustResult, []ensemble.PathologyScore, error) {
	if v.ens != nil {
		res, err := v.ens.ClassifyRobust(s)
		if err != nil {
			return core.RobustResult{}, nil, err
		}
		rr := core.RobustResult{Class: res.Class, Confidence: res.Confidence, Degraded: res.Degraded, Suspects: res.Suspects}
		return rr, res.Pathologies, nil
	}
	rr, err := v.det.ClassifyRobust(s)
	return rr, nil, err
}
