package serve

// The detector registry: an LRU-bounded cache of trained classifiers,
// keyed by family. "sha256:" keys hold uploaded core.Detectors,
// "train:" keys lazily trained ones, and "ensemble:" keys lazily trained
// multi-pathology ensembles. Classifiers enter it three ways — uploaded
// over the wire (POST /v1/detectors), warm-loaded from a disk directory
// of serialized models, or trained lazily on first use from a spec key.
// Concurrent requests for the same untrained key share one training run
// (singleflight): the first caller does the work, everyone else waits on
// the entry, and nobody trains twice.

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fsml/internal/core"
	"fsml/internal/ensemble"
	"fsml/internal/exps"
	"fsml/internal/fsatomic"
	"fsml/internal/resilience"
)

// Classifier is what the registry holds under every key family: the
// 3-class *core.Detector under "train:" and "sha256:" keys, the
// multi-pathology *ensemble.Detector under "ensemble:" keys.
type Classifier interface {
	// ClassifyRobust returns the verdict; only ensembles rank
	// pathologies.
	core.Classifier
	// Encode serializes the model for the registry dir.
	Encode() ([]byte, error)
	// Features lists the events an unnamed vector is read as, in order.
	Features() []string
}

// The lazily trainable key families. A key's prefix decides its
// classifier type, its model decoder and its trainer.
const (
	trainPrefix    = "train:"
	ensemblePrefix = "ensemble:"
)

// TrainSpec identifies a lazily trainable detector: the training options
// that matter for the resulting model. Its Key is canonical, so two
// requests that mean the same training land on the same registry entry.
type TrainSpec struct {
	// Quick selects the reduced collection grids.
	Quick bool
	// Seed drives collection and training determinism (0 means 1).
	Seed uint64
}

// Key returns the canonical registry key of the spec.
func (s TrainSpec) Key() string { return s.key(trainPrefix) }

// seed resolves the zero seed to 1.
func (s TrainSpec) seed() uint64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// key renders the canonical "<prefix>quick=...,seed=..." key.
func (s TrainSpec) key(prefix string) string {
	return fmt.Sprintf("%squick=%t,seed=%d", prefix, s.Quick, s.seed())
}

// EnsembleSpec identifies a lazily trainable ensemble: the widened-grid
// pipeline around the 3-class detector of the same Quick/Seed
// TrainSpec. Its Key is canonical.
type EnsembleSpec TrainSpec

// Key returns the canonical registry key of the spec.
func (s EnsembleSpec) Key() string { return TrainSpec(s).key(ensemblePrefix) }

// parseSpecKey parses a "<prefix>quick=...,seed=..." registry key of
// one trainable family.
func parseSpecKey(key, prefix string) (TrainSpec, bool) {
	rest, ok := strings.CutPrefix(key, prefix)
	if !ok {
		return TrainSpec{}, false
	}
	spec := TrainSpec{}
	for _, part := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(part, "=")
		if !ok {
			return TrainSpec{}, false
		}
		switch k {
		case "quick":
			b, err := strconv.ParseBool(v)
			if err != nil {
				return TrainSpec{}, false
			}
			spec.Quick = b
		case "seed":
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return TrainSpec{}, false
			}
			spec.Seed = n
		default:
			return TrainSpec{}, false
		}
	}
	return spec, true
}

// ContentKey returns the content-hash registry key of a serialized
// detector: "sha256:" plus the first 16 hex digits of the SHA-256 of its
// canonical encoding. Registering byte-identical models is idempotent.
func ContentKey(encoded []byte) string {
	sum := sha256.Sum256(encoded)
	return "sha256:" + hex.EncodeToString(sum[:])[:16]
}

// ModelKey returns the registry key a serialized model will register
// under: the content hash of its canonical re-encoding (Register
// re-encodes, so a semantically identical model with different JSON
// whitespace still lands on the same key). The fleet replicator uses it
// to place an upload on the hash ring before any peer has decoded it.
func ModelKey(model []byte) (string, error) {
	det, err := core.DecodeDetector(model)
	if err != nil {
		return "", err
	}
	encoded, err := det.Encode()
	if err != nil {
		return "", err
	}
	return ContentKey(encoded), nil
}

// RegistryConfig configures a Registry.
type RegistryConfig struct {
	// Capacity bounds the resident detectors (LRU eviction; default 8).
	Capacity int
	// Dir, when non-empty, is the disk side of the registry: models are
	// persisted there as <key>.json after upload or training, and a Get
	// miss checks it before training (warm start across restarts).
	Dir string
	// Parallelism caps concurrent case simulations during lazy training
	// (0 = GOMAXPROCS).
	Parallelism int
	// Train overrides the lazy trainer (tests inject counting or instant
	// trainers). Nil selects the exps.Lab pipeline.
	Train func(spec TrainSpec) (*core.Detector, error)
	// TrainEnsemble overrides the lazy ensemble trainer (tests). Nil
	// selects the widened-grid pipeline around the base detector that a
	// nested Get of the matching train: key resolves.
	TrainEnsemble func(spec EnsembleSpec) (*ensemble.Detector, error)
	// Metrics, when non-nil, receives hit/miss/eviction counts.
	Metrics *Metrics
	// BreakerThreshold is the consecutive training failures that open a
	// spec key's circuit breaker, after which requests for that spec
	// fail fast instead of re-running full training (default 3;
	// negative disables the breakers).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before letting
	// one half-open probe retrain (default 15s).
	BreakerCooldown time.Duration
	// Now overrides the breakers' time source (tests).
	Now func() time.Time
}

// entry is one registry slot. ready is closed once c/err are final;
// until then the entry is "loading" and Lookup calls wait on it. c,
// source, and err are only ever written under Registry.mu, so List may
// read them under the lock without waiting on ready.
type entry struct {
	key    string
	source string // "upload" | "disk" | "trained"
	ready  chan struct{}
	c      Classifier
	err    error
	elem   *list.Element
}

// DetectorInfo is one row of a registry listing.
type DetectorInfo struct {
	Key    string `json:"key"`
	State  string `json:"state"`  // "ready" | "loading"
	Source string `json:"source"` // "upload" | "disk" | "trained"
	// TrainedOn is the training-set composition (ready entries only).
	TrainedOn map[string]int `json:"trained_on,omitempty"`
}

// Registry is the classifier cache. Safe for concurrent use.
type Registry struct {
	cfg RegistryConfig

	mu       sync.Mutex
	entries  map[string]*entry
	lru      *list.List // front = most recently used; values are *entry
	breakers map[string]*resilience.Breaker
	// active maps logical detector names to their version pointers. The
	// keys a pointer references (current and retained previous) are
	// pinned against LRU eviction: evicting the only resident copy of
	// the version the default path serves would turn the next default
	// classify into a 404 (content keys cannot be retrained).
	active map[string]ActivePointer
}

// ActivePointer is the per-name active-version record the model
// lifecycle flips on promotion and rollback: which registry key is
// authoritative for the name right now, which previous version is
// retained for rollback, and a monotonically increasing version number.
// The map of pointers persists crash-safe (fsync+rename) beside the
// model files, so a restart resumes serving the promoted version.
type ActivePointer struct {
	// Key is the authoritative registry key for the name.
	Key string `json:"key"`
	// Previous is the retained rollback target ("" on the first
	// promotion, when the incumbent was the configured default).
	Previous string `json:"previous,omitempty"`
	// Version counts promotions and rollbacks of this name, starting
	// at 1.
	Version int `json:"version"`
}

// activeFileName is the registry-dir file holding the active-version
// pointer map. It intentionally has no "sha256-"/"train-" prefix, so
// DiskKeys never mistakes it for a model.
const activeFileName = "active.json"

// NewRegistry returns an empty registry.
func NewRegistry(cfg RegistryConfig) *Registry {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 8
	}
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 15 * time.Second
	}
	if cfg.Train == nil {
		par := cfg.Parallelism
		cfg.Train = func(spec TrainSpec) (*core.Detector, error) {
			lab := &exps.Lab{Quick: spec.Quick, Seed: spec.seed(), Parallelism: par}
			return lab.Detector()
		}
	}
	r := &Registry{
		cfg:      cfg,
		entries:  map[string]*entry{},
		lru:      list.New(),
		breakers: map[string]*resilience.Breaker{},
		active:   map[string]ActivePointer{},
	}
	if r.cfg.TrainEnsemble == nil {
		r.cfg.TrainEnsemble = r.trainEnsemble
	}
	r.loadActive()
	return r
}

// trainEnsemble is the default ensemble trainer: the widened-grid
// pipeline around the 3-class detector of the same quick/seed spec. The
// base resolves through a nested Get of the matching train: key, so a
// registry that already holds it (resident or on disk) does not train
// it twice, and its training shares the singleflight and breaker.
func (r *Registry) trainEnsemble(spec EnsembleSpec) (*ensemble.Detector, error) {
	ctx := context.Background()
	base, _, err := r.Get(ctx, TrainSpec(spec).Key())
	if err != nil {
		return nil, err
	}
	cfg := ensemble.TrainConfig{Quick: spec.Quick, Seed: TrainSpec(spec).seed(), Parallelism: r.cfg.Parallelism}
	return ensemble.TrainContext(ctx, cfg, base)
}

// loadActive warm-starts the active-version pointers from the registry
// dir. A pointer file that does not decode is quarantined like a
// corrupt model: the names fall back to their configured defaults (a
// lost promotion, never a wrong or missing answer).
func (r *Registry) loadActive() {
	if r.cfg.Dir == "" {
		return
	}
	path := filepath.Join(r.cfg.Dir, activeFileName)
	blob, err := os.ReadFile(path)
	if err != nil {
		return
	}
	var ptrs map[string]ActivePointer
	if err := json.Unmarshal(blob, &ptrs); err != nil {
		_ = os.Rename(path, path+".corrupt")
		r.count(mQuarantined)
		return
	}
	for name, p := range ptrs {
		if name != "" && p.Key != "" {
			r.active[name] = p
		}
	}
}

// persistActive rewrites the pointer file crash-safe. Callers hold
// r.mu. Best effort, like model persistence: with no dir (or a failing
// disk) promotions still flip in memory.
func (r *Registry) persistActive() {
	if r.cfg.Dir == "" {
		return
	}
	blob, err := json.MarshalIndent(r.active, "", "  ")
	if err != nil {
		return
	}
	if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
		return
	}
	_ = atomicWriteFile(filepath.Join(r.cfg.Dir, activeFileName), blob, 0o644)
}

// SetActive points name at the given registry key, retaining previous
// as the rollback target and persisting the pointer map crash-safe.
// The referenced keys become pinned against LRU eviction.
func (r *Registry) SetActive(name, key, previous string, version int) error {
	if name == "" {
		return fmt.Errorf("serve: SetActive: empty name")
	}
	if key == "" {
		return fmt.Errorf("serve: SetActive %q: empty key", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active[name] = ActivePointer{Key: key, Previous: previous, Version: version}
	r.persistActive()
	return nil
}

// ClearActive removes name's pointer (and the pins it held), restoring
// default resolution for the name.
func (r *Registry) ClearActive(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.active[name]; !ok {
		return nil
	}
	delete(r.active, name)
	r.persistActive()
	return nil
}

// Active returns name's pointer fields (ok=false when the name has no
// active version and resolves to its configured default).
func (r *Registry) Active(name string) (key, previous string, version int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.active[name]
	return p.Key, p.Previous, p.Version, ok
}

// ActivePointers snapshots the pointer map (sorted iteration is up to
// the caller; the map is a copy).
func (r *Registry) ActivePointers() map[string]ActivePointer {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]ActivePointer, len(r.active))
	for name, p := range r.active {
		out[name] = p
	}
	return out
}

// Resolve fetches a detector key outside any request context — the
// lifecycle manager resolving a rollback target. It shares Get's full
// load path (warm start, lazy training, breakers).
func (r *Registry) Resolve(key string) (*core.Detector, error) {
	det, _, err := r.Get(context.Background(), key)
	return det, err
}

// pinnedLocked returns the keys the active pointers reference (current
// and retained previous). Callers hold r.mu.
func (r *Registry) pinnedLocked() map[string]bool {
	if len(r.active) == 0 {
		return nil
	}
	pinned := make(map[string]bool, 2*len(r.active))
	for _, p := range r.active {
		pinned[p.Key] = true
		if p.Previous != "" {
			pinned[p.Previous] = true
		}
	}
	return pinned
}

// breakerFor returns the training circuit breaker of a spec key,
// creating it on first use (nil when breakers are disabled). Breaker
// transitions feed the metrics so an open circuit is visible in a
// scrape and in /readyz.
func (r *Registry) breakerFor(key string) *resilience.Breaker {
	if r.cfg.BreakerThreshold < 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.breakers[key]
	if !ok {
		b = resilience.NewBreaker(r.cfg.BreakerThreshold, r.cfg.BreakerCooldown)
		if r.cfg.Now != nil {
			b.SetClock(r.cfg.Now)
		}
		b.OnTransition(func(_, to resilience.BreakerState) {
			switch to {
			case resilience.Open:
				r.count(mBreakerOpened)
			case resilience.HalfOpen:
				r.count(mBreakerProbes)
			case resilience.Closed:
				r.count(mBreakerClosed)
			}
		})
		r.breakers[key] = b
	}
	return b
}

// OpenBreakers lists the spec keys whose breaker is not closed
// (sorted). /readyz reports them so an operator sees which specs are
// failing without grepping logs.
func (r *Registry) OpenBreakers() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for key, b := range r.breakers {
		if b.State() != resilience.Closed {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// TrainingUnavailableError reports a spec key whose circuit breaker is
// open: training has failed repeatedly and the registry is
// failing fast until the cooldown's half-open probe (HTTP 503 with
// Retry-After).
type TrainingUnavailableError struct {
	// Key is the failing spec registry key.
	Key string
	// RetryAfter is how long until the breaker admits a probe.
	RetryAfter time.Duration
}

func (e *TrainingUnavailableError) Error() string {
	return fmt.Sprintf("serve: training for %s keeps failing; circuit open, retry in %s", e.Key, e.RetryAfter.Round(time.Millisecond))
}

// count bumps a metrics counter if metrics are attached.
func (r *Registry) count(name string) {
	if r.cfg.Metrics != nil {
		r.cfg.Metrics.Add(name, 1)
	}
}

// Get returns the 3-class detector for key, the way Lookup does. It is
// the one resolver of every path that needs a *core.Detector (reports,
// watch sessions, binary frames, lifecycle rollback): an ensemble key
// is a client error there, rejected before any load starts.
func (r *Registry) Get(ctx context.Context, key string) (det *core.Detector, hit bool, err error) {
	if strings.HasPrefix(key, ensemblePrefix) {
		return nil, false, badRequestf("serve: %q is an ensemble key; this path needs a train: or sha256: detector", key)
	}
	c, hit, err := r.Lookup(ctx, key)
	if err != nil {
		return nil, hit, err
	}
	// Every other family decodes, trains or registers *core.Detectors.
	return c.(*core.Detector), hit, nil
}

// Lookup returns the classifier for key, loading or training it on
// first use. hit reports whether the key was already resident (ready or
// in flight); a waiter on an in-flight load counts as a hit because it
// triggered no work. Waiting is bounded by ctx.
func (r *Registry) Lookup(ctx context.Context, key string) (c Classifier, hit bool, err error) {
	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		r.lru.MoveToFront(e.elem)
		r.mu.Unlock()
		r.count(mRegistryHits)
		select {
		case <-e.ready:
			return e.c, true, e.err
		case <-ctx.Done():
			return nil, true, ctx.Err()
		}
	}
	// Miss: create the in-flight entry while still holding the lock, so
	// every concurrent Get for this key finds it and waits instead of
	// training again (singleflight).
	e := &entry{key: key, ready: make(chan struct{})}
	e.elem = r.lru.PushFront(e)
	r.entries[key] = e
	r.evictLocked()
	r.mu.Unlock()
	r.count(mRegistryMisses)

	// Publish the load result under the lock: List reads e.source (and
	// Lookup's hit path reads c/err after ready) concurrently, so the
	// fields must never be written outside r.mu.
	c, source, lerr := r.load(key)
	r.mu.Lock()
	e.c, e.source, e.err = c, source, lerr
	close(e.ready)
	if lerr != nil {
		// Drop the failed entry so a later request can retry.
		if r.entries[key] == e {
			delete(r.entries, key)
			r.lru.Remove(e.elem)
		}
	}
	r.mu.Unlock()
	if lerr != nil {
		return nil, false, lerr
	}
	return c, false, nil
}

// load resolves a missing key: disk first (warm start), then the lazy
// trainer of the key's family for train: and ensemble: keys. Unknown
// content-hash keys are an error — the bytes behind them exist nowhere.
//
// A model file that exists but does not decode (truncated by a crash
// mid-write, bit-rotted, or written by an incompatible build) is
// quarantined — renamed to <name>.corrupt — and the key falls through
// to the lazy trainer, so one bad file degrades a restart to a retrain
// instead of making the key permanently unservable. Content-hash keys
// have no trainer to fall through to; for them the quarantine error
// surfaces.
func (r *Registry) load(key string) (Classifier, string, error) {
	ens := strings.HasPrefix(key, ensemblePrefix)
	prefix := trainPrefix
	if ens {
		prefix = ensemblePrefix
	}
	spec, trainable := parseSpecKey(key, prefix)
	if r.cfg.Dir != "" {
		path := r.fileFor(key)
		blob, err := os.ReadFile(path)
		switch {
		case err == nil:
			c, derr := decodeModel(ens, blob)
			if derr == nil {
				return c, "disk", nil
			}
			if qerr := r.quarantine(path); qerr != nil {
				// Can't even move the bad file aside; surface the decode
				// error (a typed *core.FormatError names the found and
				// wanted versions) so the operator knows which entry to
				// delete by hand.
				return nil, "", fmt.Errorf("serve: registry warm start from %s: %w (quarantine failed: %v)", path, derr, qerr)
			}
			if !trainable {
				return nil, "", fmt.Errorf("serve: registry warm start from %s: %w (quarantined to %s; %s is content-keyed and must be re-uploaded)", path, derr, quarantinePath(path), key)
			}
			// Spec key: retrain below as if the file never existed.
		case !errors.Is(err, fs.ErrNotExist):
			// A model file exists but cannot be read (permissions, I/O
			// fault). Falling through to retraining would mask the disk
			// problem and could overwrite the file; surface it instead.
			return nil, "", fmt.Errorf("serve: registry warm start reading %s: %w", path, err)
		}
	}
	if !trainable {
		return nil, "", &UnknownDetectorError{Key: key}
	}
	br := r.breakerFor(key)
	if br != nil {
		if err := br.Allow(); err != nil {
			r.count(mBreakerFastFail)
			return nil, "", &TrainingUnavailableError{Key: key, RetryAfter: br.RetryAfter()}
		}
	}
	c, err := r.train(ens, spec)
	if err != nil {
		if br != nil {
			br.Failure()
		}
		return nil, "", fmt.Errorf("serve: training %s: %w", key, err)
	}
	if br != nil {
		br.Success()
	}
	r.persist(key, c)
	return c, "trained", nil
}

// decodeModel parses a model file of the ensemble or the detector
// family.
func decodeModel(ens bool, blob []byte) (Classifier, error) {
	if ens {
		return ensemble.Decode(blob)
	}
	return core.DecodeDetector(blob)
}

// train runs the lazy trainer of the ensemble or the detector family.
func (r *Registry) train(ens bool, spec TrainSpec) (Classifier, error) {
	if ens {
		return r.cfg.TrainEnsemble(EnsembleSpec(spec))
	}
	return r.cfg.Train(spec)
}

// quarantinePath maps a model file to its quarantine name.
func quarantinePath(path string) string {
	return strings.TrimSuffix(path, ".json") + ".corrupt"
}

// quarantine moves a corrupt model file aside so the next load does not
// trip over it again and the bytes stay available for a post-mortem.
func (r *Registry) quarantine(path string) error {
	if err := os.Rename(path, quarantinePath(path)); err != nil {
		return err
	}
	r.count(mQuarantined)
	return nil
}

// Register inserts an already trained detector under its content-hash
// key, persisting it when a registry dir is configured. Registering the
// same model twice is an idempotent cache hit.
func (r *Registry) Register(det *core.Detector) (key string, existed bool, err error) {
	encoded, err := det.Encode()
	if err != nil {
		return "", false, err
	}
	key = ContentKey(encoded)
	r.mu.Lock()
	if e, ok := r.entries[key]; ok {
		r.lru.MoveToFront(e.elem)
		r.mu.Unlock()
		r.count(mRegistryHits)
		<-e.ready // content-keyed entries are inserted ready; never blocks long
		return key, true, e.err
	}
	e := &entry{key: key, source: "upload", ready: make(chan struct{}), c: det}
	close(e.ready)
	e.elem = r.lru.PushFront(e)
	r.entries[key] = e
	r.evictLocked()
	r.mu.Unlock()
	r.count(mRegistryMisses)
	r.persist(key, det)
	return key, false, nil
}

// persist writes a model file for key if a dir is configured. Best
// effort: serving keeps working from memory if the disk write fails.
// The write is crash-safe — temp file, fsync, atomic rename — so a
// crash mid-persist leaves either the previous good model or nothing,
// never a truncated file (which a later warm start would have to
// quarantine and retrain).
func (r *Registry) persist(key string, c Classifier) {
	if r.cfg.Dir == "" {
		return
	}
	blob, err := c.Encode()
	if err != nil {
		return
	}
	if err := os.MkdirAll(r.cfg.Dir, 0o755); err != nil {
		return
	}
	_ = atomicWriteFile(r.fileFor(key), blob, 0o644)
}

// atomicWriteFile is the shared crash-safe writer (temp file, fsync,
// atomic rename). The temp name never matches the registry's *.json
// glob, so a concurrent DiskKeys cannot list a half-written model.
func atomicWriteFile(path string, blob []byte, perm os.FileMode) error {
	return fsatomic.WriteFile(path, blob, perm)
}

// fileFor maps a registry key to its model file path. ':' is not
// portable in file names, so it becomes '-'.
func (r *Registry) fileFor(key string) string {
	return filepath.Join(r.cfg.Dir, strings.ReplaceAll(key, ":", "-")+".json")
}

// evictLocked drops least-recently-used ready entries until the resident
// count fits the capacity. In-flight entries are never evicted — their
// waiters hold references — so a burst of distinct in-flight keys may
// transiently exceed the bound. Keys referenced by an active-version
// pointer (current or retained previous) are pinned: a promoted
// content-keyed model has no trainer to fall back to, so evicting it
// under cache pressure would break the authoritative serving path.
func (r *Registry) evictLocked() {
	pinned := r.pinnedLocked()
	for len(r.entries) > r.cfg.Capacity {
		evicted := false
		for el := r.lru.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*entry)
			if pinned[e.key] {
				continue
			}
			select {
			case <-e.ready:
			default:
				continue // still loading
			}
			delete(r.entries, e.key)
			r.lru.Remove(el)
			r.count(mRegistryEvicts)
			evicted = true
			break
		}
		if !evicted {
			return
		}
	}
}

// List returns the resident entries, most recently used first.
func (r *Registry) List() []DetectorInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DetectorInfo, 0, len(r.entries))
	for el := r.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		info := DetectorInfo{Key: e.key, State: "loading", Source: e.source}
		select {
		case <-e.ready:
			if e.err == nil {
				info.State = "ready"
				if det, ok := e.c.(*core.Detector); ok {
					info.TrainedOn = det.TrainedOn
				}
			}
		default:
		}
		out = append(out, info)
	}
	return out
}

// DiskKeys lists the model keys available in the registry dir (sorted),
// whether or not they are resident. Used by the listing endpoint so a
// warm-startable model is discoverable before its first request.
func (r *Registry) DiskKeys() []string {
	if r.cfg.Dir == "" {
		return nil
	}
	glob, err := filepath.Glob(filepath.Join(r.cfg.Dir, "*.json"))
	if err != nil {
		return nil
	}
	keys := make([]string, 0, len(glob))
	for _, path := range glob {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		// Reverse the ':' -> '-' mangling for the known key families.
		if rest, ok := strings.CutPrefix(name, "sha256-"); ok {
			keys = append(keys, "sha256:"+rest)
		} else if rest, ok := strings.CutPrefix(name, "train-"); ok {
			keys = append(keys, "train:"+rest)
		} else if rest, ok := strings.CutPrefix(name, "ensemble-"); ok {
			keys = append(keys, "ensemble:"+rest)
		}
	}
	sort.Strings(keys)
	return keys
}
