package main

// The traced run's extras — the in-process probe, tracing overhead —
// and the run description written beside every result.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// probeLayers are the per-layer metrics the in-process probe measures.
var probeLayers = []string{
	"machine.run_s", "machine.instructions", "machine.minstr_per_s", "pmu.read_us", "miniprog.build_ms",
	"sched.efficiency", "core.collect_s", "core.dataset_ms", "core.cases", "suite.case_ms", "ml.fit_ms", "ml.cv_ms",
	"serve.decode_json_us", "serve.encode_json_us", "serve.decode_bin_us", "serve.encode_bin_us",
	"core.classify_ns", "ml.batch_ns_per_vec", "ensemble.classify_us", "perfingest.parse_us",
	"trace.parse_ms", "machine.replay_ms",
}

// probeOutput is what the probe prints.
type probeOutput struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans"`
}

// runProbe writes sample payloads, runs the in-process probe on them,
// and folds its metrics and spans into the run. Any failure leaves the
// probe's metrics absent.
func (st *runState) runProbe(ctx context.Context, pl *pools) {
	out, err := st.probe(ctx, pl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: in-process probe:", err)
		st.desc["probe_error"] = err.Error()
	}
	for _, name := range probeLayers {
		v, ok := out.Metrics[name]
		st.setLayer(name, v, ok)
	}
}

func (st *runState) probe(ctx context.Context, pl *pools) (probeOutput, error) {
	var out probeOutput
	if st.cfg.probe == "" {
		return out, fmt.Errorf("no probe binary (it did not build against this commit)")
	}
	dir := filepath.Join(st.dir, "payloads")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return out, err
	}
	files := map[string][]byte{
		"vector.json":   pl.byKind[kindVector][0].body,
		"ensemble.json": pl.byKind[kindEnsemble][0].body,
		"frame.bin":     pl.byKind[kindFrame][0].body,
		"heavy.json":    pl.byKind[kindHeavy][0].body,
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return out, err
		}
	}
	ctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, st.cfg.probe, "-root", st.cfg.root, "-payloads", dir)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	sp := st.tr.open("probe", 0)
	start := time.Since(st.tr.epoch)
	err := cmd.Run()
	st.tr.close(sp)
	if err != nil {
		return out, fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return out, fmt.Errorf("decoding probe output: %w", err)
	}
	for _, s := range out.Spans {
		parent := sp
		if s.Parent > 0 {
			parent = sp + s.Parent
		}
		st.tr.add(s.Name, parent, start+time.Duration(s.Start), start+time.Duration(s.End), "")
	}
	return out, nil
}

// untracedLog names the file every untraced run appends its end-to-end
// metrics to, one JSON object a line, for the traced runs to compare
// against.
func untracedLog(build, workload string) string {
	return filepath.Join(build, "results", workload+".untraced.jsonl")
}

// minUntraced is how many untraced runs a traced run needs to compare
// against before it reports a tracing overhead.
const minUntraced = 3

// overhead compares this traced run's end-to-end time metrics with the
// untraced runs of the same workload recorded in this checkout (any
// seed). A metric whose traced value lies within the untraced runs'
// range is indistinguishable from them and counts as 0; one outside it
// counts as its relative change from their median. The result is the
// median over the metrics. With fewer than minUntraced untraced runs
// recorded there is nothing to compare, and the metric is absent.
func (st *runState) overhead(build string) {
	var runs []map[string]float64
	if data, err := os.ReadFile(untracedLog(build, st.cfg.workload)); err == nil {
		for _, line := range bytes.Split(data, []byte("\n")) {
			var r map[string]float64
			if json.Unmarshal(line, &r) == nil {
				runs = append(runs, r)
			}
		}
	}
	if len(runs) < minUntraced {
		st.desc["trace_overhead"] = fmt.Sprintf("unresolved: %d untraced runs of %s recorded here, need %d", len(runs), st.cfg.workload, minUntraced)
		st.setLayer("bench.trace_overhead_pct", 0, false)
		return
	}
	rows := map[string]any{}
	var rel []float64
	for _, name := range []string{"train_s", "sweep_s", "setup_s", "p50_ms_low", "p50_ms_high", "heavy_p50_ms"} {
		var vals []float64
		for _, r := range runs {
			if v, ok := r[name]; ok && v > 0 {
				vals = append(vals, v)
			}
		}
		if len(vals) < minUntraced {
			continue
		}
		sort.Float64s(vals)
		med, traced := median(vals), st.e2e[name]
		resolved := traced < vals[0] || traced > vals[len(vals)-1]
		pct := 0.0
		if resolved {
			pct = 100 * (traced - med) / med
		}
		rel = append(rel, pct)
		rows[name] = map[string]any{"traced": traced, "untraced_median": med, "untraced_min": vals[0],
			"untraced_max": vals[len(vals)-1], "resolved": resolved, "pct": pct}
	}
	st.desc["trace_overhead"] = map[string]any{"untraced_runs": len(runs), "metrics": rows}
	st.setLayer("bench.trace_overhead_pct", median(rel), len(rel) > 0)
}

// describe writes the self-describing record of the run: environment,
// seed, every phase with its sample counts and generator lateness, the
// absent metrics and the first mismatches. It also goes to stderr.
func (st *runState) describe(build string, res *result) {
	st.desc["workload"] = st.cfg.workload
	st.desc["seed"] = st.cfg.seed
	st.desc["seconds"] = st.cfg.seconds
	st.desc["traced"] = st.cfg.trace
	st.desc["nproc"] = runtime.NumCPU()
	st.desc["gomaxprocs"] = runtime.GOMAXPROCS(0)
	st.desc["go_version"] = runtime.Version()
	st.desc["commit"] = commitOf(st.cfg.root)
	st.desc["end_to_end"] = st.e2e
	st.desc["per_layer"] = st.layer
	sort.Strings(st.absent)
	st.desc["absent"] = st.absent
	st.desc["mismatches"] = st.chk.failures
	st.desc["attempted"], st.desc["failed"] = res.Attempted, res.Failed
	if st.cfg.trace {
		st.desc["spans"] = len(st.tr.spans)
	}
	blob, _ := json.MarshalIndent(st.desc, "", "  ")
	fmt.Fprintln(os.Stderr, string(blob))

	dir := filepath.Join(build, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", st.cfg.workload, st.cfg.seed, b2i(st.cfg.trace))
	_ = os.WriteFile(filepath.Join(dir, tag+".json"), blob, 0o644)
	if st.cfg.trace {
		if err := st.tr.write(filepath.Join(dir, tag+".spans.jsonl")); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	} else if f, err := os.OpenFile(untracedLog(build, st.cfg.workload), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644); err == nil {
		e2e, _ := json.Marshal(st.e2e)
		_, _ = f.Write(append(e2e, '\n'))
		_ = f.Close()
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// commitOf names the commit under test: git's HEAD when the checkout is
// a repository, else a digest of the Go sources and go.mod.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	return sourceDigest(root)
}

// sourceDigest hashes every .go file and go.mod under root, in path
// order, skipping build output.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".bench_build" || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err == nil {
			rel, _ := filepath.Rel(root, path)
			fmt.Fprintf(h, "%s %d\n", rel, len(data))
			h.Write(data)
		}
		return nil
	})
	return fmt.Sprintf("source-sha256:%x", h.Sum(nil))
}
