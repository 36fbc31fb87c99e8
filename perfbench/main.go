// Command perfbench is fsml's canonical end-to-end benchmark harness.
// It is started by perfbench/run.sh, which builds fsml from the same
// checkout first:
//
//	bash perfbench/run.sh --workload serve-light --seed 3 --seconds 30 --trace 0
//
// Every workload runs one fsml session — `fsml train`, a `fsml
// classify` sweep, then `fsml serve` under open-loop traffic — and
// differs in what it stresses (see README.md). With --trace 0 the last
// stdout line carries the end-to-end metrics; with --trace 1 it carries
// the per-layer metrics, and the spans are written to .bench_build.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// Offered rates and sizes. Both fixed light rates sit below the knee of
// the default server on two connections. Request counts are for
// --seconds nominalSeconds and scale with it.
const (
	nominalSeconds = 30
	rounds         = 3    // servers, each with low/high(/heavy) windows
	offlineReps    = 2    // train+sweep repetitions: before the first round, after the first
	windowReqs     = 500  // light requests per fixed-rate window; a rate's p99 pools its rounds
	rungReqs       = 1000 // light requests per ladder rung: a p99 with 10 beyond it
	heavyPerWindow = 36   // heavy replays per round: six passes over the six traces, a p90 over >= 100
	// lowRPS is the low light rate. On serve-mixed the light stream has
	// one connection, where a lone request's ~2.7 ms makes 100 req/s a
	// 27% load: the backlog a replay leaves drains quickly and the p50
	// stays with undisturbed requests. At 200 req/s (53%) a slower host
	// minute pushed the load towards 80% and the p50 from 3.7 to 9 ms.
	lowRPS  = 100.0
	highRPS = 350.0
	// heavyOps is the record count of a generated trace. `fsml record`
	// recordings of the modeled programs (smallest input, 4 threads)
	// hold 0.3-1.4 M records and replay at ~0.4 us a record, 0.13-0.5 s
	// each, too long for 100 replays a run. 20k records, 1/16 of the
	// smallest, run the same per-record parse and replay path in ~17 ms.
	// A replay holds the batch loop, and with 40k records the replays
	// and the light backlog each leaves behind covered ~40% of a
	// serve-mixed window: the light p50 sat on the edge of that backlog
	// and swung from 3.7 to 14 ms between windows.
	heavyOps     = 20000
	ladderStart  = 700.0
	ladderStep   = 1.25
	ladderMisses = 3 // misses in a row that end the ladder
	maxRungRPS   = 8000.0
	// latencySLO is the p99 limit behind max_rps, in ms. On the default
	// server every rate from 200 to ~700 req/s already reads a p99 of
	// 6-12 ms (a lone request waits out the batch linger and two
	// connections queue behind it) and bursts of host noise lift single
	// rungs to 20-60 ms, so a 10 ms limit would pick a rung by noise;
	// 50 ms sits above that band and far below the backlog (p99 of
	// 150 ms and more) that builds past the knee.
	latencySLO = 50.0
)

// tailMetrics are measured by every run but reported with the per-layer
// metrics, without a bound: on a host that shares its CPUs, CPU steal
// sets them as much as fsml does, and over ten seeds their spread
// (IQR/median 0.2-0.9) exceeds any bound a regression gate can use.
var tailMetrics = []string{"p99_ms_low", "p99_ms_high", "max_rps", "heavy_p90_ms"}

// heavyBeside is what distinguishes the workloads: on serve-mixed the
// low-rate light stream runs on one connection beside heavy trace
// replays on the other; on serve-light the replays get a phase of their
// own on an otherwise idle server.
var heavyBeside = map[string]bool{"serve-light": false, "serve-mixed": true}

type config struct {
	root, fsml, probe string
	workload          string
	seed              int64
	seconds           int
	trace             bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// units of every metric the harness can report: the end-to-end ones,
// then the per-layer ones.
var units = map[string]string{
	"train_s": "s", "sweep_s": "s", "setup_s": "s",
	"p50_ms_low": "ms", "p99_ms_low": "ms", "p50_ms_high": "ms", "p99_ms_high": "ms",
	"p50_ms_low.vector": "ms", "p50_ms_low.ensemble": "ms", "p50_ms_low.perf": "ms", "p50_ms_low.frame": "ms",
	"p50_ms_high.vector": "ms", "p50_ms_high.ensemble": "ms", "p50_ms_high.perf": "ms", "p50_ms_high.frame": "ms",
	"max_rps": "1/s", "heavy_p50_ms": "ms", "heavy_p90_ms": "ms", "ok_ratio": "ratio", "peak_rss_mb": "MB",

	"machine.run_s": "s", "machine.instructions": "count", "machine.minstr_per_s": "Minstr/s",
	"pmu.read_us": "us", "miniprog.build_ms": "ms", "sched.efficiency": "ratio",
	"core.collect_s": "s", "core.dataset_ms": "ms", "core.cases": "count", "suite.case_ms": "ms",
	"ml.fit_ms": "ms", "ml.cv_ms": "ms",
	"serve.request_us": "us", "serve.queue_wait_share": "ratio", "serve.batch_size_mean": "count",
	"serve.classify_stage_us": "us", "serve.other_us": "us", "serve.client_gap_us": "us",
	"serve.decode_json_us": "us", "serve.encode_json_us": "us", "serve.decode_bin_us": "us", "serve.encode_bin_us": "us",
	"core.classify_ns": "ns", "ml.batch_ns_per_vec": "ns", "ensemble.classify_us": "us", "perfingest.parse_us": "us",
	"gen.late_p99_ms": "ms", "serve.boot_s": "s", "serve.lazy_train_s": "s", "serve.lazy_ensemble_s": "s",
	"serve.registry_hit_ratio": "ratio", "trace.parse_ms": "ms", "machine.replay_ms": "ms",
	"resilience.shed": "count", "serve.errors": "count", "bench.trace_overhead_pct": "%",
}

func main() {
	cfg := config{}
	var traceFlag int
	flag.StringVar(&cfg.root, "root", ".", "fsml checkout root")
	flag.StringVar(&cfg.fsml, "fsml", "", "fsml binary built from the checkout")
	flag.StringVar(&cfg.probe, "probe", "", "in-process layer probe binary (empty = in-process layers absent)")
	flag.StringVar(&cfg.workload, "workload", "", "serve-light or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", nominalSeconds, "approximate seconds of measured serving traffic")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if _, ok := heavyBeside[cfg.workload]; !ok || cfg.fsml == "" || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -fsml, -workload serve-light|serve-mixed, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	// An interrupted run stops its fsml processes and waits for them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

// runState accumulates one run's measurements.
type runState struct {
	cfg   config
	dir   string
	tr    *tracer
	chk   *checker
	e2e   map[string]float64
	layer map[string]float64
	// absent lists per-layer metrics the commit under test could not
	// provide (a missing /metrics series, a probe that does not build).
	absent    []string
	attempted int
	failed    int
	rssMB     map[string][]float64 // peak RSS of each run of each fsml command
	desc      map[string]any

	progs, labels  []string // the sweep and its paper labels
	golden         []byte   // testdata/quick_detector.golden.json
	trains, sweeps []float64
}

// op counts one checked operation.
func (st *runState) op(ok bool) {
	st.attempted++
	if !ok {
		st.failed++
	}
}

// rss records a finished fsml process's peak RSS under its command.
func (st *runState) rss(cmd string, b int64) {
	st.rssMB[cmd] = append(st.rssMB[cmd], float64(b)/(1<<20))
}

func (st *runState) setLayer(name string, v float64, ok bool) {
	if ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
		st.layer[name] = v
		return
	}
	st.absent = append(st.absent, name)
}

func run(ctx context.Context, cfg config) (*result, error) {
	st := &runState{
		cfg: cfg, chk: newChecker(),
		tr:  &tracer{on: cfg.trace, epoch: time.Now()},
		e2e: map[string]float64{}, layer: map[string]float64{}, desc: map[string]any{}, rssMB: map[string][]float64{},
	}
	build := filepath.Join(cfg.root, ".bench_build")
	st.dir = filepath.Join(build, "runs", fmt.Sprintf("%s-seed%d-trace%v-%d", cfg.workload, cfg.seed, cfg.trace, os.Getpid()))
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(st.dir)

	o, err := loadOracle(filepath.Join(cfg.root, "testdata", "quick_detector.golden.json"))
	if err != nil {
		return nil, err
	}
	pl, err := buildPools(rand.New(rand.NewSource(cfg.seed)), o, cfg.root)
	if err != nil {
		return nil, err
	}
	if err := st.offlineInputs(ctx); err != nil {
		return nil, err
	}
	if err := st.offlineRep(ctx); err != nil {
		return nil, err
	}
	if err := st.serve(ctx, pl); err != nil {
		return nil, err
	}
	// A fixed job's wall time only grows under host CPU steal, so the
	// fastest repetition is the steadiest estimate of its cost.
	st.e2e["train_s"], st.e2e["sweep_s"] = minOf(st.trains), minOf(st.sweeps)
	st.desc["train_s_runs"], st.desc["sweep_s_runs"] = st.trains, st.sweeps
	// The Go collector's timing moves one process's peak RSS by up to a
	// third between identical runs, so each command counts with the
	// median over its runs; the metric is the largest command's.
	for _, mbs := range st.rssMB {
		st.e2e["peak_rss_mb"] = math.Max(st.e2e["peak_rss_mb"], median(mbs))
	}
	st.desc["rss_mb"] = st.rssMB
	failed := st.failed
	st.e2e["ok_ratio"] = float64(st.attempted-failed) / float64(st.attempted)
	for _, name := range tailMetrics {
		st.setLayer(name, st.e2e[name], true)
		delete(st.e2e, name)
	}

	if cfg.trace {
		st.runProbe(ctx, pl)
	}
	res := &result{Correct: failed == 0, Attempted: st.attempted, Failed: failed, Metrics: map[string]metric{}}
	src := st.e2e
	if cfg.trace {
		st.overhead(build)
		src = st.layer
		for _, name := range st.absent {
			st.layer[name] = 0
		}
	}
	for name, v := range src {
		res.Metrics[name] = metric{Value: v, Unit: units[name]}
	}
	st.describe(build, res)
	return res, nil
}

// offlineInputs reads the sweep's programs and paper labels from
// `fsml list`, and the golden model every training must reproduce.
func (st *runState) offlineInputs(ctx context.Context) error {
	list, err := runFsml(ctx, st.cfg.fsml, st.dir, "list")
	if err != nil {
		return err
	}
	st.progs, st.labels = parseList(list.stdout)
	if len(st.progs) == 0 {
		return errors.New("fsml list printed no modeled programs")
	}
	st.golden, err = os.ReadFile(filepath.Join(st.cfg.root, "testdata", "quick_detector.golden.json"))
	return err
}

// offlineRep runs `fsml train` and the program sweep once, checking the
// model against the golden file and every verdict against the paper's
// label. Repetitions are spread over the run, so a burst of host noise
// slows one of them, not all.
func (st *runState) offlineRep(ctx context.Context) error {
	sp := st.tr.open("cli.train", 0)
	tr, err := runFsml(ctx, st.cfg.fsml, st.dir, "train", "-quick", "-seed", "1", "-o", "model.json")
	st.tr.close(sp)
	if err != nil {
		return err
	}
	st.rss("train", tr.maxRSS)
	st.trains = append(st.trains, tr.wall.Seconds())
	model, err := os.ReadFile(filepath.Join(st.dir, "model.json"))
	same := err == nil && bytes.Equal(model, st.golden)
	st.op(same)
	if !same {
		st.chk.note("train: model differs from testdata/quick_detector.golden.json")
	}

	sp = st.tr.open("cli.sweep", 0)
	args := append([]string{"classify", "-quick", "-model", "model.json"}, st.progs...)
	sw, err := runFsml(ctx, st.cfg.fsml, st.dir, args...)
	st.tr.close(sp)
	if err != nil {
		return err
	}
	st.rss("classify", sw.maxRSS)
	st.sweeps = append(st.sweeps, sw.wall.Seconds())
	got := parseVerdicts(sw.stdout)
	for i, p := range st.progs {
		ok := got[p] == st.labels[i]
		st.op(ok)
		if !ok {
			st.chk.note(fmt.Sprintf("sweep: %s classified %q, paper says %q", p, got[p], st.labels[i]))
		}
	}
	return nil
}

func minOf(v []float64) float64 {
	m := math.Inf(1)
	for _, x := range v {
		m = math.Min(m, x)
	}
	return m
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
