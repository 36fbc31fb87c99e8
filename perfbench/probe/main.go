// Command probe times fsml's layers in process, for the traced run of
// the canonical benchmark. It calls each module's public functions
// directly, on the quick training grids and on payloads the harness
// wrote, and prints one JSON object: per-layer metrics plus the spans
// it recorded around each call.
//
// It imports fsml's internal packages, so it is built separately from
// the harness: when a refactor changes one of these signatures the probe
// stops building and the harness reports these metrics as absent.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"fsml/internal/core"
	"fsml/internal/dataset"
	"fsml/internal/ensemble"
	"fsml/internal/exps"
	"fsml/internal/machine"
	"fsml/internal/miniprog"
	"fsml/internal/ml"
	"fsml/internal/perfingest"
	"fsml/internal/pmu"
	"fsml/internal/sched"
	"fsml/internal/serve"
	"fsml/internal/suite"
	"fsml/internal/trace"
)

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type probe struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	metrics map[string]float64
}

// timed runs fn inside a span and returns its duration.
func (p *probe) timed(name string, parent int, fn func(id int)) time.Duration {
	p.mu.Lock()
	id := len(p.spans) + 1
	t0 := time.Now()
	p.spans = append(p.spans, span{ID: id, Parent: parent, Name: name, Start: int64(t0.Sub(p.epoch))})
	p.mu.Unlock()
	fn(id)
	d := time.Since(t0)
	p.mu.Lock()
	p.spans[id-1].End = int64(t0.Add(d).Sub(p.epoch))
	p.mu.Unlock()
	return d
}

// perCall times n calls of fn as one span and returns the mean call.
func (p *probe) perCall(name string, parent, n int, fn func()) time.Duration {
	fn() // warm caches and lazily compiled forms first
	return p.timed(name, parent, func(int) {
		for i := 0; i < n; i++ {
			fn()
		}
	}) / time.Duration(n)
}

func main() {
	root := flag.String("root", ".", "fsml checkout root")
	payloads := flag.String("payloads", "", "directory of sample payloads written by the harness")
	flag.Parse()
	p := &probe{epoch: time.Now(), metrics: map[string]float64{}}
	if err := p.run(*root, *payloads); err != nil {
		fmt.Fprintln(os.Stderr, "probe:", err)
		os.Exit(1)
	}
	out, _ := json.Marshal(map[string]any{"metrics": p.metrics, "spans": p.spans})
	fmt.Println(string(out))
}

func (p *probe) run(root, payloads string) error {
	golden, err := os.ReadFile(filepath.Join(root, "testdata", "quick_detector.golden.json"))
	if err != nil {
		return err
	}
	det, err := core.DecodeDetector(golden)
	if err != nil {
		return err
	}
	if err := p.training(); err != nil {
		return err
	}
	if err := p.sweepCases(det); err != nil {
		return err
	}
	return p.serving(root, payloads, det)
}

// plannedSpecs enumerates a grid's cases in the collector's order:
// programs, sizes, threads, modes, repeats, seeds derived per run. It
// copies core's unexported planGrid, and the measurement below copies
// Collector.MeasureMiniProgram and Collector.Measure; both copies must
// follow those functions when they change.
func plannedSpecs(progs []miniprog.Program, g core.Grid) []miniprog.Spec {
	modes := g.Modes
	if modes == nil {
		modes = miniprog.Modes()
	}
	var specs []miniprog.Spec
	run := uint64(0)
	for _, pr := range progs {
		sizes := g.Sizes
		if pr.Name == "pmatmult" || pr.Name == "pmatcompare" || pr.Name == "smatmult" {
			sizes = g.MatSizes
		}
		for _, size := range sizes {
			threads := g.Threads
			if !pr.MultiThreaded {
				threads = []int{1}
			}
			for _, th := range threads {
				for _, mode := range modes {
					if !pr.Supports[mode] {
						continue
					}
					for r := 0; r < g.Repeats[mode]; r++ {
						run++
						specs = append(specs, miniprog.Spec{Program: pr.Name, Size: size, Threads: th, Mode: mode, Seed: g.Seed + run*7919})
					}
				}
			}
		}
	}
	return specs
}

// training times the quick training pipeline layer by layer: the real
// collector (core), then the same cases decomposed into mini-program
// build, machine run and PMU read under the batch engine (sched), then
// dataset, fit and cross-validation.
func (p *probe) training() error {
	lab := &exps.Lab{Quick: true, Seed: 1}
	gridA, gridB := lab.GridA(), lab.GridB()
	ctx := context.Background()

	var obs []core.Observation
	var collInstr uint64
	var collectErr error
	collect := p.timed("core.collect", 0, func(int) {
		c := core.NewCollector()
		a, err := c.CollectContext(ctx, miniprog.MultiThreadedSet(), gridA)
		if err != nil {
			collectErr = err
			return
		}
		b, err := c.CollectContext(ctx, miniprog.SequentialSet(), gridB)
		if err != nil {
			collectErr = err
			return
		}
		keptA, _ := core.FilterObservations(a, core.DefaultFilter())
		cfgB := core.DefaultFilter()
		cfgB.DropWeakGood = true
		keptB, _ := core.FilterObservations(b, cfgB)
		obs = append(append(obs, keptA...), keptB...)
		p.metrics["core.cases"] = float64(len(a) + len(b))
		for _, o := range append(a, b...) {
			collInstr += o.Result.Instructions
		}
	})
	if collectErr != nil {
		return collectErr
	}
	p.metrics["core.collect_s"] = collect.Seconds()

	specs := append(plannedSpecs(miniprog.MultiThreadedSet(), gridA), plannedSpecs(miniprog.SequentialSet(), gridB)...)
	type caseTimes struct{ build, run, read, total time.Duration }
	col := core.NewCollector()
	workers := runtime.GOMAXPROCS(0)
	var times []caseTimes
	var instr uint64
	var imu sync.Mutex
	var mapErr error
	wall := p.timed("sched.map", 0, func(parent int) {
		times, mapErr = sched.Map(ctx, len(specs), sched.Options{Parallelism: workers}, func(_ context.Context, i int) (caseTimes, error) {
			var ct caseTimes
			var kernels []machine.Kernel
			var err error
			t0 := time.Now()
			ct.build = p.timed("miniprog.build", parent, func(int) { kernels, err = miniprog.Build(specs[i]) })
			if err != nil {
				return ct, err
			}
			// Collector.MeasureMiniProgram measures a spec with seed
			// Seed^0x5151 (its first attempt) under its own case key;
			// using both makes these the runs `fsml train` performs.
			sp := specs[i]
			seed := sp.Seed ^ 0x5151
			mcfg := col.Machine
			mcfg.Seed, mcfg.Monitor = seed, true
			m := machine.New(mcfg)
			var res machine.RunResult
			ct.run = p.timed("machine.run", parent, func(int) { res = m.Run(kernels) })
			pcfg := col.PMU
			pcfg.Seed, pcfg.Faults = seed, col.Faults
			pcfg.CaseKey = fmt.Sprintf("%s/size=%d/threads=%d/%s/seed=%d", sp.Program, sp.Size, sp.Threads, sp.Mode, sp.Seed)
			pm := pmu.New(pcfg, col.Events)
			ct.read = p.timed("pmu.read", parent, func(int) { pm.Read(m.Hierarchy()) })
			ct.total = time.Since(t0)
			imu.Lock()
			instr += res.Instructions
			imu.Unlock()
			return ct, nil
		})
	})
	if mapErr != nil {
		return mapErr
	}
	if instr != collInstr {
		return fmt.Errorf("decomposed cases simulated %d instructions, the collector %d: the copy no longer follows core", instr, collInstr)
	}
	var build, run, read, total time.Duration
	for _, ct := range times {
		build += ct.build
		run += ct.run
		read += ct.read
		total += ct.total
	}
	n := float64(len(times))
	p.metrics["miniprog.build_ms"] = build.Seconds() * 1e3 / n
	p.metrics["machine.run_s"] = run.Seconds()
	p.metrics["machine.instructions"] = float64(instr)
	p.metrics["machine.minstr_per_s"] = float64(instr) / run.Seconds() / 1e6
	p.metrics["pmu.read_us"] = read.Seconds() * 1e6 / n
	p.metrics["sched.efficiency"] = total.Seconds() / (wall.Seconds() * float64(workers))

	var data *dataset.Dataset
	var err error
	d := p.timed("core.dataset", 0, func(int) { data, err = core.BuildDataset(obs) })
	if err != nil {
		return err
	}
	p.metrics["core.dataset_ms"] = d.Seconds() * 1e3
	d = p.timed("ml.fit", 0, func(int) { _, err = core.TrainDetector(data) })
	if err != nil {
		return err
	}
	p.metrics["ml.fit_ms"] = d.Seconds() * 1e3
	d = p.timed("ml.cv", 0, func(int) { _, err = ml.CrossValidate(ml.NewC45(ml.DefaultC45()), data, 10, 1) })
	if err != nil {
		return err
	}
	p.metrics["ml.cv_ms"] = d.Seconds() * 1e3
	return nil
}

// sweepCases times one quick sweep case per modeled program (build,
// measure, classify), sequentially.
func (p *probe) sweepCases(det *core.Detector) error {
	c := core.NewCollector()
	var total time.Duration
	progs := suite.All()
	for _, w := range progs {
		cs := suite.Case{Input: w.Inputs[0].Name, Threads: 4, Opt: machine.O2, Seed: 1}
		var err error
		total += p.timed("suite.case", 0, func(int) {
			obs := c.Measure(w.Name+"/"+cs.String(), cs.Seed^0xbead, w.Build(cs))
			_, err = det.ClassifyObservation(obs)
		})
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	p.metrics["suite.case_ms"] = total.Seconds() * 1e3 / float64(len(progs))
	return nil
}

// serving times the per-request layers on the harness's payloads.
func (p *probe) serving(root, dir string, det *core.Detector) error {
	read := func(name string) ([]byte, error) { return os.ReadFile(filepath.Join(dir, name)) }
	vecBody, err := read("vector.json")
	if err != nil {
		return err
	}
	frame, err := read("frame.bin")
	if err != nil {
		return err
	}
	heavyBody, err := read("heavy.json")
	if err != nil {
		return err
	}
	ensBody, err := read("ensemble.json")
	if err != nil {
		return err
	}

	var req serve.ClassifyRequest
	p.metrics["serve.decode_json_us"] = us(p.perCall("serve.decode_json", 0, 2000, func() {
		req = serve.ClassifyRequest{}
		_ = json.Unmarshal(vecBody, &req)
	}))
	sample := pmu.Sample{Names: det.Tree.Attrs, Counts: req.Vector, Instructions: 1}
	var rr core.RobustResult
	p.metrics["core.classify_ns"] = float64(p.perCall("core.classify", 0, 20000, func() { rr, err = det.ClassifyRobust(sample) }))
	if err != nil {
		return err
	}
	resp := serve.ClassifyResponse{Class: rr.Class, Confidence: rr.Confidence, Detector: "train:quick=true,seed=1"}
	p.metrics["serve.encode_json_us"] = us(p.perCall("serve.encode_json", 0, 2000, func() {
		var b bytes.Buffer
		enc := json.NewEncoder(&b)
		enc.SetIndent("", "  ")
		_ = enc.Encode(&resp)
	}))

	var breq *serve.BinClassifyRequest
	p.metrics["serve.decode_bin_us"] = us(p.perCall("serve.decode_bin", 0, 2000, func() { breq, err = serve.DecodeBinRequest(frame) }))
	if err != nil {
		return err
	}
	n := breq.NumVecs()
	classes := make([]string, n)
	batch := p.perCall("ml.batch", 0, 2000, func() { err = det.ClassifyVectors(nil, breq.Vecs, breq.Width, classes) })
	if err != nil {
		return err
	}
	p.metrics["ml.batch_ns_per_vec"] = float64(batch) / float64(n)
	bresp := &serve.BinClassifyResponse{Detector: "train:quick=true,seed=1", Verdicts: make([]serve.BinVerdict, n)}
	for i, c := range classes {
		bresp.Verdicts[i] = serve.BinVerdict{Class: c, Confidence: 1}
	}
	buf := make([]byte, 0, 4096)
	p.metrics["serve.encode_bin_us"] = us(p.perCall("serve.encode_bin", 0, 2000, func() { buf, err = serve.AppendBinResponse(buf[:0], bresp) }))
	if err != nil {
		return err
	}

	fixtures, _ := filepath.Glob(filepath.Join(root, "internal", "perfingest", "testdata", "*.txt"))
	sort.Strings(fixtures)
	var parse time.Duration
	for _, f := range fixtures {
		text, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		parse += p.perCall("perfingest.parse", 0, 200, func() { _, err = perfingest.Parse(bytes.NewReader(text)) })
		if err != nil {
			return fmt.Errorf("%s: %w", f, err)
		}
	}
	if len(fixtures) > 0 {
		p.metrics["perfingest.parse_us"] = us(parse) / float64(len(fixtures))
	}

	var heavy serve.ClassifyRequest
	if err := json.Unmarshal(heavyBody, &heavy); err != nil {
		return err
	}
	var tr *trace.Trace
	d := p.perCall("trace.parse", 0, 5, func() { tr, err = trace.Parse(bytes.NewReader(heavy.Trace)) })
	if err != nil {
		return err
	}
	p.metrics["trace.parse_ms"] = d.Seconds() * 1e3
	col := core.NewCollector()
	d = p.perCall("machine.replay", 0, 5, func() { col.Measure("probe/trace", 1, tr.Kernels()) })
	p.metrics["machine.replay_ms"] = d.Seconds() * 1e3

	var ens *ensemble.Detector
	p.timed("ensemble.train", 0, func(int) {
		ens, err = ensemble.TrainContext(context.Background(), ensemble.TrainConfig{Quick: true, Seed: 1}, det)
	})
	if err != nil {
		return err
	}
	var ereq serve.ClassifyRequest
	if err := json.Unmarshal(ensBody, &ereq); err != nil {
		return err
	}
	esample := pmu.Sample{Names: ereq.Events, Counts: ereq.Vector, Instructions: 1}
	p.metrics["ensemble.classify_us"] = us(p.perCall("ensemble.classify", 0, 2000, func() { _, err = ens.ClassifyRobust(esample) }))
	return err
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
