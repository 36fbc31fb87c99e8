// Package fsml detects false sharing in parallel programs from hardware
// performance-event counts using a machine-learned classifier,
// reproducing Jayasena et al., "Detection of False Sharing Using Machine
// Learning" (SC'13).
//
// # What it does
//
// False sharing — threads on different cores writing distinct variables
// that happen to occupy one cache line — can erase the speedup of a
// parallel program while remaining invisible in the source. The SC'13
// approach detects it cheaply: train a decision-tree classifier on
// normalized performance-event counts from mini-programs whose false
// sharing can be switched on and off, then classify any program's counts
// as "good", "bad-fs" (false sharing) or "bad-ma" (inefficient memory
// access).
//
// Because portable Go has neither PMU access nor control over cache-line
// placement, this library ships its own execution substrate: a
// deterministic multicore simulator with set-associative L1/L2/L3 caches,
// MESI coherence with snoop responses, DTLB, line-fill buffers, a
// stream prefetcher and an emulated Westmere-style PMU (the 16 events of
// the paper's Table 2 plus a 46-event candidate catalogue). Workloads
// are Kernels — resumable thread state machines issuing Load/Store/Exec
// operations against explicitly laid-out simulated memory.
//
// # Quick start
//
//	det, report, err := fsml.Train(fsml.TrainOptions{Quick: true})
//	if err != nil { ... }
//	fmt.Println(report.Tree)            // the learned decision tree
//
//	verdict, err := fsml.ClassifyProgram(det, "streamcluster", fsml.SweepOptions{Quick: true})
//	fmt.Println(verdict.Class)          // "bad-fs"
//
// Custom workloads implement machine.Kernel through the re-exported
// kernel primitives; see examples/quickstart and examples/dotproduct.
//
// # Parallelism and determinism
//
// Training grids and benchmark sweeps are batches of independent
// simulations, and every batch entry point accepts a Parallelism knob
// (TrainOptions.Parallelism, SweepOptions.Parallelism,
// ExperimentOptions.Parallelism, report.Options.Parallelism, the
// collector's Parallelism field, and the -j flag of cmd/fsml): 0 fans
// cases out over GOMAXPROCS workers, 1 runs the sequential reference
// path, any other value caps the worker count.
//
// Parallel execution is bit-for-bit deterministic. Each case's seed is
// a pure function of its position in the enumerated batch — never of
// execution order — and results are reassembled in submission order
// before any aggregation, so detectors, reports and rendered tables are
// byte-identical at every parallelism setting; only wall-clock time
// changes. The engine lives in internal/sched: a bounded-queue worker
// pool with context cancellation, lowest-index-first error propagation
// and serialized progress callbacks (the Progress fields of the same
// option structs).
//
// # Layout
//
//   - internal/machine, internal/cache, internal/mem, internal/pmu — the
//     simulated platform
//   - internal/sched — the deterministic batch engine behind every
//     collection grid and case sweep
//   - internal/miniprog — the training mini-programs (§2.2), plus the
//     pathology kernel families (tlbwalk, numaping, bwsat) behind the
//     widened label space
//   - internal/ml — C4.5 (J48 analog), naive Bayes, k-NN,
//     cross-validation; trained trees compile to a flattened
//     array form (FlatTree) for allocation-free batch inference,
//     bit-identical to the pointer tree
//   - internal/core — event selection, training-data collection, the
//     detector, and core.Classifier, the one seam (sample in, verdict
//     out) that the batch sweep, the stream engine, the serving
//     registry and fsml.ClassifyPerf take, so each serves the 3-class
//     detector and the ensemble alike
//   - internal/ensemble — the multi-pathology ensemble: per-class
//     bagged C4.5 committees around the untouched 3-class tree,
//     ranking good/bad-fs/bad-ma/tlb-thrash/numa-remote/bw-saturated
//     with calibrated scores, behind `fsml train -ensemble`,
//     `fsml classify -ensemble` and POST /v1/classify with an
//     ensemble: key
//   - internal/suite — Phoenix and PARSEC workload analogs (§4)
//   - internal/shadow, internal/sheriff — the verification and
//     comparison baselines
//   - internal/exps — regenerates every table and figure of the paper
//   - internal/serve, internal/resilience — the long-running detection
//     service: inline inference on each request's handler goroutine,
//     model registry, admission control and circuit breakers, plus a
//     length-prefixed binary classify protocol (POST /v1/classify-bin)
//     whose vector frames classify as one columnar batch; its client
//     sends every verb through one attempt function and one retry loop
//   - internal/stream — online streaming detection: sliding-window
//     classification with phase and drift tracking, behind GET
//     /v1/watch and `fsml watch`
//   - internal/perfingest — real `perf stat` / `perf c2c report`
//     output parsed and mapped onto the Table-2 feature space through
//     an explicit event-alias table, behind `fsml classify -perf` and
//     text/x-perf-stat uploads to POST /v1/classify; missing events
//     degrade confidence instead of erroring
//   - internal/fleet — horizontal scaling: a consistent-hash
//     coordinator (`fsml fleet`) that shards classify/watch traffic
//     across many servers by detector key, replicates uploads to ring
//     successors, fails over on node loss and rebalances replicas when
//     the live-peer set changes
//   - internal/lifecycle — the self-healing model loop behind
//     `fsml serve -lifecycle`: debounced drift alarms trigger a
//     retrain, the candidate shadow-scores against the incumbent on
//     live traffic, and versioned promote/rollback flips the serving
//     registry's active pointer (audited in a per-run ledger,
//     inspected via `fsml lifecycle` / GET /v1/lifecycle)
//
// See DESIGN.md for the substitution map (paper hardware -> simulator)
// and EXPERIMENTS.md for paper-vs-measured results.
package fsml
