// Package machine models the execution substrate: cores that run software
// threads (Kernels) against the coherent cache hierarchy, a DTLB per core,
// a cycle model, and a deterministic round-robin scheduler whose quantum
// interleaves threads finely enough for inter-core contention — false
// sharing included — to unfold exactly as it does under a real OS
// scheduler, but reproducibly.
//
// A workload is a set of Kernels, one per software thread. Kernels issue
// abstract operations (Load, Store, Exec, Branch) through a Ctx bound to
// the core the thread runs on; the machine charges latencies, counts
// micro-events into the per-core PMU banks, and advances per-core clocks.
package machine

import (
	"fmt"

	"fsml/internal/cache"
	"fsml/internal/xrand"
)

// Config describes one simulated machine.
type Config struct {
	// Cores is the number of physical cores. The paper's platform has 12
	// (2 sockets x 6 cores); Table 1 uses a 32-core system.
	Cores int
	// Cache configures the hierarchy; zero value means cache.DefaultConfig.
	Cache cache.Config
	// Quantum is the number of operations a thread executes per scheduler
	// turn. Small values interleave threads finely; the default of 4
	// approximates out-of-order cores contending in real time.
	Quantum int
	// ClockGHz converts cycles to seconds (paper platform: 3.46 GHz).
	ClockGHz float64
	// Seed drives scheduling phase noise and any machine-level
	// randomness. Identical seeds give bit-identical runs.
	Seed uint64
	// Monitor models the perf-stat style counter collection being active.
	// It adds the small per-quantum cost that the paper measures at <2%.
	Monitor bool
	// MonitorOverhead is the fractional cycle cost of monitoring per
	// scheduling turn (default 0.4%).
	MonitorOverhead float64
	// Tracer, when set, observes every data access — the hook used by
	// the shadow-memory and SHERIFF-style instrumentation baselines.
	// Unlike PMU monitoring, tracing is invasive: each traced access
	// costs TracerOverhead extra cycles, reproducing the multi-x
	// slowdowns the paper reports for those tools.
	Tracer func(thread int, addr uint64, write bool)
	// TracerOverhead is the per-access cycle cost of tracing
	// (default 45, roughly a 5x slowdown on memory-bound code).
	TracerOverhead int
	// Affinity pins software thread i to core Affinity[i] (taken modulo
	// the core count). Empty means the default striping i mod Cores.
	// Placement experiments (same-socket vs cross-socket false sharing)
	// use it the way taskset would be used on real hardware.
	Affinity []int
	// ExecTracer, when set alongside Tracer, additionally observes
	// non-memory instruction retirement (Exec and Branch batches), so a
	// recorder can reconstruct the full instruction stream, not just the
	// access pattern. It costs nothing when nil.
	ExecTracer func(thread int, n int)
}

// DefaultConfig returns the paper's 12-core Westmere DP machine.
func DefaultConfig() Config {
	return Config{
		Cores:           12,
		Cache:           cache.DefaultConfig(),
		Quantum:         4,
		ClockGHz:        3.46,
		Seed:            1,
		MonitorOverhead: 0.004,
	}
}

// LatRemoteDRAM is the extra DRAM latency of a fill homed on the other
// socket in the NUMA configuration, roughly the 1.7x local/remote ratio
// measured on Westmere DP parts.
const LatRemoteDRAM = 120

// NUMAConfig returns the same 12-core machine split across two sockets
// with a remote-access latency domain: pages interleave round-robin
// across the sockets' memory controllers, a fill homed on the other
// socket pays LatRemoteDRAM extra cycles and counts
// MEM_UNCORE_RETIRED.REMOTE_DRAM, and cross-socket snoops pay the QPI
// round-trip. The numa-remote kernel family trains against this
// machine; everything else keeps the socket-blind DefaultConfig.
func NUMAConfig() Config {
	cfg := DefaultConfig()
	cfg.Cache.Sockets = 2
	cfg.Cache.LatRemote = LatRemoteDRAM
	return cfg
}

// Machine is one simulated multicore system. Not safe for concurrent use.
type Machine struct {
	cfg    Config
	hier   *cache.Hierarchy
	tlbs   []*tlb
	cycles []uint64
	brCnt  []uint64
	// monDebt accumulates fractional monitoring cycles per core so that
	// sub-cycle per-quantum costs are not lost to truncation.
	monDebt []float64
	rng     *xrand.Rand
}

// New builds a machine.
func New(cfg Config) *Machine {
	if cfg.Cores <= 0 {
		panic("machine: config needs a positive core count")
	}
	if cfg.Quantum <= 0 {
		cfg.Quantum = 4
	}
	if cfg.ClockGHz <= 0 {
		cfg.ClockGHz = 3.46
	}
	if cfg.Cache == (cache.Config{}) {
		cfg.Cache = cache.DefaultConfig()
	}
	if cfg.MonitorOverhead == 0 {
		cfg.MonitorOverhead = 0.004
	}
	m := &Machine{
		cfg:     cfg,
		hier:    cache.New(cfg.Cache, cfg.Cores),
		tlbs:    make([]*tlb, cfg.Cores),
		cycles:  make([]uint64, cfg.Cores),
		brCnt:   make([]uint64, cfg.Cores),
		monDebt: make([]float64, cfg.Cores),
		rng:     xrand.New(cfg.Seed),
	}
	for i := range m.tlbs {
		m.tlbs[i] = newTLB()
	}
	return m
}

// Hierarchy exposes the cache system, primarily so a PMU can observe it.
func (m *Machine) Hierarchy() *cache.Hierarchy { return m.hier }

// Config returns the machine configuration.
func (m *Machine) Config() Config { return m.cfg }

// Cycles returns core c's accumulated cycle count.
func (m *Machine) Cycles(c int) uint64 { return m.cycles[c] }

// Ctx is the interface a running thread uses to issue operations. One
// Ctx serves one software thread for a whole execution: the thread's
// core never changes, so the core's counter bank, DTLB and cycle count
// are resolved once, and each scheduling turn only refills the budget.
type Ctx struct {
	m      *Machine
	core   int
	thread int
	budget int
	bank   *cache.Counters
	tlb    *tlb
	cycles *uint64
}

// Core returns the physical core this context is bound to.
func (c *Ctx) Core() int { return c.core }

// Thread returns the software thread (kernel index) this context serves.
func (c *Ctx) Thread() int { return c.thread }

// Budget reports how many more operations fit in this turn. Kernels should
// return from Step once it reaches zero; overshooting by a few ops inside
// one loop body is harmless.
func (c *Ctx) Budget() int { return c.budget }

func (c *Ctx) charge(cycles int) { *c.cycles += uint64(cycles) }

// tlbLatency performs the DTLB lookup for addr and returns the added
// latency.
func (c *Ctx) tlbLatency(addr uint64) int {
	if c.tlb.access(addr) {
		return 0
	}
	c.bank[cache.EvDTLBMiss]++
	c.bank[cache.EvDTLBWalkCycles] += tlbWalkCycles
	return tlbWalkCycles
}

// Load issues a data load at addr.
func (c *Ctx) Load(addr uint64) {
	c.budget--
	bank := c.bank
	bank[cache.EvInstructions]++
	bank[cache.EvUopsRetired] += 2
	walk := c.tlbLatency(addr)
	lat := c.m.hier.Load(c.core, addr)
	c.charge(walk + lat)
	if lat > cache.LatL1 {
		stall := uint64(lat - cache.LatL1)
		bank[cache.EvStallLoad] += stall
		bank[cache.EvStallAny] += stall
	}
	if c.m.cfg.Tracer != nil {
		c.trace(addr, false)
	}
}

// Store issues a data store at addr.
func (c *Ctx) Store(addr uint64) {
	c.budget--
	bank := c.bank
	bank[cache.EvInstructions]++
	bank[cache.EvUopsRetired] += 2
	walk := c.tlbLatency(addr)
	lat := c.m.hier.Store(c.core, addr)
	c.charge(walk + lat)
	if lat > cache.LatL1 {
		stall := uint64(lat - cache.LatL1)
		bank[cache.EvStallStore] += stall
		bank[cache.EvStallAny] += stall
	}
	if c.m.cfg.Tracer != nil {
		c.trace(addr, true)
	}
}

// trace routes the access to the attached instrumentation tool, charging
// its per-access overhead.
func (c *Ctx) trace(addr uint64, write bool) {
	m := c.m
	m.cfg.Tracer(c.thread, addr, write)
	over := m.cfg.TracerOverhead
	if over == 0 {
		over = 45
	}
	if over > 0 {
		// Negative overhead means a zero-cost harness observer (the
		// trace recorder) rather than a modeled instrumentation tool.
		c.charge(over)
	}
}

// Exec retires n ALU instructions at one cycle each.
func (c *Ctx) Exec(n int) {
	if n <= 0 {
		return
	}
	c.budget -= n
	bank := c.bank
	bank[cache.EvInstructions] += uint64(n)
	bank[cache.EvUopsRetired] += uint64(n)
	c.charge(n)
	if c.m.cfg.ExecTracer != nil {
		c.m.cfg.ExecTracer(c.thread, n)
	}
}

// Branch retires n branch instructions. Every 48th branch on a core is
// charged as a mispredict (a deterministic ~2% rate).
func (c *Ctx) Branch(n int) {
	if n <= 0 {
		return
	}
	c.budget -= n
	m := c.m
	bank := c.bank
	bank[cache.EvInstructions] += uint64(n)
	bank[cache.EvUopsRetired] += uint64(n)
	bank[cache.EvBranches] += uint64(n)
	c.charge(n)
	if m.cfg.ExecTracer != nil {
		m.cfg.ExecTracer(c.thread, n)
	}
	m.brCnt[c.core] += uint64(n)
	miss := m.brCnt[c.core] / 48
	if miss > 0 {
		m.brCnt[c.core] -= miss * 48
		bank[cache.EvBranchMisses] += miss
		c.charge(int(miss) * 15)
	}
}

// RunResult summarizes one workload execution.
type RunResult struct {
	// WallCycles is the longest per-core cycle count — the critical path,
	// i.e. the simulated wall-clock duration.
	WallCycles uint64
	// TotalCycles is the sum over cores (aggregate work).
	TotalCycles uint64
	// Instructions is the aggregate retired instruction count.
	Instructions uint64
	// Rounds is the number of scheduler rounds taken.
	Rounds uint64
}

// Seconds converts the wall-clock critical path to seconds at the
// machine's clock rate.
func (m *Machine) Seconds(r RunResult) float64 {
	return float64(r.WallCycles) / (m.cfg.ClockGHz * 1e9)
}

// maxRounds guards against kernels that never finish. It is generous:
// real workloads here take well under a million rounds.
const maxRounds = 1 << 28

// Run executes the given kernels to completion. Kernel i runs on core
// i mod Cores. Threads are interleaved round-robin with the configured
// quantum; a seeded rotation models OS scheduling phase noise.
func (m *Machine) Run(kernels []Kernel) RunResult {
	e := m.StartExecution(kernels)
	res, _ := e.Run(0)
	return res
}

// Execution is an in-progress workload run that can be advanced in
// bounded slices — the mechanism behind time-sliced detection (the
// paper's §6 "short time slices" future work) and behind interactive
// drivers that interleave measurement with execution.
type Execution struct {
	m           *Machine
	kernels     []Kernel
	done        []bool
	remaining   int
	offset      int
	rotateEvery int
	rounds      uint64
	// ctxs holds one Ctx per kernel, bound once to the kernel's core.
	// Kernels receive it through an interface call, so a per-turn Ctx
	// would be a heap allocation per turn; one per thread is not.
	ctxs []Ctx
	// startCycles holds per-core cycle counts at the start of a slice.
	startCycles []uint64
}

// StartExecution prepares a run without executing anything yet.
func (m *Machine) StartExecution(kernels []Kernel) *Execution {
	e := &Execution{
		m:           m,
		kernels:     kernels,
		done:        make([]bool, len(kernels)),
		remaining:   len(kernels),
		startCycles: make([]uint64, m.cfg.Cores),
		ctxs:        make([]Ctx, len(kernels)),
	}
	for i := range e.ctxs {
		core := m.coreOf(i)
		e.ctxs[i] = Ctx{m: m, core: core, thread: i, bank: m.hier.Counters(core), tlb: m.tlbs[core], cycles: &m.cycles[core]}
	}
	if len(kernels) > 0 {
		e.offset = m.rng.Intn(len(kernels))
		e.rotateEvery = 64 + m.rng.Intn(64)
	}
	return e
}

// Finished reports whether every kernel has completed.
func (e *Execution) Finished() bool { return e.remaining == 0 }

// Run advances the execution by at most maxSliceRounds scheduler rounds
// (0 means until completion) and returns the interval's result plus
// whether the workload finished. Per-core cycle deltas are folded into
// the EvCycles counters at each slice boundary, so a PMU read after each
// slice sees exactly that interval when counters are reset between
// slices.
func (e *Execution) Run(maxSliceRounds int) (RunResult, bool) {
	m := e.m
	if e.remaining == 0 {
		return RunResult{}, true
	}
	startCycles := e.startCycles
	copy(startCycles, m.cycles)
	startInstr := m.instructions()

	monitorCycles := float64(m.cfg.Quantum) * m.cfg.MonitorOverhead
	var sliceRounds uint64
	for e.remaining > 0 {
		if maxSliceRounds > 0 && sliceRounds >= uint64(maxSliceRounds) {
			break
		}
		sliceRounds++
		e.rounds++
		if e.rounds > maxRounds {
			panic(fmt.Sprintf("machine: workload exceeded %d scheduler rounds; kernel stuck?", maxRounds))
		}
		if e.rotateEvery > 0 && e.rounds%uint64(e.rotateEvery) == 0 {
			e.offset++
		}
		// Threads take their turns starting at the rotation offset.
		n := len(e.kernels)
		for k, i := 0, e.offset%n; k < n; k, i = k+1, i+1 {
			if i == n {
				i = 0
			}
			if e.done[i] {
				continue
			}
			ctx := &e.ctxs[i]
			ctx.budget = m.cfg.Quantum
			if e.kernels[i].Step(ctx) {
				e.done[i] = true
				e.remaining--
			}
			if m.cfg.Monitor {
				core := ctx.core
				m.monDebt[core] += monitorCycles
				if m.monDebt[core] >= 1 {
					whole := uint64(m.monDebt[core])
					m.cycles[core] += whole
					m.monDebt[core] -= float64(whole)
				}
			}
		}
	}

	var res RunResult
	res.Rounds = sliceRounds
	for c := range m.cycles {
		d := m.cycles[c] - startCycles[c]
		res.TotalCycles += d
		if d > res.WallCycles {
			res.WallCycles = d
		}
		m.hier.Counters(c).Add(cache.EvCycles, d)
	}
	res.Instructions = m.instructions() - startInstr
	return res, e.remaining == 0
}

// coreOf resolves software thread i to its core.
func (m *Machine) coreOf(i int) int {
	if len(m.cfg.Affinity) > 0 {
		return m.cfg.Affinity[i%len(m.cfg.Affinity)] % m.cfg.Cores
	}
	return i % m.cfg.Cores
}

func (m *Machine) instructions() uint64 {
	var t uint64
	for c := 0; c < m.cfg.Cores; c++ {
		t += m.hier.Counters(c).Get(cache.EvInstructions)
	}
	return t
}
