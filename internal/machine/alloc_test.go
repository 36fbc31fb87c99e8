package machine

import "testing"

// TestRunSliceAllocatesNothing pins the steady state of the scheduler
// and the cache hierarchy: once a workload's lines are resident, a
// scheduling round allocates nothing — no per-turn Ctx, no per-slice
// cycle snapshot, no line-fill-buffer regrowth.
func TestRunSliceAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Monitor = true
	m := New(cfg)
	kernels := make([]Kernel, 4)
	for tid := range kernels {
		kernels[tid] = &IterKernel{End: 1 << 30, Body: func(ctx *Ctx, i int) {
			// Thread-private lines plus one falsely shared line, so the
			// steady state includes coherence traffic.
			ctx.Load(0x100000 + uint64(tid)<<16 + uint64(i%64)*64)
			ctx.Store(0x80000 + uint64(8*tid))
			ctx.Exec(2)
			ctx.Branch(1)
		}}
	}
	e := m.StartExecution(kernels)
	e.Run(5000)
	if allocs := testing.AllocsPerRun(500, func() { e.Run(1) }); allocs != 0 {
		t.Errorf("a warmed-up one-round slice allocates %.1f times, want 0", allocs)
	}
}
