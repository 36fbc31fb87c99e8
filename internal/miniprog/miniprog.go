// Package miniprog implements the paper's training mini-programs (§2.2):
// small, parameterized kernels in which false sharing and inefficient
// memory access can be switched on and off.
//
// The multi-threaded set — psums, padding, false1 (scalar); psumv, pdot,
// count (vector); pmatmult, pmatcompare (matrix) — mirrors Figure 1's
// construction: in "good" mode each thread accumulates into a register (or
// a padded, line-private slot), in "bad-fs" mode every thread does
// read-modify-write updates to its element of a packed array whose
// elements share cache lines, and in "bad-ma" mode the data access order
// is strided or random instead of linear.
//
// The sequential set — sread, swrite, srmw (element-wise array passes) and
// smatmult (loop-order-sensitive matrix multiply) — exists, as in the
// paper, to enrich the bad-ma training data.
package miniprog

import (
	"fmt"

	"fsml/internal/machine"
	"fsml/internal/mem"
	"fsml/internal/xrand"
)

// Mode is a mini-program's mode of operation, which doubles as the
// training label (§2.1).
type Mode int

const (
	Good  Mode = iota // no false sharing, no bad memory access
	BadFS             // false sharing
	BadMA             // inefficient memory access
)

// The pathology modes extend the paper's label space beyond its three
// classes (ROADMAP item 4). They are deliberately NOT part of Modes():
// the legacy grids, seeds, and tables stay byte-identical, and only the
// ensemble's widened grids enumerate them (see PathologySet).
const (
	TLBThrash  Mode = iota + 3 // page-stride walks past the DTLB reach
	NUMARemote                 // demand fills homed on the other socket
	BWSat                      // streaming that saturates the fill buffers
)

// String returns the paper's label spelling.
func (m Mode) String() string {
	switch m {
	case Good:
		return "good"
	case BadFS:
		return "bad-fs"
	case BadMA:
		return "bad-ma"
	case TLBThrash:
		return "tlb-thrash"
	case NUMARemote:
		return "numa-remote"
	case BWSat:
		return "bw-saturated"
	}
	return fmt.Sprintf("mode?%d", int(m))
}

// ParseMode converts a label string back to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "good":
		return Good, nil
	case "bad-fs":
		return BadFS, nil
	case "bad-ma":
		return BadMA, nil
	case "tlb-thrash":
		return TLBThrash, nil
	case "numa-remote":
		return NUMARemote, nil
	case "bw-saturated":
		return BWSat, nil
	}
	return Good, fmt.Errorf("miniprog: unknown mode %q", s)
}

// Modes lists the paper's three labels in paper order. Legacy grid
// enumeration and the 3-class detector are pinned to this list.
func Modes() []Mode { return []Mode{Good, BadFS, BadMA} }

// AllModes lists the full widened label space: the paper's three classes
// followed by the pathology modes, in a fixed order.
func AllModes() []Mode {
	return []Mode{Good, BadFS, BadMA, TLBThrash, NUMARemote, BWSat}
}

// Spec selects one concrete run of a mini-program.
type Spec struct {
	// Program is the mini-program name (see MultiThreadedSet /
	// SequentialSet).
	Program string
	// Size is the problem size: element count for scalar/vector programs,
	// matrix dimension for matrix programs.
	Size int
	// Threads is the software thread count (1 for the sequential set).
	Threads int
	// Mode selects good / bad-fs / bad-ma.
	Mode Mode
	// Seed perturbs data layout and access randomization, modeling
	// run-to-run allocator and scheduler variation.
	Seed uint64
}

// Program is one mini-program: a named builder of thread kernels.
type Program struct {
	// Name is the identifier used throughout tables and the CLI.
	Name string
	// MultiThreaded distinguishes Part A from Part B programs.
	MultiThreaded bool
	// Supports reports which modes the program can run in; e.g. the
	// scalar programs have no bad-ma mode and the sequential programs no
	// bad-fs mode (§3.1's Table 3 reflects this asymmetry).
	Supports map[Mode]bool
	// Build constructs the per-thread kernels for the spec, allocating
	// simulated memory from space.
	Build func(spec Spec, space *mem.Space) []machine.Kernel
}

// elem is the element size all mini-programs use (a 64-bit word).
const elem = 8

// splitRange gives thread tid its [start,end) share of n items.
func splitRange(n, threads, tid int) (int, int) {
	per := n / threads
	start := tid * per
	end := start + per
	if tid == threads-1 {
		end = n
	}
	return start, end
}

// stepDiv yields it/n and it%n for a loop counter without dividing while
// the counter ascends by one per call, as IterKernel drives its bodies;
// any other step divides.
type stepDiv struct{ n, next, q, r int }

func newStepDiv(n int) *stepDiv { return &stepDiv{n: n, next: -1} }

func (d *stepDiv) at(it int) (q, r int) {
	if it == d.next {
		if d.r++; d.r == d.n {
			d.r = 0
			d.q++
		}
	} else {
		d.q, d.r = it/d.n, it%d.n
	}
	d.next = it + 1
	return d.q, d.r
}

// accumulators allocates the per-thread accumulator slots: packed (one
// line shared by up to 8 threads) in bad-fs mode, line-padded otherwise.
func accumulators(space *mem.Space, threads int, mode Mode) mem.Array {
	if mode == BadFS {
		return mem.NewArray(space, threads, elem)
	}
	return mem.NewPaddedArray(space, threads, elem)
}

// indexer returns the element-visit order for a pass over n elements:
// ascending in Good/BadFS modes, and a cache-hostile order in BadMA mode.
// Odd seeds pick a large-stride permutation, even seeds a random one, so
// the training data contains both bad-ma flavors the paper describes.
func indexer(mode Mode, n int, seed uint64) func(i int) int {
	if mode != BadMA {
		return func(i int) int { return i }
	}
	if seed%2 == 1 {
		// Strided: visit every strideElems-th element, wrapping with an
		// offset, so consecutive accesses touch different lines and pages.
		stride := 523 // prime, 523*8 bytes > a page
		return func(i int) int { return (i * stride) % n }
	}
	rng := xrand.New(seed ^ 0xabcdef)
	perm := rng.Perm(n)
	return func(i int) int { return perm[i] }
}

// accumBody returns the per-iteration accumulator update for the mode:
// bad-fs does the Figure 1 pdot_2 read-modify-write of a packed shared
// slot; the other modes model Figure 1 pdot_1's register accumulator.
func accumBody(mode Mode, slot uint64) func(ctx *machine.Ctx) {
	if mode == BadFS {
		return func(ctx *machine.Ctx) {
			ctx.Load(slot)
			ctx.Exec(1)
			ctx.Store(slot)
		}
	}
	return func(ctx *machine.Ctx) { ctx.Exec(1) }
}

// jitterLayout shifts the allocation base by a seed-dependent number of
// lines, modeling allocator/ASLR variation between runs.
func jitterLayout(space *mem.Space, seed uint64) {
	rng := xrand.New(seed ^ 0x5eed1a70)
	space.Skip(rng.Uint64n(64) * mem.LineSize)
}

// ---------------------------------------------------------------------------
// Part A: multi-threaded set

func buildPsums(spec Spec, space *mem.Space) []machine.Kernel {
	jitterLayout(space, spec.Seed)
	acc := accumulators(space, spec.Threads, spec.Mode)
	kernels := make([]machine.Kernel, spec.Threads)
	for tid := 0; tid < spec.Threads; tid++ {
		start, end := splitRange(spec.Size, spec.Threads, tid)
		slot := acc.Addr(tid)
		body := accumBody(spec.Mode, slot)
		kernels[tid] = &machine.IterKernel{
			I: start, End: end,
			Body:   func(ctx *machine.Ctx, i int) { ctx.Exec(2); body(ctx) },
			OnDone: func(ctx *machine.Ctx) { ctx.Store(slot) },
		}
	}
	return kernels
}

func buildPadding(spec Spec, space *mem.Space) []machine.Kernel {
	jitterLayout(space, spec.Seed)
	// The padding program is the purest counter-increment loop: every
	// iteration writes the thread's counter, and the only difference
	// between modes is the layout of the counter array.
	acc := accumulators(space, spec.Threads, spec.Mode)
	kernels := make([]machine.Kernel, spec.Threads)
	for tid := 0; tid < spec.Threads; tid++ {
		start, end := splitRange(spec.Size, spec.Threads, tid)
		slot := acc.Addr(tid)
		kernels[tid] = &machine.IterKernel{
			I: start, End: end,
			Body: func(ctx *machine.Ctx, i int) {
				ctx.Load(slot)
				ctx.Exec(1)
				ctx.Store(slot)
			},
		}
	}
	return kernels
}

func buildFalse1(spec Spec, space *mem.Space) []machine.Kernel {
	jitterLayout(space, spec.Seed)
	// false1 writes two per-thread variables per iteration — a counter
	// and a flag — doubling the write pressure on the shared line in
	// bad-fs mode.
	var a, b mem.Array
	if spec.Mode == BadFS {
		a = mem.NewArray(space, spec.Threads, elem)
		b = mem.NewArray(space, spec.Threads, elem)
	} else {
		a = mem.NewPaddedArray(space, spec.Threads, elem)
		b = mem.NewPaddedArray(space, spec.Threads, elem)
	}
	kernels := make([]machine.Kernel, spec.Threads)
	for tid := 0; tid < spec.Threads; tid++ {
		start, end := splitRange(spec.Size, spec.Threads, tid)
		sa, sb := a.Addr(tid), b.Addr(tid)
		kernels[tid] = &machine.IterKernel{
			I: start, End: end,
			Body: func(ctx *machine.Ctx, i int) {
				ctx.Exec(1)
				ctx.Store(sa)
				ctx.Branch(1)
				ctx.Store(sb)
			},
		}
	}
	return kernels
}

func buildPsumv(spec Spec, space *mem.Space) []machine.Kernel {
	jitterLayout(space, spec.Seed)
	v := mem.NewArray(space, spec.Size, elem)
	acc := accumulators(space, spec.Threads, spec.Mode)
	idx := indexer(spec.Mode, spec.Size, spec.Seed)
	kernels := make([]machine.Kernel, spec.Threads)
	for tid := 0; tid < spec.Threads; tid++ {
		start, end := splitRange(spec.Size, spec.Threads, tid)
		slot := acc.Addr(tid)
		body := accumBody(spec.Mode, slot)
		kernels[tid] = &machine.IterKernel{
			I: start, End: end,
			Body: func(ctx *machine.Ctx, i int) {
				ctx.Load(v.Addr(idx(i)))
				body(ctx)
			},
			OnDone: func(ctx *machine.Ctx) { ctx.Store(slot) },
		}
	}
	return kernels
}

func buildPdot(spec Spec, space *mem.Space) []machine.Kernel {
	jitterLayout(space, spec.Seed)
	v1 := mem.NewArray(space, spec.Size, elem)
	v2 := mem.NewArray(space, spec.Size, elem)
	acc := accumulators(space, spec.Threads, spec.Mode)
	idx := indexer(spec.Mode, spec.Size, spec.Seed)
	kernels := make([]machine.Kernel, spec.Threads)
	for tid := 0; tid < spec.Threads; tid++ {
		start, end := splitRange(spec.Size, spec.Threads, tid)
		slot := acc.Addr(tid)
		body := accumBody(spec.Mode, slot)
		kernels[tid] = &machine.IterKernel{
			I: start, End: end,
			Body: func(ctx *machine.Ctx, i int) {
				j := idx(i)
				ctx.Load(v1.Addr(j))
				ctx.Load(v2.Addr(j))
				ctx.Exec(1) // the multiply
				body(ctx)
			},
			OnDone: func(ctx *machine.Ctx) { ctx.Store(slot) },
		}
	}
	return kernels
}

// matchPeriods are the predicate selectivities the counting programs
// cycle through by seed. Sparse matches dilute the accumulator updates,
// which in bad-fs mode spreads the training data over a wide range of
// false-sharing intensities — from pdot-like storms down to the
// streamcluster regime where only a small fraction of the work touches
// the contended line. Without this spread the learned HITM threshold
// sits too high to catch real-world (diluted) false sharing.
var matchPeriods = []int{3, 8, 24, 64, 128}

func matchPeriod(seed uint64) int {
	return matchPeriods[int(seed>>3)%len(matchPeriods)]
}

func buildCount(spec Spec, space *mem.Space) []machine.Kernel {
	jitterLayout(space, spec.Seed)
	v := mem.NewArray(space, spec.Size, elem)
	acc := accumulators(space, spec.Threads, spec.Mode)
	idx := indexer(spec.Mode, spec.Size, spec.Seed)
	period := matchPeriod(spec.Seed)
	kernels := make([]machine.Kernel, spec.Threads)
	for tid := 0; tid < spec.Threads; tid++ {
		start, end := splitRange(spec.Size, spec.Threads, tid)
		slot := acc.Addr(tid)
		body := accumBody(spec.Mode, slot)
		kernels[tid] = &machine.IterKernel{
			I: start, End: end,
			Body: func(ctx *machine.Ctx, i int) {
				ctx.Load(v.Addr(idx(i)))
				ctx.Branch(1)      // the predicate
				if i%period == 0 { // "matches" increment the counter
					body(ctx)
				}
			},
			OnDone: func(ctx *machine.Ctx) { ctx.Store(slot) },
		}
	}
	return kernels
}

func buildPmatmult(spec Spec, space *mem.Space) []machine.Kernel {
	jitterLayout(space, spec.Seed)
	n := spec.Size
	a := mem.NewMatrix(space, n, n, elem)
	b := mem.NewMatrix(space, n, n, elem)
	c := mem.NewMatrix(space, n, n, elem)
	acc := accumulators(space, spec.Threads, spec.Mode)
	kernels := make([]machine.Kernel, spec.Threads)
	for tid := 0; tid < spec.Threads; tid++ {
		rs, re := splitRange(n, spec.Threads, tid)
		slot := acc.Addr(tid)
		switch spec.Mode {
		case BadMA:
			// Output cells visited in a scrambled order within the
			// thread's row share, with the inner loop walking a column of
			// b: no spatial locality anywhere (Figure 1's "non-sequential
			// vector element access" at matrix scale).
			cells := (re - rs) * n
			perm := xrand.New(spec.Seed ^ uint64(tid)*0x9e37).Perm(cells)
			base := rs * n * n
			byCell := newStepDiv(n)
			kernels[tid] = &machine.IterKernel{
				I: base, End: re * n * n,
				Body: func(ctx *machine.Ctx, it int) {
					ci, k := byCell.at(it - base)
					cell := perm[ci]
					i, j := rs+cell/n, cell%n
					ctx.Load(a.Addr(i, k))
					ctx.Load(b.Addr(k, j))
					ctx.Exec(1)
					if k == n-1 {
						ctx.Store(c.Addr(i, j))
					}
				},
			}
		case BadFS:
			// Accumulate every partial product into the packed per-thread
			// slot, the shared-psum anti-pattern at matrix scale.
			byRow, byCol := newStepDiv(n*n), newStepDiv(n)
			kernels[tid] = &machine.IterKernel{
				I: rs * n * n, End: re * n * n,
				Body: func(ctx *machine.Ctx, it int) {
					i, rem := byRow.at(it)
					k, j := byCol.at(rem)
					ctx.Load(a.Addr(i, k))
					ctx.Load(b.Addr(k, j))
					ctx.Load(slot)
					ctx.Exec(1)
					ctx.Store(slot)
					if k == n-1 {
						ctx.Store(c.Addr(i, j))
					}
				},
			}
		default:
			// ikj order: streams rows of b and c; the a element stays in
			// a register for a whole inner loop.
			byRow, byCol := newStepDiv(n*n), newStepDiv(n)
			kernels[tid] = &machine.IterKernel{
				I: rs * n * n, End: re * n * n,
				Body: func(ctx *machine.Ctx, it int) {
					i, rem := byRow.at(it)
					k, j := byCol.at(rem)
					if j == 0 {
						ctx.Load(a.Addr(i, k))
					}
					ctx.Load(b.Addr(k, j))
					ctx.Exec(1)
					ctx.Store(c.Addr(i, j))
				},
			}
		}
	}
	return kernels
}

func buildPmatcompare(spec Spec, space *mem.Space) []machine.Kernel {
	jitterLayout(space, spec.Seed)
	n := spec.Size
	a := mem.NewMatrix(space, n, n, elem)
	b := mem.NewMatrix(space, n, n, elem)
	acc := accumulators(space, spec.Threads, spec.Mode)
	idx := indexer(spec.Mode, n*n, spec.Seed)
	period := matchPeriod(spec.Seed >> 1)
	kernels := make([]machine.Kernel, spec.Threads)
	for tid := 0; tid < spec.Threads; tid++ {
		start, end := splitRange(n*n, spec.Threads, tid)
		slot := acc.Addr(tid)
		body := accumBody(spec.Mode, slot)
		byRow := newStepDiv(n)
		kernels[tid] = &machine.IterKernel{
			I: start, End: end,
			Body: func(ctx *machine.Ctx, it int) {
				r, col := byRow.at(idx(it))
				ctx.Load(a.Addr(r, col))
				ctx.Load(b.Addr(r, col))
				ctx.Branch(1)       // the comparison
				if it%period == 0 { // mismatches bump the per-thread count
					body(ctx)
				}
			},
			OnDone: func(ctx *machine.Ctx) { ctx.Store(slot) },
		}
	}
	return kernels
}

// ---------------------------------------------------------------------------
// Part B: sequential set

func buildSread(spec Spec, space *mem.Space) []machine.Kernel {
	jitterLayout(space, spec.Seed)
	v := mem.NewArray(space, spec.Size, elem)
	idx := indexer(spec.Mode, spec.Size, spec.Seed)
	return []machine.Kernel{&machine.IterKernel{
		End: spec.Size,
		Body: func(ctx *machine.Ctx, i int) {
			ctx.Load(v.Addr(idx(i)))
			ctx.Exec(1)
		},
	}}
}

func buildSwrite(spec Spec, space *mem.Space) []machine.Kernel {
	jitterLayout(space, spec.Seed)
	v := mem.NewArray(space, spec.Size, elem)
	idx := indexer(spec.Mode, spec.Size, spec.Seed)
	return []machine.Kernel{&machine.IterKernel{
		End: spec.Size,
		Body: func(ctx *machine.Ctx, i int) {
			ctx.Exec(1)
			ctx.Store(v.Addr(idx(i)))
		},
	}}
}

func buildSrmw(spec Spec, space *mem.Space) []machine.Kernel {
	jitterLayout(space, spec.Seed)
	v := mem.NewArray(space, spec.Size, elem)
	idx := indexer(spec.Mode, spec.Size, spec.Seed)
	return []machine.Kernel{&machine.IterKernel{
		End: spec.Size,
		Body: func(ctx *machine.Ctx, i int) {
			j := idx(i)
			ctx.Load(v.Addr(j))
			ctx.Exec(2)
			ctx.Store(v.Addr(j))
		},
	}}
}

func buildSmatmult(spec Spec, space *mem.Space) []machine.Kernel {
	jitterLayout(space, spec.Seed)
	n := spec.Size
	a := mem.NewMatrix(space, n, n, elem)
	b := mem.NewMatrix(space, n, n, elem)
	c := mem.NewMatrix(space, n, n, elem)
	if spec.Mode == BadMA {
		// jki order: both a and c are walked down columns.
		byCol, byRow := newStepDiv(n*n), newStepDiv(n)
		return []machine.Kernel{&machine.IterKernel{
			End: n * n * n,
			Body: func(ctx *machine.Ctx, it int) {
				j, rem := byCol.at(it)
				k, i := byRow.at(rem)
				if i == 0 {
					ctx.Load(b.Addr(k, j))
				}
				ctx.Load(a.Addr(i, k))
				ctx.Load(c.Addr(i, j))
				ctx.Exec(1)
				ctx.Store(c.Addr(i, j))
			},
		}}
	}
	byRow, byCol := newStepDiv(n*n), newStepDiv(n)
	return []machine.Kernel{&machine.IterKernel{
		End: n * n * n,
		Body: func(ctx *machine.Ctx, it int) {
			i, rem := byRow.at(it)
			k, j := byCol.at(rem)
			if j == 0 {
				ctx.Load(a.Addr(i, k))
			}
			ctx.Load(b.Addr(k, j))
			ctx.Exec(1)
			ctx.Store(c.Addr(i, j))
		},
	}}
}

// ---------------------------------------------------------------------------
// Registry

var multiThreaded = []Program{
	{"psums", true, map[Mode]bool{Good: true, BadFS: true}, buildPsums},
	{"padding", true, map[Mode]bool{Good: true, BadFS: true}, buildPadding},
	{"false1", true, map[Mode]bool{Good: true, BadFS: true}, buildFalse1},
	{"psumv", true, map[Mode]bool{Good: true, BadFS: true, BadMA: true}, buildPsumv},
	{"pdot", true, map[Mode]bool{Good: true, BadFS: true, BadMA: true}, buildPdot},
	{"count", true, map[Mode]bool{Good: true, BadFS: true, BadMA: true}, buildCount},
	{"pmatmult", true, map[Mode]bool{Good: true, BadFS: true, BadMA: true}, buildPmatmult},
	{"pmatcompare", true, map[Mode]bool{Good: true, BadFS: true, BadMA: true}, buildPmatcompare},
}

var sequential = []Program{
	{"sread", false, map[Mode]bool{Good: true, BadMA: true}, buildSread},
	{"swrite", false, map[Mode]bool{Good: true, BadMA: true}, buildSwrite},
	{"srmw", false, map[Mode]bool{Good: true, BadMA: true}, buildSrmw},
	{"smatmult", false, map[Mode]bool{Good: true, BadMA: true}, buildSmatmult},
}

// MultiThreadedSet returns the Part A programs (§2.2.1).
func MultiThreadedSet() []Program {
	out := make([]Program, len(multiThreaded))
	copy(out, multiThreaded)
	return out
}

// SequentialSet returns the Part B programs (§2.2.2).
func SequentialSet() []Program {
	out := make([]Program, len(sequential))
	copy(out, sequential)
	return out
}

// All returns every paper mini-program (Parts A and B). The pathology
// programs are excluded so legacy enumerations stay stable; use
// PathologySet for those.
func All() []Program { return append(MultiThreadedSet(), SequentialSet()...) }

// Lookup finds a program by name, in the paper sets or the pathology set.
func Lookup(name string) (Program, bool) {
	for _, p := range append(All(), PathologySet()...) {
		if p.Name == name {
			return p, true
		}
	}
	return Program{}, false
}

// SpaceFor returns an address space sized generously for the spec.
// Addresses are virtual and data-free, so generous is cheap.
func SpaceFor(spec Spec) *mem.Space {
	need := uint64(spec.Size) * elem * 4
	if p, ok := Lookup(spec.Program); ok {
		switch p.Name {
		case "pmatmult", "pmatcompare", "smatmult":
			need = uint64(spec.Size) * uint64(spec.Size) * elem * 4
		case "tlbwalk", "numaping", "bwsat":
			// Page-granular footprints: one-touch line walks and
			// per-thread page windows need room well beyond Size words.
			need = uint64(spec.Size)*elem*4 + uint64(spec.Size)*2*mem.LineSize + 64<<20
		}
	}
	return mem.NewSpace(need + (1 << 20))
}

// Build validates the spec and constructs its kernels and address space.
func Build(spec Spec) ([]machine.Kernel, error) {
	p, ok := Lookup(spec.Program)
	if !ok {
		return nil, fmt.Errorf("miniprog: unknown program %q", spec.Program)
	}
	if !p.Supports[spec.Mode] {
		return nil, fmt.Errorf("miniprog: %s has no %s mode", p.Name, spec.Mode)
	}
	if spec.Size <= 0 {
		return nil, fmt.Errorf("miniprog: %s needs a positive size", p.Name)
	}
	if spec.Threads <= 0 || (!p.MultiThreaded && spec.Threads != 1) {
		return nil, fmt.Errorf("miniprog: %s cannot run with %d threads", p.Name, spec.Threads)
	}
	return p.Build(spec, SpaceFor(spec)), nil
}
