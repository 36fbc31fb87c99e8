package machine

import (
	"testing"

	"fsml/internal/cache"
)

// opKernel replays a fixed op list: kind 0 loads, 1 stores, 2 execs and
// 3 branches, each op's arg being the address or the instruction count.
type opKernel struct {
	kinds []byte
	args  []uint64
	pos   int
}

func (k *opKernel) Step(ctx *Ctx) bool {
	for ; k.pos < len(k.kinds); k.pos++ {
		if ctx.Budget() <= 0 {
			return false
		}
		switch a := k.args[k.pos]; k.kinds[k.pos] {
		case 0:
			ctx.Load(a)
		case 1:
			ctx.Store(a)
		case 2:
			ctx.Exec(int(a))
		default:
			ctx.Branch(int(a))
		}
	}
	return true
}

// fuzzStrides spread one byte of address choice over the paths that
// matter: words of one line (false sharing), adjacent lines (the
// prefetcher), pages (the DTLB and NUMA homes), and strides that land in
// one L1, L2 or L3 set and so force evictions at every level.
var fuzzStrides = [8]uint64{8, 64, 4096, 64 * 64, 512 * 64, 12288 * 64, 8, 64}

// maxFuzzOps bounds one input, since the invariant check after every
// slice makes a run's cost grow with the square of its length.
const maxFuzzOps = 256

// decodeFuzzKernels turns fuzz bytes into 1-16 threads of ops. The first
// byte picks the thread count; every following pair is one op: the
// first byte its thread and kind, the second its address or count.
// Bytes past maxFuzzOps ops are ignored.
func decodeFuzzKernels(data []byte) []Kernel {
	if len(data) == 0 {
		return nil
	}
	if len(data) > 1+2*maxFuzzOps {
		data = data[:1+2*maxFuzzOps]
	}
	ks := make([]*opKernel, 1+int(data[0]%16))
	for i := range ks {
		ks[i] = &opKernel{}
	}
	for i := 1; i+1 < len(data); i += 2 {
		sel, arg := data[i], data[i+1]
		k := ks[int(sel>>2)%len(ks)]
		kind := sel & 3
		var a uint64
		if kind < 2 {
			a = 0x100000 + uint64(arg&31)*fuzzStrides[arg>>5]
		} else {
			a = 1 + uint64(arg%8)
		}
		k.kinds = append(k.kinds, kind)
		k.args = append(k.args, a)
	}
	out := make([]Kernel, len(ks))
	for i, k := range ks {
		out[i] = k
	}
	return out
}

// checkCounterIdentities asserts the relations the hierarchy's counting
// guarantees by construction (see Hierarchy.Load and Hierarchy.Store):
// every L2 miss is exactly one offcore demand read or RFO and is
// resolved in L3 as exactly one hit or one miss; a remote DRAM fill is
// an L3 miss; load misses nest inside loads.
func checkCounterIdentities(t *testing.T, h *cache.Hierarchy) {
	t.Helper()
	tot := h.TotalCounters()
	g := tot.Get
	if g(cache.EvL2Miss) != g(cache.EvOffcoreDemandRD)+g(cache.EvOffcoreRFO) {
		t.Fatalf("L2_RQSTS.MISS %d != OFFCORE demand reads %d + RFOs %d", g(cache.EvL2Miss), g(cache.EvOffcoreDemandRD), g(cache.EvOffcoreRFO))
	}
	if g(cache.EvL3Hit)+g(cache.EvL3Miss) != g(cache.EvL2Miss) {
		t.Fatalf("L3.HIT %d + L3.MISS %d != L2_RQSTS.MISS %d", g(cache.EvL3Hit), g(cache.EvL3Miss), g(cache.EvL2Miss))
	}
	if g(cache.EvL1LoadMiss) > g(cache.EvLoads) {
		t.Fatalf("L1D.LD_MISS %d > loads %d", g(cache.EvL1LoadMiss), g(cache.EvLoads))
	}
	if g(cache.EvL2LdMiss) > g(cache.EvL1LoadMiss) {
		t.Fatalf("L2_RQSTS.LD_MISS %d > L1D.LD_MISS %d", g(cache.EvL2LdMiss), g(cache.EvL1LoadMiss))
	}
	if g(cache.EvRemoteDRAM) > g(cache.EvL3Miss) {
		t.Fatalf("REMOTE_DRAM %d > L3.MISS %d", g(cache.EvRemoteDRAM), g(cache.EvL3Miss))
	}
}

// FuzzMachine runs arbitrary load/store/exec/branch mixes on the default
// and the NUMA machine in one-round slices, and after every slice
// requires the hierarchy's coherence and inclusivity invariants and the
// counter identities to hold.
func FuzzMachine(f *testing.F) {
	f.Add(false, []byte{1, 1, 0, 5, 0, 1, 0, 5, 0})         // two cores ping-pong one line
	f.Add(true, []byte{3, 0, 0, 4, 1, 8, 64, 13, 2, 0, 96}) // loads, stores, remote pages
	f.Add(false, []byte{0, 0, 160, 0, 161, 0, 162, 0, 163, 1, 164})
	f.Add(true, []byte{15, 2, 7, 7, 3, 4, 32, 5, 33, 9, 200, 13, 201})
	seq := []byte{4}
	for i := 0; i < 200; i++ {
		seq = append(seq, byte(i*5), byte(i*37))
	}
	f.Add(false, seq)
	f.Add(true, seq)
	f.Fuzz(func(t *testing.T, numa bool, data []byte) {
		kernels := decodeFuzzKernels(data)
		if kernels == nil {
			return
		}
		cfg := DefaultConfig()
		if numa {
			cfg = NUMAConfig()
		}
		m := New(cfg)
		e := m.StartExecution(kernels)
		for slices := 0; !e.Finished(); slices++ {
			if slices > len(data)+8 {
				t.Fatalf("not finished after %d one-round slices", slices)
			}
			e.Run(1)
			if err := m.Hierarchy().CheckInvariants(); err != nil {
				t.Fatalf("after slice %d: %v", slices, err)
			}
			checkCounterIdentities(t, m.Hierarchy())
		}
	})
}
