package machine_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"fsml/internal/cache"
	"fsml/internal/machine"
	"fsml/internal/miniprog"
	"fsml/internal/trace"
	"fsml/internal/trace/tracetest"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRun is one pinned simulation: the full counter bank summed over
// cores, a hash of the per-core banks (so a count moving between cores
// shows too), and the wall-clock critical path.
type goldenRun struct {
	Name       string            `json:"name"`
	WallCycles uint64            `json:"wall_cycles"`
	PerCore    string            `json:"per_core_fnv64a"`
	Counters   map[string]uint64 `json:"counters"`
}

// goldenCase builds a fresh machine and kernels for one pinned run.
type goldenCase struct {
	name    string
	cfg     machine.Config
	kernels func(t *testing.T) []machine.Kernel
}

// tinyCache shrinks every level so the mini-programs overflow L3 and
// exercise the inclusive-eviction paths the default 12 MiB L3 never
// reaches at these sizes.
func tinyCache() cache.Config {
	return cache.Config{
		L1Size: 1 << 10, L1Ways: 2,
		L2Size: 4 << 10, L2Ways: 4,
		L3Size: 48 << 10, L3Ways: 4,
		Prefetch:  true,
		LFBWindow: 8,
	}
}

func goldenCases() []goldenCase {
	var cases []goldenCase
	prog := func(label string, cfg machine.Config, sp miniprog.Spec) {
		cfg.Seed, cfg.Monitor = sp.Seed^0x5151, true
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("%s/%s/size=%d/threads=%d/%s", label, sp.Program, sp.Size, sp.Threads, sp.Mode),
			cfg:  cfg,
			kernels: func(t *testing.T) []machine.Kernel {
				ks, err := miniprog.Build(sp)
				if err != nil {
					t.Fatal(err)
				}
				return ks
			},
		})
	}
	every := func(label string, cfg machine.Config, name string, size, threads int) {
		p, ok := miniprog.Lookup(name)
		if !ok {
			panic("unknown program " + name)
		}
		for _, mode := range miniprog.AllModes() {
			if p.Supports[mode] {
				prog(label, cfg, miniprog.Spec{Program: name, Size: size, Threads: threads, Mode: mode, Seed: 1 + uint64(size)})
			}
		}
	}

	def := machine.DefaultConfig()
	for _, p := range []struct {
		name          string
		size, threads int
	}{
		{"psums", 20000, 4}, {"padding", 20000, 4}, {"false1", 20000, 4},
		{"psumv", 20000, 6}, {"pdot", 20000, 6}, {"count", 20000, 3},
		{"pmatmult", 48, 4}, {"pmatcompare", 48, 4},
		{"sread", 60000, 1}, {"swrite", 60000, 1}, {"srmw", 20000, 1}, {"smatmult", 48, 1},
	} {
		every("default", def, p.name, p.size, p.threads)
	}

	numa := machine.NUMAConfig()
	for _, name := range []string{"numaping", "tlbwalk", "bwsat", "pdot"} {
		every("numa", numa, name, 20000, 12)
	}

	variants := []struct {
		label string
		edit  func(*cache.Config)
	}{
		{"msi", func(c *cache.Config) { c.MSI = true }},
		{"noprefetch", func(c *cache.Config) { c.Prefetch = false }},
		{"lfb0", func(c *cache.Config) { c.LFBWindow = 0 }},
	}
	for _, v := range variants {
		cfg := machine.DefaultConfig()
		v.edit(&cfg.Cache)
		every(v.label, cfg, "pdot", 20000, 6)
		every(v.label, cfg, "sread", 60000, 1)
	}

	tiny := machine.DefaultConfig()
	tiny.Cache = tinyCache()
	every("tiny", tiny, "pdot", 20000, 6)
	every("tiny", tiny, "pmatmult", 48, 4)
	every("tiny", tiny, "srmw", 20000, 1)

	for i, gz := range tracetest.HeavySet(1) {
		cfg := machine.DefaultConfig()
		cfg.Seed, cfg.Monitor = 1, true
		cases = append(cases, goldenCase{
			name: fmt.Sprintf("trace/heavy%d", i),
			cfg:  cfg,
			kernels: func(t *testing.T) []machine.Kernel {
				tr, err := trace.Parse(bytes.NewReader(gz))
				if err != nil {
					t.Fatal(err)
				}
				return tr.Kernels()
			},
		})
	}
	return cases
}

func runGolden(t *testing.T, gc goldenCase) goldenRun {
	m := machine.New(gc.cfg)
	res := m.Run(gc.kernels(t))
	h := m.Hierarchy()
	tot := h.TotalCounters()
	run := goldenRun{Name: gc.name, WallCycles: res.WallCycles, Counters: map[string]uint64{}}
	for e := cache.EvID(0); e < cache.NumEvents; e++ {
		run.Counters[e.String()] = tot.Get(e)
	}
	hash := fnv.New64a()
	for c := 0; c < h.NumCores(); c++ {
		bank := h.Counters(c)
		for e := cache.EvID(0); e < cache.NumEvents; e++ {
			fmt.Fprintf(hash, "%d,", bank.Get(e))
		}
		hash.Write([]byte{'\n'})
	}
	run.PerCore = fmt.Sprintf("%016x", hash.Sum64())
	return run
}

// TestCounterGolden pins every simulator counter, not just the events
// the detectors select: mini-programs in every mode on the default and
// NUMA machines, the MSI, no-prefetch, zero-LFB and tiny-cache variants,
// and replays of the benchmark's six heavy traces. Any change to the
// cache hierarchy, the TLB, the cycle model or the scheduler that moves
// one count of one event on one core fails here.
//
// Regenerate (only after an intentional model change) with:
//
//	go test ./internal/machine -run TestCounterGolden -update
func TestCounterGolden(t *testing.T) {
	var runs []goldenRun
	for _, gc := range goldenCases() {
		runs = append(runs, runGolden(t, gc))
	}
	blob, err := json.MarshalIndent(runs, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, '\n')
	path := filepath.Join("testdata", "counters.golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d runs)", path, len(runs))
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (generate with -update): %v", err)
	}
	if bytes.Equal(raw, blob) {
		return
	}
	var want []goldenRun
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(runs) {
		t.Fatalf("golden has %d runs, the test %d; regenerate with -update if the set changed on purpose", len(want), len(runs))
	}
	for i, w := range want {
		g := runs[i]
		if w.Name != g.Name {
			t.Errorf("run %d: name %q, golden %q", i, g.Name, w.Name)
			continue
		}
		if w.WallCycles != g.WallCycles {
			t.Errorf("%s: wall cycles %d, golden %d", g.Name, g.WallCycles, w.WallCycles)
		}
		for e := cache.EvID(0); e < cache.NumEvents; e++ {
			if w.Counters[e.String()] != g.Counters[e.String()] {
				t.Errorf("%s: %s = %d, golden %d", g.Name, e, g.Counters[e.String()], w.Counters[e.String()])
			}
		}
		if w.PerCore != g.PerCore {
			t.Errorf("%s: per-core bank hash %s, golden %s", g.Name, g.PerCore, w.PerCore)
		}
	}
}
