package trace

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"strings"
	"testing"

	"fsml/internal/cache"
	"fsml/internal/machine"
	"fsml/internal/miniprog"
	"fsml/internal/trace/tracetest"
)

const sample = `
# two threads false-sharing one line
T0 L 0x10000
T0 S 0x10000 x100
T1 S 0x10008 x100
T0 E 50
T1 B 10
`

func TestParseBasics(t *testing.T) {
	tr, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumThreads() != 2 {
		t.Fatalf("threads = %d", tr.NumThreads())
	}
	if len(tr.Threads[0]) != 3 || len(tr.Threads[1]) != 2 {
		t.Fatalf("ops per thread = %d/%d", len(tr.Threads[0]), len(tr.Threads[1]))
	}
	if op := tr.Threads[0][1]; op.Kind != OpStore || op.Addr != 0x10000 || op.N != 100 {
		t.Errorf("T0 op1 = %+v", op)
	}
	if op := tr.Threads[1][1]; op.Kind != OpBranch || op.N != 10 {
		t.Errorf("T1 op1 = %+v", op)
	}
	if tr.Ops() != 5 {
		t.Errorf("Ops() = %d", tr.Ops())
	}
}

func TestParseDecimalAddresses(t *testing.T) {
	tr, err := Parse(strings.NewReader("T0 L 65536\n"))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Threads[0][0].Addr != 65536 {
		t.Errorf("addr = %d", tr.Threads[0][0].Addr)
	}
}

// TestParseHexPrefixCase: both hex prefix spellings parse to the same
// address — tools that uppercase hex (or whole lines) produce "0X",
// which used to fail because only the lowercase prefix was stripped,
// leaving "0X1F40" to be parsed as decimal.
func TestParseHexPrefixCase(t *testing.T) {
	for _, in := range []string{"T0 L 0x1f40\n", "T0 L 0X1F40\n", "T0 S 0X1f40\n"} {
		tr, err := Parse(strings.NewReader(in))
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if tr.Threads[0][0].Addr != 0x1F40 {
			t.Errorf("Parse(%q) addr = %#x, want 0x1f40", in, tr.Threads[0][0].Addr)
		}
	}
	// A bare "0X"/"0x" has no digits left: still an error.
	for _, in := range []string{"T0 L 0X\n", "T0 L 0x\n"} {
		if _, err := Parse(strings.NewReader(in)); err == nil {
			t.Errorf("Parse accepted %q", in)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := []string{
		"",                    // empty
		"T0 L\n",              // missing arg
		"X0 L 0x10\n",         // bad thread field
		"T-1 L 0x10\n",        // negative tid
		"T0 Q 0x10\n",         // unknown kind
		"T0 L zz\n",           // bad address
		"T0 L 0x10 y3\n",      // bad repeat syntax
		"T0 L 0x10 x0\n",      // zero repeat
		"T0 E -5\n",           // negative exec
		"T0 E 0\n",            // zero exec
		"T0 LL 0x10\n",        // two-char kind
		"T0 L 0x10\nT2 L 4\n", // gap in thread ids
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("Parse accepted %q", c)
		}
	}
}

func TestParseSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\nT0 L 0x10 # trailing comment\n\n"
	tr, err := Parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Ops() != 1 {
		t.Errorf("Ops() = %d", tr.Ops())
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	tr, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, buf.String())
	}
	if got.NumThreads() != tr.NumThreads() || got.Ops() != tr.Ops() {
		t.Fatalf("round trip changed shape")
	}
	for tid := range tr.Threads {
		for i := range tr.Threads[tid] {
			if got.Threads[tid][i] != tr.Threads[tid][i] {
				t.Errorf("T%d op %d: %+v vs %+v", tid, i, tr.Threads[tid][i], got.Threads[tid][i])
			}
		}
	}
}

func TestReplayInstructionCounts(t *testing.T) {
	tr, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.DefaultConfig())
	res := m.Run(tr.Kernels())
	// 1 + 100 loads/stores on T0 + 50 exec; 100 stores + 10 branches on T1.
	want := uint64(1 + 100 + 50 + 100 + 10)
	if res.Instructions != want {
		t.Errorf("replayed %d instructions, want %d", res.Instructions, want)
	}
}

func TestReplayProducesFalseSharingSignature(t *testing.T) {
	// Build a trace programmatically: 4 threads RMW-ing adjacent words.
	tr := &Trace{Threads: make([][]Op, 4)}
	for tid := 0; tid < 4; tid++ {
		addr := uint64(0x10000 + tid*8)
		for i := 0; i < 500; i++ {
			tr.Threads[tid] = append(tr.Threads[tid],
				Op{Kind: OpLoad, Addr: addr, N: 1},
				Op{Kind: OpExec, N: 1},
				Op{Kind: OpStore, Addr: addr, N: 1})
		}
	}
	m := machine.New(machine.DefaultConfig())
	res := m.Run(tr.Kernels())
	tot := m.Hierarchy().TotalCounters()
	rate := float64(tot.Get(cache.EvSnoopHitM)) / float64(res.Instructions)
	if rate < 0.01 {
		t.Errorf("replayed false-sharing trace HITM rate = %.4f; too weak", rate)
	}
}

func TestKernelsAreFresh(t *testing.T) {
	tr, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	m1 := machine.New(machine.DefaultConfig())
	r1 := m1.Run(tr.Kernels())
	m2 := machine.New(machine.DefaultConfig())
	r2 := m2.Run(tr.Kernels())
	if r1.Instructions != r2.Instructions {
		t.Errorf("second replay differs: %d vs %d instructions", r1.Instructions, r2.Instructions)
	}
}

func TestReplayRepeatSpansBudget(t *testing.T) {
	// A single x10000 record must not blow past the quantum budget in one
	// Step call: the kernel must resume mid-repeat.
	tr := &Trace{Threads: [][]Op{{{Kind: OpStore, Addr: 0x1000, N: 10000}}}}
	cfg := machine.DefaultConfig()
	cfg.Quantum = 4
	m := machine.New(cfg)
	res := m.Run(tr.Kernels())
	if res.Instructions != 10000 {
		t.Errorf("instructions = %d, want 10000", res.Instructions)
	}
	if res.Rounds < 2000 {
		t.Errorf("rounds = %d; the repeat ran inside too few scheduler turns", res.Rounds)
	}
}

func TestParseGzip(t *testing.T) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write([]byte(sample)); err != nil {
		t.Fatal(err)
	}
	gz.Close()
	tr, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumThreads() != 2 || tr.Ops() != 5 {
		t.Errorf("gzip parse changed shape: %d threads, %d ops", tr.NumThreads(), tr.Ops())
	}
}

func TestParseCorruptGzip(t *testing.T) {
	// gzip magic followed by garbage.
	if _, err := Parse(bytes.NewReader([]byte{0x1f, 0x8b, 0xde, 0xad, 0xbe, 0xef})); err == nil {
		t.Errorf("corrupt gzip accepted")
	}
}

// gzMember compresses a trace text into a single complete gzip member.
func gzMember(t *testing.T, text string) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write([]byte(text)); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParseGzipRejectsTrailingGarbage pins the fix for Parse accepting
// (or misreporting) bytes after the final record: anything following the
// single gzip member — raw garbage or even a second well-formed member —
// is an explicit trailing-data error, not a silent concatenation and not
// a baffling header error from a phantom second stream.
func TestParseGzipRejectsTrailingGarbage(t *testing.T) {
	member := gzMember(t, "T0 L 0x40\nT0 E 5\n")
	second := gzMember(t, "T0 E 3\n")
	cases := []struct {
		name string
		data []byte
	}{
		{"binary garbage", append(append([]byte(nil), member...), 0x00, 0xde, 0xad)},
		{"text garbage", append(append([]byte(nil), member...), []byte("not a trace")...)},
		{"second member", append(append([]byte(nil), member...), second...)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(bytes.NewReader(c.data))
			if err == nil {
				t.Fatal("trailing data accepted")
			}
			if !strings.Contains(err.Error(), "trailing data") {
				t.Errorf("error = %q, want a trailing-data error", err)
			}
		})
	}
	// The clean member itself still parses.
	if _, err := Parse(bytes.NewReader(member)); err != nil {
		t.Fatalf("clean member rejected: %v", err)
	}
}

// TestParseGzipSurfacesStreamErrors pins the close/checksum path: a
// truncated member and a member with a corrupted checksum must both
// surface an error rather than yield a silently short trace.
func TestParseGzipSurfacesStreamErrors(t *testing.T) {
	member := gzMember(t, "T0 L 0x40\nT0 E 5\n")
	if _, err := Parse(bytes.NewReader(member[:len(member)-5])); err == nil {
		t.Error("truncated gzip member accepted")
	}
	bad := append([]byte(nil), member...)
	bad[len(bad)-5] ^= 0xff // the stored CRC32, after full flate blocks
	if _, err := Parse(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted gzip checksum accepted")
	}
}

// TestRecordReplayRoundTrip is the recorder's contract: replaying a
// recorded run retires the same instruction counts and reproduces the
// coherence signature of the original.
func TestRecordReplayRoundTrip(t *testing.T) {
	spec := miniprog.Spec{Program: "pdot", Size: 8000, Threads: 4, Mode: miniprog.BadFS, Seed: 13}
	kernels, err := miniprog.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig()
	cfg.Seed = 13
	tr, orig := Record(cfg, kernels)
	if tr.NumThreads() != 4 {
		t.Fatalf("recorded %d threads", tr.NumThreads())
	}

	m := machine.New(cfg)
	replay := m.Run(tr.Kernels())
	if replay.Instructions != orig.Instructions {
		t.Errorf("replay retired %d instructions, original %d", replay.Instructions, orig.Instructions)
	}
	tot := m.Hierarchy().TotalCounters()
	rate := float64(tot.Get(cache.EvSnoopHitM)) / float64(replay.Instructions)
	if rate < 0.01 {
		t.Errorf("replayed recording lost the false-sharing signature: HITM rate %.4f", rate)
	}
}

// TestRecorderMergesRuns: a tight single-address loop records as few ops.
func TestRecorderMergesRuns(t *testing.T) {
	rec := NewRecorder()
	cfg := rec.Attach(machine.DefaultConfig())
	m := machine.New(cfg)
	k := &machine.SeqKernel{Stages: []machine.Kernel{
		&machine.IterKernel{End: 1000, Body: func(ctx *machine.Ctx, i int) { ctx.Store(0x1000) }},
		&machine.IterKernel{End: 500, Body: func(ctx *machine.Ctx, i int) { ctx.Exec(2) }},
	}}
	m.Run([]machine.Kernel{k})
	tr := rec.Trace()
	if got := len(tr.Threads[0]); got > 4 {
		t.Errorf("two homogeneous loops recorded as %d ops; merging broken", got)
	}
	var stores, execs int
	for _, op := range tr.Threads[0] {
		switch op.Kind {
		case OpStore:
			stores += op.N
		case OpExec:
			execs += op.N
		}
	}
	if stores != 1000 || execs != 1000 {
		t.Errorf("merged counts wrong: stores=%d execs=%d", stores, execs)
	}
}

// TestRecordingIsCostFree: attaching the recorder must not change the
// simulated wall clock.
func TestRecordingIsCostFree(t *testing.T) {
	spec := miniprog.Spec{Program: "psumv", Size: 10000, Threads: 2, Mode: miniprog.Good, Seed: 7}
	k1, _ := miniprog.Build(spec)
	base := machine.New(machine.DefaultConfig()).Run(k1)
	k2, _ := miniprog.Build(spec)
	_, rec := Record(machine.DefaultConfig(), k2)
	if rec.WallCycles != base.WallCycles {
		t.Errorf("recording changed wall clock: %d vs %d", rec.WallCycles, base.WallCycles)
	}
}

// TestRecordedTraceSerializes: record -> Write -> Parse -> replay.
func TestRecordedTraceSerializes(t *testing.T) {
	spec := miniprog.Spec{Program: "padding", Size: 3000, Threads: 3, Mode: miniprog.BadFS, Seed: 5}
	kernels, _ := miniprog.Build(spec)
	tr, orig := Record(machine.DefaultConfig(), kernels)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(machine.DefaultConfig())
	replay := m.Run(got.Kernels())
	if replay.Instructions != orig.Instructions {
		t.Errorf("serialized replay retired %d instructions, original %d", replay.Instructions, orig.Instructions)
	}
}

// TestParseAllocsPerRecordDoNotGrow checks that parsing allocates per
// chunk of records, not per record: doubling a trace's length must not
// raise its allocations per record, and they stay far below one.
func TestParseAllocsPerRecordDoNotGrow(t *testing.T) {
	perRecord := func(records int) float64 {
		text := tracetest.Text(rand.New(rand.NewSource(1)), records, 1, 2)
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Parse(bytes.NewReader(text)); err != nil {
				t.Fatal(err)
			}
		})
		return allocs / float64(records)
	}
	one, two := perRecord(20000), perRecord(40000)
	if two > one {
		t.Errorf("allocations per record grew from %.5f to %.5f when the trace doubled", one, two)
	}
	if one > 0.01 {
		t.Errorf("%.4f allocations per record, want well under one per hundred records", one)
	}
}
