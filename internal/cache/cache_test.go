package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"fsml/internal/mem"
	"fsml/internal/xrand"
)

func testConfig() Config {
	// Small caches so evictions happen quickly in tests.
	return Config{
		L1Size: 1 << 10, L1Ways: 2,
		L2Size: 4 << 10, L2Ways: 4,
		L3Size: 32 << 10, L3Ways: 4,
		Prefetch:  true,
		LFBWindow: 8,
	}
}

func TestStateString(t *testing.T) {
	cases := map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Modified: "M", State(99): "?"}
	for st, want := range cases {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", st, got, want)
		}
	}
}

func TestEvIDString(t *testing.T) {
	if got := EvSnoopHitM.String(); got != "SNOOP_RESPONSE.HITM" {
		t.Errorf("EvSnoopHitM.String() = %q", got)
	}
	if got := EvID(-1).String(); got != "EV_UNKNOWN" {
		t.Errorf("EvID(-1).String() = %q", got)
	}
	for e := EvID(0); e < NumEvents; e++ {
		if e.String() == "" {
			t.Errorf("event %d has no name", e)
		}
	}
}

func TestCountersAddAll(t *testing.T) {
	var a, b Counters
	a.Add(EvLoads, 3)
	b.Add(EvLoads, 4)
	b.Add(EvStores, 1)
	a.AddAll(&b)
	if a.Get(EvLoads) != 7 || a.Get(EvStores) != 1 {
		t.Errorf("AddAll: got loads=%d stores=%d", a.Get(EvLoads), a.Get(EvStores))
	}
	a.Reset()
	if a.Get(EvLoads) != 0 {
		t.Errorf("Reset did not zero counters")
	}
}

func TestColdLoadGoesToMemory(t *testing.T) {
	h := New(testConfig(), 2)
	lat := h.Load(0, 0x10000)
	if lat != LatMem {
		t.Errorf("cold load latency = %d, want %d", lat, LatMem)
	}
	c := h.Counters(0)
	for _, ev := range []EvID{EvL1LoadMiss, EvL2Miss, EvL2LdMiss, EvL2DemandI, EvOffcoreDemandRD, EvL3Miss, EvMemReads, EvL2Fill, EvL2LinesInE} {
		if c.Get(ev) != 1 {
			t.Errorf("after cold load, %v = %d, want 1", ev, c.Get(ev))
		}
	}
}

func TestLoadHitAfterFill(t *testing.T) {
	cfg := testConfig()
	cfg.LFBWindow = 0 // immediate fills for this test
	h := New(cfg, 1)
	h.Load(0, 0x10000)
	lat := h.Load(0, 0x10000)
	if lat != LatL1 {
		t.Errorf("second load latency = %d, want L1 hit %d", lat, LatL1)
	}
	if h.Counters(0).Get(EvL1Hit) != 1 {
		t.Errorf("EvL1Hit = %d, want 1", h.Counters(0).Get(EvL1Hit))
	}
}

func TestHitLFBWithinWindow(t *testing.T) {
	h := New(testConfig(), 1)
	h.Load(0, 0x10000)
	lat := h.Load(0, 0x10008) // same line, next word, inside the window
	if lat != LatLFB {
		t.Errorf("in-window load latency = %d, want LFB %d", lat, LatLFB)
	}
	if h.Counters(0).Get(EvL1HitLFB) != 1 {
		t.Errorf("EvL1HitLFB = %d, want 1", h.Counters(0).Get(EvL1HitLFB))
	}
}

func TestLFBDrainsAfterWindow(t *testing.T) {
	cfg := testConfig()
	cfg.LFBWindow = 2
	h := New(cfg, 1)
	h.Load(0, 0x10000)
	// Two unrelated ops let the fill complete.
	h.Load(0, 0x20000)
	h.Load(0, 0x30000)
	lat := h.Load(0, 0x10000)
	if lat != LatL1 {
		t.Errorf("post-window load latency = %d, want L1 hit %d", lat, LatL1)
	}
}

func TestStoreToLFBPendingLineCompletesFill(t *testing.T) {
	h := New(testConfig(), 1)
	h.Load(0, 0x10000)
	// Store while the fill is pending: must force-complete and upgrade.
	h.Store(0, 0x10000)
	if st := h.PeekState(0, 0x10000); st != Modified {
		t.Errorf("state after store = %v, want M", st)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestStoreColdGetsModified(t *testing.T) {
	h := New(testConfig(), 2)
	lat := h.Store(0, 0x10000)
	if lat != LatMem {
		t.Errorf("cold store latency = %d, want %d", lat, LatMem)
	}
	if st := h.PeekState(0, 0x10000); st != Modified {
		t.Errorf("state = %v, want M", st)
	}
	if h.Counters(0).Get(EvL2LinesInM) != 1 {
		t.Errorf("EvL2LinesInM = %d, want 1", h.Counters(0).Get(EvL2LinesInM))
	}
}

func TestReadSharingGivesSharedCopies(t *testing.T) {
	h := New(testConfig(), 2)
	h.Load(0, 0x10000)
	lat := h.Load(1, 0x10000)
	if lat != LatSnoop {
		t.Errorf("peer load latency = %d, want snoop %d", lat, LatSnoop)
	}
	if st := h.PeekState(0, 0x10000); st != Shared {
		t.Errorf("core 0 state = %v, want S (downgraded from E)", st)
	}
	if st := h.PeekState(1, 0x10000); st != Shared {
		t.Errorf("core 1 state = %v, want S", st)
	}
	// Requester observed a HITE response.
	if h.Counters(1).Get(EvSnoopHitE) != 1 {
		t.Errorf("EvSnoopHitE at requester = %d, want 1", h.Counters(1).Get(EvSnoopHitE))
	}
}

func TestWriteWritePingPongProducesHITM(t *testing.T) {
	h := New(testConfig(), 2)
	addr0, addr1 := uint64(0x10000), uint64(0x10008) // same line, different words
	h.Store(0, addr0)
	for i := 0; i < 100; i++ {
		h.Store(1, addr1)
		h.Store(0, addr0)
	}
	hitm := h.Counters(0).Get(EvSnoopHitM) + h.Counters(1).Get(EvSnoopHitM)
	if hitm < 190 {
		t.Errorf("ping-pong HITM count = %d, want ~200", hitm)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPaddedWritesProduceNoHITM(t *testing.T) {
	h := New(testConfig(), 2)
	h.Store(0, 0x10000)
	h.Store(1, 0x10000+mem.LineSize)
	for i := 0; i < 100; i++ {
		h.Store(0, 0x10000)
		h.Store(1, 0x10000+mem.LineSize)
	}
	hitm := h.Counters(0).Get(EvSnoopHitM) + h.Counters(1).Get(EvSnoopHitM)
	if hitm != 0 {
		t.Errorf("padded writes HITM = %d, want 0", hitm)
	}
}

func TestUpgradeFromShared(t *testing.T) {
	h := New(testConfig(), 2)
	h.Load(0, 0x10000)
	h.Load(1, 0x10000) // both S now
	lat := h.Store(0, 0x10000)
	if lat != LatUpgrade {
		t.Errorf("upgrade latency = %d, want %d", lat, LatUpgrade)
	}
	if h.Counters(0).Get(EvL2RFOHitS) != 1 {
		t.Errorf("EvL2RFOHitS = %d, want 1", h.Counters(0).Get(EvL2RFOHitS))
	}
	if st := h.PeekState(1, 0x10000); st != Invalid {
		t.Errorf("peer state after upgrade = %v, want I", st)
	}
	if st := h.PeekState(0, 0x10000); st != Modified {
		t.Errorf("writer state = %v, want M", st)
	}
}

func TestRFOInvalidatesModifiedPeer(t *testing.T) {
	h := New(testConfig(), 2)
	h.Store(0, 0x10000)
	lat := h.Store(1, 0x10000)
	if lat != LatHITM {
		t.Errorf("RFO against M peer latency = %d, want HITM %d", lat, LatHITM)
	}
	if st := h.PeekState(0, 0x10000); st != Invalid {
		t.Errorf("old owner state = %v, want I", st)
	}
	if st := h.PeekState(1, 0x10000); st != Modified {
		t.Errorf("new owner state = %v, want M", st)
	}
}

func TestLoadFromModifiedPeerDowngrades(t *testing.T) {
	h := New(testConfig(), 2)
	h.Store(0, 0x10000)
	lat := h.Load(1, 0x10000)
	if lat != LatHITM {
		t.Errorf("load vs M peer latency = %d, want HITM %d", lat, LatHITM)
	}
	if st := h.PeekState(0, 0x10000); st != Shared {
		t.Errorf("old owner state = %v, want S", st)
	}
	if h.Counters(1).Get(EvSnoopHitM) != 1 {
		t.Errorf("requester HITM count = %d, want 1", h.Counters(1).Get(EvSnoopHitM))
	}
}

func TestEvictionWritesBackDirtyLines(t *testing.T) {
	cfg := testConfig()
	cfg.Prefetch = false
	cfg.LFBWindow = 0
	h := New(cfg, 1)
	// Dirty enough distinct lines to overflow both the 4 KiB L2 (64
	// lines) and the 32 KiB L3 (512 lines).
	n := 2048
	for i := 0; i < n; i++ {
		h.Store(0, 0x100000+uint64(i)*mem.LineSize)
	}
	if h.Counters(0).Get(EvL2LinesOutDirty) == 0 {
		t.Errorf("no dirty L2 evictions after overflowing L2 with stores")
	}
	if h.Counters(0).Get(EvMemWrites) == 0 {
		t.Errorf("no memory writes after overflowing L3 with dirty lines")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPrefetcherFillsAscendingStream(t *testing.T) {
	cfg := testConfig()
	cfg.LFBWindow = 0
	h := New(cfg, 1)
	// Touch three consecutive lines to establish a stream.
	for i := 0; i < 3; i++ {
		h.Load(0, 0x10000+uint64(i)*mem.LineSize)
	}
	if h.Counters(0).Get(EvL2Prefetches) == 0 {
		t.Errorf("ascending stream triggered no prefetches")
	}
	// The 4th line should now be an L2 hit thanks to the prefetcher.
	lat := h.Load(0, 0x10000+3*mem.LineSize)
	if lat != LatL2 {
		t.Errorf("prefetched line load latency = %d, want L2 %d", lat, LatL2)
	}
	if h.Counters(0).Get(EvL2PrefetchUseful) == 0 {
		t.Errorf("prefetch hit not counted as useful")
	}
}

func TestPrefetcherRespectsPeerOwnership(t *testing.T) {
	cfg := testConfig()
	cfg.LFBWindow = 0
	h := New(cfg, 2)
	// Core 1 owns the line the stream would prefetch.
	target := uint64(0x10000 + 3*mem.LineSize)
	h.Store(1, target)
	for i := 0; i < 3; i++ {
		h.Load(0, 0x10000+uint64(i)*mem.LineSize)
	}
	if st := h.PeekState(1, target); st != Modified {
		t.Errorf("prefetcher stole a Modified peer line (state now %v)", st)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTotalCountersSumsCores(t *testing.T) {
	h := New(testConfig(), 2)
	h.Load(0, 0x10000)
	h.Load(1, 0x20000)
	tot := h.TotalCounters()
	if tot.Get(EvLoads) != 2 {
		t.Errorf("TotalCounters loads = %d, want 2", tot.Get(EvLoads))
	}
	h.ResetCounters()
	tot = h.TotalCounters()
	if tot.Get(EvLoads) != 0 {
		t.Errorf("ResetCounters left nonzero counts")
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("New with 0 cores did not panic")
		}
	}()
	New(testConfig(), 0)
}

func TestNewArrayPanicsOnZeroSets(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("newArray with zero sets did not panic")
		}
	}()
	newArray(mem.LineSize/2, 1)
}

func TestNonPowerOfTwoSetCount(t *testing.T) {
	// 3 sets x 1 way: the modulo indexing path.
	a := newArray(3*mem.LineSize, 1)
	for i := uint64(0); i < 9; i++ {
		slot := a.victim(i)
		a.install(slot, i, Exclusive)
	}
	for i := uint64(6); i < 9; i++ {
		if a.peek(i) == nil {
			t.Errorf("line %d missing after install", i)
		}
	}
}

// TestInvariantsUnderRandomTraffic is the core property-based test: any
// interleaving of loads and stores from any cores over a small address
// pool must preserve MESI safety, inclusivity and directory accuracy.
func TestInvariantsUnderRandomTraffic(t *testing.T) {
	f := func(seed uint64, opsRaw uint16) bool {
		rng := xrand.New(seed)
		ncores := 1 + rng.Intn(4)
		h := New(testConfig(), ncores)
		nops := 200 + int(opsRaw)%800
		for i := 0; i < nops; i++ {
			core := rng.Intn(ncores)
			// 40 lines spanning multiple sets and pages.
			addr := 0x10000 + rng.Uint64n(40)*mem.LineSize + rng.Uint64n(8)*8
			if rng.Intn(2) == 0 {
				h.Load(core, addr)
			} else {
				h.Store(core, addr)
			}
		}
		return h.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLatencyBounds checks every access returns one of the architectural
// latencies, under random traffic.
func TestLatencyBounds(t *testing.T) {
	valid := map[int]bool{LatL1: true, LatLFB: true, LatL2: true, LatL3: true,
		LatSnoop: true, LatHITM: true, LatUpgrade: true, LatMem: true}
	rng := xrand.New(7)
	h := New(testConfig(), 3)
	for i := 0; i < 3000; i++ {
		core := rng.Intn(3)
		addr := 0x10000 + rng.Uint64n(64)*mem.LineSize
		var lat int
		if rng.Intn(2) == 0 {
			lat = h.Load(core, addr)
		} else {
			lat = h.Store(core, addr)
		}
		if !valid[lat] {
			t.Fatalf("op %d returned non-architectural latency %d", i, lat)
		}
	}
}

// TestSnoopMissCounterStaysZero ensures the defensive stale-directory path
// never triggers under normal operation.
func TestSnoopMissCounterStaysZero(t *testing.T) {
	rng := xrand.New(11)
	h := New(testConfig(), 4)
	for i := 0; i < 5000; i++ {
		core := rng.Intn(4)
		addr := 0x10000 + rng.Uint64n(100)*mem.LineSize
		if rng.Intn(3) == 0 {
			h.Store(core, addr)
		} else {
			h.Load(core, addr)
		}
	}
	tot := h.TotalCounters()
	if tot.Get(EvSnoopMiss) != 0 {
		t.Errorf("EvSnoopMiss = %d; directory went stale", tot.Get(EvSnoopMiss))
	}
}

// TestMSIProtocolHasNoExclusive: under MSI, a sole-owner load fills
// Shared, and the subsequent store pays an upgrade (RFO-hit-S) instead
// of MESI's silent E->M transition.
func TestMSIProtocolHasNoExclusive(t *testing.T) {
	cfg := testConfig()
	cfg.MSI = true
	cfg.LFBWindow = 0
	h := New(cfg, 2)
	h.Load(0, 0x10000)
	if st := h.PeekState(0, 0x10000); st != Shared {
		t.Fatalf("MSI load filled %v, want S", st)
	}
	lat := h.Store(0, 0x10000)
	if lat != LatUpgrade {
		t.Errorf("MSI first store latency = %d, want upgrade %d", lat, LatUpgrade)
	}
	if h.Counters(0).Get(EvL2RFOHitS) != 1 {
		t.Errorf("MSI upgrade not counted as RFO-hit-S")
	}
	// MESI reference: same sequence is a silent E->M.
	cfg.MSI = false
	h2 := New(cfg, 2)
	h2.Load(0, 0x10000)
	if lat := h2.Store(0, 0x10000); lat != LatL1 {
		t.Errorf("MESI first store latency = %d, want L1 hit %d", lat, LatL1)
	}
}

// TestMSIPreservesCoherenceInvariants runs random traffic under MSI.
func TestMSIPreservesCoherenceInvariants(t *testing.T) {
	cfg := testConfig()
	cfg.MSI = true
	rng := xrand.New(31)
	h := New(cfg, 4)
	for i := 0; i < 5000; i++ {
		core := rng.Intn(4)
		addr := 0x10000 + rng.Uint64n(60)*mem.LineSize
		if rng.Intn(3) == 0 {
			h.Store(core, addr)
		} else {
			h.Load(core, addr)
		}
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// No line may ever be Exclusive under MSI.
	for c := 0; c < 4; c++ {
		for l := uint64(0); l < 60; l++ {
			if st := h.PeekState(c, 0x10000+l*mem.LineSize); st == Exclusive {
				t.Fatalf("Exclusive state %v under MSI at core %d line %d", st, c, l)
			}
		}
	}
}

// TestCrossSocketSnoopPenalty: with two sockets, dirty ping-pong between
// cores on different packages pays the QPI round-trip that same-package
// cores avoid.
func TestCrossSocketSnoopPenalty(t *testing.T) {
	cfg := testConfig()
	cfg.Sockets = 2
	h := New(cfg, 4) // sockets: {0,1} and {2,3}
	h.Store(0, 0x10000)
	if lat := h.Store(2, 0x10000); lat != LatHITM+LatQPI {
		t.Errorf("cross-socket RFO latency = %d, want %d", lat, LatHITM+LatQPI)
	}
	if lat := h.Store(3, 0x10000); lat != LatHITM {
		t.Errorf("same-socket RFO latency = %d, want %d (no QPI)", lat, LatHITM)
	}
	// Clean cross-socket read sharing also pays.
	h2 := New(cfg, 4)
	h2.Load(0, 0x20000)
	if lat := h2.Load(2, 0x20000); lat != LatSnoop+LatQPI {
		t.Errorf("cross-socket clean snoop latency = %d, want %d", lat, LatSnoop+LatQPI)
	}
}

func TestSingleSocketHasNoPenalty(t *testing.T) {
	h := New(testConfig(), 4)
	h.Store(0, 0x10000)
	if lat := h.Store(3, 0x10000); lat != LatHITM {
		t.Errorf("single-socket RFO latency = %d, want %d", lat, LatHITM)
	}
}

func TestSocketOfStriping(t *testing.T) {
	cfg := testConfig()
	cfg.Sockets = 2
	h := New(cfg, 12)
	for c := 0; c < 6; c++ {
		if h.socketOf(c) != 0 {
			t.Errorf("core %d on socket %d, want 0", c, h.socketOf(c))
		}
	}
	for c := 6; c < 12; c++ {
		if h.socketOf(c) != 1 {
			t.Errorf("core %d on socket %d, want 1", c, h.socketOf(c))
		}
	}
}

func TestCounterWidthTaps(t *testing.T) {
	const bits = 24
	max := uint64(1)<<bits - 1
	cases := []struct{ in, clamp, wrap uint64 }{
		{0, 0, 0},
		{max, max, max},
		{max + 1, max, 0},
		{3*max + 7, max, (3*max + 7) & max},
	}
	for _, c := range cases {
		if got := ClampCounter(c.in, bits); got != c.clamp {
			t.Errorf("ClampCounter(%d) = %d, want %d", c.in, got, c.clamp)
		}
		if got := WrapCounter(c.in, bits); got != c.wrap {
			t.Errorf("WrapCounter(%d) = %d, want %d", c.in, got, c.wrap)
		}
	}
	// 64-bit counters are transparent.
	if got := ClampCounter(1<<63, 64); got != 1<<63 {
		t.Errorf("ClampCounter 64-bit clamped: %d", got)
	}
	if got := WrapCounter(1<<63, 64); got != 1<<63 {
		t.Errorf("WrapCounter 64-bit wrapped: %d", got)
	}
}

// TestArrayAllocatesSetsOnFirstFill pins the lazy layout: probing sets
// no line ever filled allocates nothing and finds nothing, and only a
// fill materialises its chunk of sets.
func TestArrayAllocatesSetsOnFirstFill(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 32 {
		t.Errorf("line is %d bytes, want 32", got)
	}
	a := newArray(12<<20, 16)
	allocs := testing.AllocsPerRun(100, func() {
		for addr := uint64(0); addr < 1<<16; addr += 97 {
			if a.lookup(addr) != nil || a.peek(addr) != nil || a.invalidate(addr) != Invalid {
				t.Fatal("untouched set reported a line")
			}
		}
	})
	if allocs != 0 {
		t.Errorf("probing untouched sets allocated %.0f times", allocs)
	}
	for i, ch := range a.chunks {
		if ch != nil {
			t.Fatalf("chunk %d allocated by probes alone", i)
		}
	}
	a.install(a.victim(5), 5, Exclusive)
	var live int
	for _, ch := range a.chunks {
		if ch != nil {
			live++
		}
	}
	if live != 1 || a.peek(5) == nil {
		t.Errorf("after one fill: %d chunks allocated, peek found line: %v", live, a.peek(5) != nil)
	}
}
