package cache

import (
	"fmt"

	"fsml/internal/mem"
)

// Config sizes the hierarchy. The defaults mirror the paper's Xeon X5690
// (Westmere DP): 32 KiB 8-way L1D and 256 KiB 8-way L2 per core, 12 MiB
// 16-way shared inclusive L3.
type Config struct {
	L1Size, L1Ways int
	L2Size, L2Ways int
	L3Size, L3Ways int
	// Prefetch enables the L2 ascending-stream next-line prefetcher.
	Prefetch bool
	// LFBWindow is how many subsequent ops by the same core a demand fill
	// stays in a line-fill buffer before the line is usable from L1;
	// loads arriving in the window count MEM_LOAD_RETIRED.HIT_LFB.
	LFBWindow int
	// MSI selects the E-less MSI protocol: loads fill Shared even with
	// no other holders, so every first store pays an upgrade
	// transaction. Default (false) is MESI, as on the paper's hardware.
	// The protocol ablation quantifies what the Exclusive state buys.
	MSI bool
	// Sockets splits the cores across packages: a snoop answered by a
	// core on another socket pays the QPI round-trip on top of the
	// on-package latency, as on the paper's 2x6 Westmere DP. Zero or one
	// means a single package. Cores are striped contiguously: with 12
	// cores and 2 sockets, cores 0-5 share socket 0.
	Sockets int
	// LatRemote is the extra DRAM latency, in cycles, of a demand fill
	// whose page is homed on another socket's memory controller. Pages
	// interleave round-robin across sockets (the BIOS-default interleave
	// of the modeled DP platform), and each remote fill counts
	// MEM_UNCORE_RETIRED.REMOTE_DRAM at the requester. Zero — or a
	// single-socket Sockets — keeps the memory path socket-blind, which
	// is byte-identical to the pre-NUMA model.
	LatRemote int
}

// LatQPI is the extra cycle cost of a cross-socket snoop response.
const LatQPI = 45

// DefaultConfig returns the Westmere DP configuration.
func DefaultConfig() Config {
	return Config{
		L1Size: 32 << 10, L1Ways: 8,
		L2Size: 256 << 10, L2Ways: 8,
		L3Size: 12 << 20, L3Ways: 16,
		Prefetch:  true,
		LFBWindow: 8,
	}
}

// pendingFill is an in-flight L1 fill held in a line-fill buffer.
type pendingFill struct {
	line    uint64
	readyAt uint64 // core op count at which the fill completes
	state   State  // L1 state to install
}

// priv is one core's private L1+L2 pair plus its fill/prefetch trackers.
type priv struct {
	l1, l2 *array
	// ops counts accesses issued by this core, the clock for LFB expiry.
	ops uint64
	// lfb holds in-flight demand fills (bounded, FIFO overflow completes
	// the oldest immediately, like running out of fill buffers).
	lfb []pendingFill
	// streams is the prefetcher's stream table: the last line touched by
	// each tracked ascending stream. A demand miss adjacent to an entry
	// extends that stream; otherwise it replaces the oldest entry.
	streams    [streamTableSize]uint64
	streamsLen int
	streamPos  int
}

// streamTableSize is how many concurrent ascending streams the L2
// prefetcher tracks per core (Westmere tracks 16 per L2).
const streamTableSize = 16

const lfbEntries = 10 // Westmere has 10 line fill buffers per core

// Hierarchy is the full coherent cache system shared by all simulated
// cores. It is not safe for concurrent use: the machine model serializes
// accesses deliberately, which is what makes runs reproducible.
type Hierarchy struct {
	cfg      Config
	ncores   int
	cores    []priv
	l3       *array
	counters []Counters
}

// New builds a hierarchy for ncores cores.
func New(cfg Config, ncores int) *Hierarchy {
	if ncores <= 0 || ncores > 64 {
		panic(fmt.Sprintf("cache: core count %d out of range [1,64]", ncores))
	}
	h := &Hierarchy{
		cfg:      cfg,
		ncores:   ncores,
		cores:    make([]priv, ncores),
		l3:       newArray(cfg.L3Size, cfg.L3Ways),
		counters: make([]Counters, ncores),
	}
	for i := range h.cores {
		h.cores[i] = priv{
			l1:  newArray(cfg.L1Size, cfg.L1Ways),
			l2:  newArray(cfg.L2Size, cfg.L2Ways),
			lfb: make([]pendingFill, 0, lfbEntries),
		}
	}
	return h
}

// NumCores returns the core count.
func (h *Hierarchy) NumCores() int { return h.ncores }

// Counters returns core c's event bank. The machine model counts its
// non-cache events (instructions, TLB, stalls) into the same bank.
func (h *Hierarchy) Counters(c int) *Counters { return &h.counters[c] }

// TotalCounters returns the sum of all per-core banks.
func (h *Hierarchy) TotalCounters() Counters {
	var t Counters
	for i := range h.counters {
		t.AddAll(&h.counters[i])
	}
	return t
}

// ResetCounters zeroes all event banks without disturbing cache contents,
// which is how a measurement interval is delimited after warmup.
func (h *Hierarchy) ResetCounters() {
	for i := range h.counters {
		h.counters[i].Reset()
	}
}

func (h *Hierarchy) add(core int, e EvID, n uint64) { h.counters[core][e] += n }

// ---------------------------------------------------------------------------
// LFB handling

// drainLFB installs fills that have completed for core c.
func (h *Hierarchy) drainLFB(c int) {
	p := &h.cores[c]
	kept := p.lfb[:0]
	for _, f := range p.lfb {
		if f.readyAt <= p.ops {
			h.installL1(c, f.line, f.state)
		} else {
			kept = append(kept, f)
		}
	}
	p.lfb = kept
}

// findLFB returns the pending fill for lineAddr, if any.
func (p *priv) findLFB(lineAddr uint64) *pendingFill {
	for i := range p.lfb {
		if p.lfb[i].line == lineAddr {
			return &p.lfb[i]
		}
	}
	return nil
}

// completeLFB force-installs the pending fill for lineAddr (stores and
// invalidations cannot wait for the window to lapse).
func (h *Hierarchy) completeLFB(c int, lineAddr uint64) bool {
	p := &h.cores[c]
	for i := range p.lfb {
		if p.lfb[i].line == lineAddr {
			h.installL1(c, lineAddr, p.lfb[i].state)
			p.lfb = append(p.lfb[:i], p.lfb[i+1:]...)
			return true
		}
	}
	return false
}

// dropLFB discards a pending fill (coherence invalidation while in flight).
func (p *priv) dropLFB(lineAddr uint64) {
	for i := range p.lfb {
		if p.lfb[i].line == lineAddr {
			p.lfb = append(p.lfb[:i], p.lfb[i+1:]...)
			return
		}
	}
}

// queueFill places a completed offcore fill into the LFB window.
func (h *Hierarchy) queueFill(c int, lineAddr uint64, st State) {
	p := &h.cores[c]
	if h.cfg.LFBWindow <= 0 {
		h.installL1(c, lineAddr, st)
		return
	}
	if len(p.lfb) >= lfbEntries {
		// Out of fill buffers: retire the oldest entry now. Shifting in
		// place (rather than reslicing past it) keeps the buffer's
		// backing array, so a steady stream of fills never reallocates.
		h.installL1(c, p.lfb[0].line, p.lfb[0].state)
		p.lfb = p.lfb[:copy(p.lfb, p.lfb[1:])]
	}
	p.lfb = append(p.lfb, pendingFill{line: lineAddr, readyAt: p.ops + uint64(h.cfg.LFBWindow), state: st})
}

// ---------------------------------------------------------------------------
// L1/L2 fills and evictions

// installL1 brings a line into core c's L1, evicting as needed. L1 state
// mirrors L2 state; L1 evictions are silent because L2 is inclusive and
// already holds the (possibly dirty) authoritative state.
func (h *Hierarchy) installL1(c int, lineAddr uint64, st State) {
	p := &h.cores[c]
	if l := p.l1.peek(lineAddr); l != nil {
		l.state = st
		return
	}
	slot := p.l1.victim(lineAddr)
	p.l1.install(slot, lineAddr, st)
	h.add(c, EvL1Replacement, 1)
}

// installL2 brings a line into core c's L2 with the given state, handling
// victim writeback, L1 back-invalidation, and directory upkeep: l3l is
// the line's L3 slot (ensureL3's result), which gains c's directory bit.
// When pf is true the fill is attributed to the prefetcher.
func (h *Hierarchy) installL2(c int, lineAddr uint64, st State, pf bool, l3l *line) {
	p := &h.cores[c]
	slot := p.l2.victim(lineAddr)
	if slot.state != Invalid {
		h.evictL2Victim(c, slot)
	}
	p.l2.install(slot, lineAddr, st)
	slot.prefetched = pf
	h.add(c, EvL2Fill, 1)
	if pf {
		h.add(c, EvL2Prefetches, 1)
	}
	switch st {
	case Shared:
		h.add(c, EvL2LinesInS, 1)
	case Exclusive:
		h.add(c, EvL2LinesInE, 1)
	case Modified:
		h.add(c, EvL2LinesInM, 1)
	}
	l3l.mask |= 1 << uint(c)
}

// evictL2Victim writes back / invalidates one valid L2 line of core c.
func (h *Hierarchy) evictL2Victim(c int, v *line) {
	p := &h.cores[c]
	// Inclusivity: the L1 copy and any pending fill must go too.
	p.l1.invalidate(v.tag)
	p.dropLFB(v.tag)
	dirty := v.state == Modified
	if dirty {
		h.add(c, EvL2LinesOutDirty, 1)
	} else {
		h.add(c, EvL2LinesOutClean, 1)
	}
	// The line is in L3 by inclusivity; a dirty victim writes back to it.
	if l3l := h.l3.peek(v.tag); l3l != nil {
		if dirty {
			l3l.state = Modified
		}
		l3l.mask &^= 1 << uint(c)
	}
	v.state = Invalid
}

// ---------------------------------------------------------------------------
// L3 directory

// ensureL3 guarantees an L3 slot for lineAddr, filling from memory
// semantics (the caller counts the memory read). l3l is the caller's
// peek of the line's slot: a present line only has its LRU refreshed.
// Returns the slot.
func (h *Hierarchy) ensureL3(c int, lineAddr uint64, l3l *line) *line {
	if l3l != nil {
		h.l3.touch(l3l)
		return l3l
	}
	slot := h.l3.victim(lineAddr)
	if slot.state != Invalid {
		h.evictL3Victim(c, slot)
	}
	h.l3.install(slot, lineAddr, Exclusive) // L3 state is just valid/dirty
	h.add(c, EvL3LinesIn, 1)
	return slot
}

// evictL3Victim removes one valid L3 line: back-invalidates every private
// copy (inclusive L3) and writes dirty data to memory. Attribution of the
// uncore events goes to the requesting core c, as on real hardware where
// the L3 miss that caused the eviction belongs to the requester.
func (h *Hierarchy) evictL3Victim(c int, v *line) {
	dirty := v.state == Modified
	for hc := 0; hc < h.ncores; hc++ {
		if v.mask&(1<<uint(hc)) == 0 {
			continue
		}
		p := &h.cores[hc]
		p.dropLFB(v.tag)
		p.l1.invalidate(v.tag)
		if st := p.l2.invalidate(v.tag); st == Modified {
			dirty = true
			h.add(hc, EvL2LinesOutDirty, 1)
		}
	}
	if dirty {
		h.add(c, EvMemWrites, 1)
	}
	h.add(c, EvL3LinesOut, 1)
	v.state = Invalid
	v.mask = 0
}

// ---------------------------------------------------------------------------
// Snooping

// snoopResult summarizes the peer responses to one offcore request.
type snoopResult struct {
	hadM, hadE, hadS bool
	// crossSocket is set when any responding holder lives on a different
	// socket than the requester.
	crossSocket bool
}

// socketOf maps a core to its package.
func (h *Hierarchy) socketOf(c int) int {
	if h.cfg.Sockets <= 1 {
		return 0
	}
	per := (h.ncores + h.cfg.Sockets - 1) / h.cfg.Sockets
	return c / per
}

// linesPerPageShift converts a line address to its 4 KiB page index
// (64-byte lines, 64 lines per page).
const linesPerPageShift = 6

// homeSocket maps a line to the socket whose memory controller owns its
// page: pages interleave round-robin across sockets.
func (h *Hierarchy) homeSocket(lineAddr uint64) int {
	if h.cfg.Sockets <= 1 {
		return 0
	}
	return int((lineAddr >> linesPerPageShift) % uint64(h.cfg.Sockets))
}

// memLatency is the DRAM latency core c pays for a demand fill of
// lineAddr. With a remote latency domain configured, a fill homed on
// another socket pays LatRemote on top and counts EvRemoteDRAM.
func (h *Hierarchy) memLatency(c int, lineAddr uint64) int {
	if h.cfg.LatRemote > 0 && h.cfg.Sockets > 1 && h.homeSocket(lineAddr) != h.socketOf(c) {
		h.add(c, EvRemoteDRAM, 1)
		return LatMem + h.cfg.LatRemote
	}
	return LatMem
}

// qpiPenalty is the extra latency when a snoop crossed sockets.
func (h *Hierarchy) qpiPenalty(res snoopResult) int {
	if res.crossSocket && (res.hadM || res.hadE || res.hadS) {
		return LatQPI
	}
	return 0
}

// snoop interrogates the directory for lineAddr on behalf of core c;
// l3l is the line's L3 slot, nil if L3 does not hold it. For an RFO
// every peer copy is invalidated; for a read, M and E owners are
// downgraded to Shared, and a Modified owner writes back to L3. Snoop
// responses are counted at the requester, matching SNOOP_RESPONSE.*
// semantics on Westmere.
func (h *Hierarchy) snoop(c int, lineAddr uint64, l3l *line, rfo bool) snoopResult {
	var res snoopResult
	if l3l == nil {
		return res
	}
	for hc := 0; hc < h.ncores; hc++ {
		if hc == c || l3l.mask&(1<<uint(hc)) == 0 {
			continue
		}
		p := &h.cores[hc]
		l2l := p.l2.peek(lineAddr)
		if l2l == nil {
			// Directory bit without a cached copy cannot happen; the
			// invariant checker enforces it. Treat defensively as a miss.
			h.add(c, EvSnoopMiss, 1)
			l3l.mask &^= 1 << uint(hc)
			continue
		}
		switch l2l.state {
		case Modified:
			res.hadM = true
			h.add(c, EvSnoopHitM, 1)
			h.add(c, EvUncoreOtherCoreHITM, 1)
			l3l.state = Modified
		case Exclusive:
			res.hadE = true
			h.add(c, EvSnoopHitE, 1)
		case Shared:
			res.hadS = true
			h.add(c, EvSnoopHit, 1)
		}
		if h.socketOf(hc) != h.socketOf(c) {
			res.crossSocket = true
		}
		if rfo {
			p.dropLFB(lineAddr)
			p.l1.invalidate(lineAddr)
			l2l.state = Invalid
			l3l.mask &^= 1 << uint(hc)
		} else if l2l.state == Modified || l2l.state == Exclusive {
			l2l.state = Shared
			if l1l := p.l1.peek(lineAddr); l1l != nil {
				l1l.state = Shared
			}
			if f := p.findLFB(lineAddr); f != nil {
				f.state = Shared
			}
		}
	}
	return res
}

// ---------------------------------------------------------------------------
// Demand access paths

// Load simulates a data load by core c at addr and returns its latency in
// cycles (excluding any DTLB walk, which the machine models).
func (h *Hierarchy) Load(c int, addr uint64) int {
	p := &h.cores[c]
	p.ops++
	h.drainLFB(c)
	h.add(c, EvLoads, 1)
	lineAddr := mem.LineOf(addr)

	if l := p.l1.lookup(lineAddr); l != nil {
		h.add(c, EvL1Hit, 1)
		return LatL1
	}
	if f := p.findLFB(lineAddr); f != nil {
		// The line's fill is in flight; the load is satisfied from the
		// fill buffer rather than recorded as a fresh miss.
		h.add(c, EvL1HitLFB, 1)
		return LatLFB
	}
	h.add(c, EvL1LoadMiss, 1)

	if l2l := p.l2.lookup(lineAddr); l2l != nil {
		h.add(c, EvL2Hit, 1)
		st := l2l.state
		if l2l.prefetched {
			l2l.prefetched = false
			h.add(c, EvL2PrefetchUseful, 1)
			h.continueStream(c, lineAddr)
		}
		h.installL1(c, lineAddr, st)
		return LatL2
	}

	// Offcore demand read.
	h.add(c, EvL2Miss, 1)
	h.add(c, EvL2LdMiss, 1)
	h.add(c, EvL2DemandI, 1)
	h.add(c, EvOffcoreDemandRD, 1)

	l3l := h.l3.peek(lineAddr)
	res := h.snoop(c, lineAddr, l3l, false)

	var lat int
	var st State
	switch {
	case res.hadM:
		lat, st = LatHITM, Shared
		h.add(c, EvL3Hit, 1)
	case res.hadE || res.hadS:
		lat, st = LatSnoop, Shared
		h.add(c, EvL3Hit, 1)
	case l3l != nil:
		lat, st = LatL3, Exclusive
		h.add(c, EvL3Hit, 1)
	default:
		lat, st = h.memLatency(c, lineAddr), Exclusive
		h.add(c, EvL3Miss, 1)
		h.add(c, EvMemReads, 1)
	}
	lat += h.qpiPenalty(res)
	if h.cfg.MSI && st == Exclusive {
		// MSI has no Exclusive state: clean fills are always Shared.
		st = Shared
	}
	l3l = h.ensureL3(c, lineAddr, l3l)
	h.installL2(c, lineAddr, st, false, l3l)
	h.queueFill(c, lineAddr, st)
	h.maybePrefetch(c, lineAddr)
	return lat
}

// Store simulates a data store by core c at addr and returns its latency
// in cycles as seen by the store buffer.
func (h *Hierarchy) Store(c int, addr uint64) int {
	p := &h.cores[c]
	p.ops++
	h.drainLFB(c)
	h.add(c, EvStores, 1)
	lineAddr := mem.LineOf(addr)

	// A store cannot complete against an in-flight fill; retire it first.
	h.completeLFB(c, lineAddr)

	if l1l := p.l1.lookup(lineAddr); l1l != nil {
		switch l1l.state {
		case Modified:
			h.add(c, EvL1Hit, 1)
			return LatL1
		case Exclusive:
			l1l.state = Modified
			if l2l := p.l2.peek(lineAddr); l2l != nil {
				l2l.state = Modified
			}
			h.add(c, EvL1Hit, 1)
			return LatL1
		case Shared:
			return h.upgrade(c, lineAddr)
		}
	}
	h.add(c, EvL1StoreMiss, 1)

	if l2l := p.l2.lookup(lineAddr); l2l != nil {
		pf := l2l.prefetched
		if pf {
			l2l.prefetched = false
			h.add(c, EvL2PrefetchUseful, 1)
		}
		if l2l.state == Shared {
			lat := h.upgrade(c, lineAddr)
			if pf {
				h.continueStream(c, lineAddr)
			}
			return lat
		}
		h.add(c, EvL2Hit, 1)
		l2l.state = Modified
		h.installL1(c, lineAddr, Modified)
		if pf {
			h.continueStream(c, lineAddr)
		}
		return LatL2
	}

	// Offcore RFO.
	h.add(c, EvL2Miss, 1)
	h.add(c, EvL2RFOMiss, 1)
	h.add(c, EvL2DemandI, 1)
	h.add(c, EvOffcoreRFO, 1)

	l3l := h.l3.peek(lineAddr)
	res := h.snoop(c, lineAddr, l3l, true)

	var lat int
	switch {
	case res.hadM:
		lat = LatHITM
		h.add(c, EvL3Hit, 1)
	case res.hadE || res.hadS:
		lat = LatSnoop
		h.add(c, EvL3Hit, 1)
	case l3l != nil:
		lat = LatL3
		h.add(c, EvL3Hit, 1)
	default:
		lat = h.memLatency(c, lineAddr)
		h.add(c, EvL3Miss, 1)
		h.add(c, EvMemReads, 1)
	}
	lat += h.qpiPenalty(res)
	l3l = h.ensureL3(c, lineAddr, l3l)
	l3l.state = Modified
	h.installL2(c, lineAddr, Modified, false, l3l)
	h.installL1(c, lineAddr, Modified)
	return lat
}

// upgrade performs the S->M transition for a line core c holds Shared:
// an invalidation round on the bus, no data transfer.
func (h *Hierarchy) upgrade(c int, lineAddr uint64) int {
	p := &h.cores[c]
	h.add(c, EvL2RFOHitS, 1)
	// c holds the line, so L3 does too (inclusivity).
	l3l := h.l3.peek(lineAddr)
	h.snoop(c, lineAddr, l3l, true)
	if l2l := p.l2.peek(lineAddr); l2l != nil {
		l2l.state = Modified
	}
	if l1l := p.l1.peek(lineAddr); l1l != nil {
		l1l.state = Modified
	} else {
		h.installL1(c, lineAddr, Modified)
	}
	if l3l != nil {
		l3l.state = Modified
	}
	return LatUpgrade
}

// trackStream records a touch of lineAddr in the stream table and reports
// whether it extended an existing ascending stream.
func (p *priv) trackStream(lineAddr uint64) bool {
	for i := 0; i < p.streamsLen; i++ {
		if p.streams[i] == lineAddr-1 || p.streams[i] == lineAddr {
			p.streams[i] = lineAddr
			return true
		}
	}
	if p.streamsLen < streamTableSize {
		p.streams[p.streamsLen] = lineAddr
		p.streamsLen++
	} else {
		p.streams[p.streamPos] = lineAddr
		p.streamPos = (p.streamPos + 1) % streamTableSize
	}
	return false
}

// maybePrefetch runs the L2 stream prefetcher after a demand miss at
// lineAddr by core c: once a miss extends a tracked ascending stream, the
// next line is fetched ahead.
func (h *Hierarchy) maybePrefetch(c int, lineAddr uint64) {
	p := &h.cores[c]
	if !p.trackStream(lineAddr) || !h.cfg.Prefetch {
		return
	}
	h.prefetchNext(c, lineAddr)
}

// continueStream keeps an established stream alive across demand hits on
// prefetched lines, the behaviour that lets a linear scan stay ahead of
// its own misses.
func (h *Hierarchy) continueStream(c int, lineAddr uint64) {
	p := &h.cores[c]
	p.trackStream(lineAddr)
	if h.cfg.Prefetch {
		h.prefetchNext(c, lineAddr)
	}
}

// prefetchNext fetches lineAddr+1 into L2 if no other core holds it.
func (h *Hierarchy) prefetchNext(c int, lineAddr uint64) {
	p := &h.cores[c]
	next := lineAddr + 1
	if p.l2.peek(next) != nil || p.findLFB(next) != nil {
		return
	}
	// Never steal a line another core holds: the real prefetcher drops
	// requests that would require a coherence transaction.
	l3l := h.l3.peek(next)
	if l3l != nil && l3l.mask&^(1<<uint(c)) != 0 {
		return
	}
	if l3l == nil {
		h.add(c, EvMemReads, 1)
	}
	st := Exclusive
	if h.cfg.MSI {
		st = Shared
	}
	h.installL2(c, next, st, true, h.ensureL3(c, next, l3l))
}

// ---------------------------------------------------------------------------
// Invariants

// CheckInvariants verifies the coherence and inclusivity properties the
// rest of the system depends on. It is O(cache size) and meant for tests.
//
// Properties checked:
//  1. a line Modified in one core is Invalid everywhere else;
//  2. if any core holds a line Exclusive or Modified, no other core holds it;
//  3. every L1 line is present in the same core's L2 with the same state;
//  4. every L2 line is present in L3, and its directory bit is set;
//  5. every set directory bit corresponds to a real L2 copy.
func (h *Hierarchy) CheckInvariants() error {
	type holder struct {
		core  int
		state State
	}
	holders := make(map[uint64][]holder)
	for c := range h.cores {
		p := &h.cores[c]
		var err error
		p.l2.forEachValid(func(l *line) {
			if err != nil {
				return
			}
			holders[l.tag] = append(holders[l.tag], holder{c, l.state})
			l3l := h.l3.peek(l.tag)
			if l3l == nil {
				err = fmt.Errorf("inclusivity: line %#x in core %d L2 but not in L3", l.tag, c)
				return
			}
			if l3l.mask&(1<<uint(c)) == 0 {
				err = fmt.Errorf("directory: line %#x in core %d L2 but dir bit clear", l.tag, c)
			}
		})
		if err != nil {
			return err
		}
		p.l1.forEachValid(func(l *line) {
			if err != nil {
				return
			}
			l2l := p.l2.peek(l.tag)
			if l2l == nil {
				err = fmt.Errorf("inclusivity: line %#x in core %d L1 but not its L2", l.tag, c)
				return
			}
			if l2l.state != l.state {
				err = fmt.Errorf("state mismatch: line %#x core %d L1=%v L2=%v", l.tag, c, l.state, l2l.state)
			}
		})
		if err != nil {
			return err
		}
	}
	for tag, hs := range holders {
		if len(hs) < 2 {
			continue
		}
		for _, x := range hs {
			if x.state == Modified || x.state == Exclusive {
				return fmt.Errorf("coherence: line %#x held %v by core %d with %d total holders", tag, x.state, x.core, len(hs))
			}
		}
	}
	var err error
	h.l3.forEachValid(func(l *line) {
		if err != nil {
			return
		}
		for c := 0; c < h.ncores; c++ {
			if l.mask&(1<<uint(c)) != 0 && h.cores[c].l2.peek(l.tag) == nil {
				err = fmt.Errorf("directory: line %#x dir bit set for core %d without L2 copy", l.tag, c)
			}
		}
	})
	return err
}

// PeekState reports the MESI state of addr's line in core c's L2
// (Invalid if absent). Exposed for tests and the shadow tool.
func (h *Hierarchy) PeekState(c int, addr uint64) State {
	if l := h.cores[c].l2.peek(mem.LineOf(addr)); l != nil {
		return l.state
	}
	return Invalid
}
