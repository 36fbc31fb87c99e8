// Package cache implements the simulated cache hierarchy of the target
// machine: per-core set-associative L1D and L2 caches kept coherent with
// the MESI protocol over a snooping interconnect, and a shared inclusive
// L3 that carries per-line core-valid bits acting as the snoop directory,
// mirroring the Nehalem/Westmere design the paper measured.
//
// The hierarchy is the ground truth from which the emulated PMU
// (internal/pmu) derives every performance event the classifier consumes.
// False sharing needs no special-casing anywhere: it emerges from the
// protocol as the characteristic storm of SNOOP_RESPONSE.HITM transfers
// when two cores take turns writing one line.
package cache

import (
	"fmt"

	"fsml/internal/mem"
)

// State is a MESI coherence state.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

// String returns the one-letter MESI name.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// Latency constants in core cycles. Values follow published Westmere
// load-to-use figures closely enough that relative table shapes hold.
const (
	LatL1      = 4   // L1D hit
	LatLFB     = 6   // load folded into an in-flight fill
	LatL2      = 10  // L2 hit
	LatL3      = 42  // L3 hit, no other-core involvement
	LatSnoop   = 55  // clean snoop hit in a peer cache (served with L3 data)
	LatHITM    = 75  // dirty cache-to-cache transfer (the false-sharing path)
	LatUpgrade = 25  // S->M upgrade (invalidation round-trip, no data)
	LatMem     = 180 // DRAM access
)

// line is one cache line's bookkeeping in a set-associative array. The
// two one-byte fields sit last so a line packs into 32 bytes.
type line struct {
	tag uint64
	lru uint64 // global access tick; smallest is the LRU victim
	// mask is used only by the L3 directory: bit c set means core c's
	// private hierarchy may hold the line.
	mask  uint64
	state State
	// prefetched marks L2 lines brought in by the hardware prefetcher and
	// not yet demanded, for the L2_PREFETCH.USEFUL count.
	prefetched bool
}

// chunkSets is how many consecutive sets share one lazily allocated
// block of lines (8 KiB of a 16-way L3, 4 KiB of an 8-way L2).
const (
	chunkShift = 4
	chunkSets  = 1 << chunkShift
)

// array is a generic set-associative cache array. Set selection uses a
// mask when the set count is a power of two and modulo otherwise (the
// 12 MiB Westmere L3 has 12288 sets; real parts hash the index).
//
// Line storage is allocated a chunk of chunkSets sets at a time, on the
// first fill that lands in the chunk: a short run touches a few hundred
// kilobytes of a 12-core machine's ~10 MB of cache bookkeeping, and an
// untouched set reads as all-Invalid without existing.
type array struct {
	chunks  [][]line // chunks[set>>chunkShift], nil until first fill
	ways    int
	nsets   uint64
	setMask uint64 // nsets-1 when power of two, else 0
	tick    uint64
}

func newArray(sizeBytes, ways int) *array {
	nlines := sizeBytes / mem.LineSize
	nsets := nlines / ways
	if nsets <= 0 {
		panic(fmt.Sprintf("cache: size %d with %d ways leaves no sets", sizeBytes, ways))
	}
	a := &array{
		chunks: make([][]line, (nsets+chunkSets-1)/chunkSets),
		ways:   ways,
		nsets:  uint64(nsets),
	}
	if nsets&(nsets-1) == 0 {
		a.setMask = uint64(nsets - 1)
	}
	return a
}

func (a *array) setIndex(lineAddr uint64) uint64 {
	if a.setMask != 0 {
		return lineAddr & a.setMask
	}
	return lineAddr % a.nsets
}

// setOf returns lineAddr's set, or nil if no line ever filled its chunk
// (every way of such a set is Invalid).
func (a *array) setOf(lineAddr uint64) []line {
	si := a.setIndex(lineAddr)
	ch := a.chunks[si>>chunkShift]
	if ch == nil {
		return nil
	}
	off := int(si&(chunkSets-1)) * a.ways
	return ch[off : off+a.ways : off+a.ways]
}

// fillSetOf is setOf for a fill: it allocates the set's chunk first if
// needed. The last chunk of an array whose set count is not a multiple
// of chunkSets is sized to the sets that exist.
func (a *array) fillSetOf(lineAddr uint64) []line {
	si := a.setIndex(lineAddr)
	ci := si >> chunkShift
	if a.chunks[ci] == nil {
		n := min(a.nsets-ci<<chunkShift, chunkSets)
		a.chunks[ci] = make([]line, int(n)*a.ways)
	}
	off := int(si&(chunkSets-1)) * a.ways
	return a.chunks[ci][off : off+a.ways : off+a.ways]
}

// lookup finds lineAddr and returns its slot, or nil. A hit refreshes LRU.
func (a *array) lookup(lineAddr uint64) *line {
	l := a.peek(lineAddr)
	if l != nil {
		a.touch(l)
	}
	return l
}

// touch refreshes a present line's LRU position, as a lookup hit does.
func (a *array) touch(l *line) {
	a.tick++
	l.lru = a.tick
}

// peek is lookup without the LRU refresh, for snoops and invariant checks.
func (a *array) peek(lineAddr uint64) *line {
	set := a.setOf(lineAddr)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == lineAddr {
			return &set[i]
		}
	}
	return nil
}

// victim returns the slot a fill of lineAddr should use: an invalid way if
// one exists, otherwise the LRU way. The returned line still holds the
// victim's previous contents so the caller can write it back.
func (a *array) victim(lineAddr uint64) *line {
	set := a.fillSetOf(lineAddr)
	var v *line
	for i := range set {
		if set[i].state == Invalid {
			return &set[i]
		}
		if v == nil || set[i].lru < v.lru {
			v = &set[i]
		}
	}
	return v
}

// install writes a new line into slot with the given tag and state and
// refreshes LRU.
func (a *array) install(slot *line, tag uint64, st State) {
	a.tick++
	*slot = line{tag: tag, state: st, lru: a.tick}
}

// invalidate drops lineAddr if present, returning its prior state.
func (a *array) invalidate(lineAddr uint64) State {
	if l := a.peek(lineAddr); l != nil {
		st := l.state
		l.state = Invalid
		return st
	}
	return Invalid
}

// forEachValid calls fn for every valid line in the array.
func (a *array) forEachValid(fn func(*line)) {
	for _, ch := range a.chunks {
		for i := range ch {
			if ch[i].state != Invalid {
				fn(&ch[i])
			}
		}
	}
}

// checkSets verifies the set property peek relies on when it returns
// the first match: no set holds two valid copies of one line. name
// labels the array in the error.
func (a *array) checkSets(name string) error {
	for c, ch := range a.chunks {
		for off := 0; off < len(ch); off += a.ways {
			set := ch[off : off+a.ways]
			for w := range set {
				if set[w].state == Invalid {
					continue
				}
				for _, x := range set[w+1:] {
					if x.state != Invalid && x.tag == set[w].tag {
						return fmt.Errorf("%s: set %d holds line %#x twice", name, c<<chunkShift+off/a.ways, x.tag)
					}
				}
			}
		}
	}
	return nil
}
