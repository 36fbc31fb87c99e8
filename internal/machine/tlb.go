package machine

import "fsml/internal/mem"

// DTLB parameters: a 64-entry, 4-way first-level data TLB over 4 KiB
// pages, with a flat page-walk cost on miss. (Westmere's second-level TLB
// is folded into the walk cost; the classifier only needs DTLB_MISSES.ANY
// to scale with the page-locality of the access stream.)
const (
	tlbSets       = 16
	tlbWays       = 4
	tlbWalkCycles = 30
)

// tlbEntry is one translation: key is the page number plus one, so the
// zero entry is invalid.
type tlbEntry struct {
	key uint64
	lru uint64
}

type tlb struct {
	sets [tlbSets][tlbWays]tlbEntry
	tick uint64
	// last is the set and way of the most recent lookup. A page occupies
	// at most one entry of its set, so a memo holding the page is the
	// hit a set scan would find.
	lastSet, lastWay uint8
}

func newTLB() *tlb { return &tlb{} }

// access looks up the page of addr, installing it on miss.
// It reports whether the lookup hit.
func (t *tlb) access(addr uint64) bool {
	key := mem.PageOf(addr) + 1
	t.tick++
	if e := &t.sets[t.lastSet%tlbSets][t.lastWay%tlbWays]; e.key == key {
		e.lru = t.tick
		return true
	}
	s := (key - 1) % tlbSets
	set := &t.sets[s]
	for i := range set {
		if set[i].key == key {
			set[i].lru = t.tick
			t.lastSet, t.lastWay = uint8(s), uint8(i)
			return true
		}
	}
	// Miss: the last invalid way, else the first least recently used.
	victim := 0
	for i := range set {
		if set[i].key == 0 {
			victim = i
		} else if set[victim].key != 0 && set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = tlbEntry{key: key, lru: t.tick}
	t.lastSet, t.lastWay = uint8(s), uint8(victim)
	return false
}
