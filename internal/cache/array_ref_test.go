package cache

import (
	"testing"

	"fsml/internal/mem"
)

// refLine and refArray are the plain cache array that array's chunked,
// lazily allocated sets and mask indexing must behave like: one
// 32-byte line per way, every set allocated up front and indexed by
// modulo, a full-set scan per probe, and the same tick-stamped LRU.
type refLine struct {
	tag        uint64
	lru        uint64
	mask       uint64
	state      State
	prefetched bool
}

type refArray struct {
	sets  [][]refLine
	nsets uint64
	tick  uint64
}

func newRefArray(nsets, ways int) *refArray {
	a := &refArray{sets: make([][]refLine, nsets), nsets: uint64(nsets)}
	for i := range a.sets {
		a.sets[i] = make([]refLine, ways)
	}
	return a
}

func (a *refArray) setOf(lineAddr uint64) []refLine { return a.sets[lineAddr%a.nsets] }

func (a *refArray) lookup(lineAddr uint64) *refLine {
	l := a.peek(lineAddr)
	if l != nil {
		a.tick++
		l.lru = a.tick
	}
	return l
}

func (a *refArray) peek(lineAddr uint64) *refLine {
	set := a.setOf(lineAddr)
	for i := range set {
		if set[i].state != Invalid && set[i].tag == lineAddr {
			return &set[i]
		}
	}
	return nil
}

func (a *refArray) victim(lineAddr uint64) *refLine {
	set := a.setOf(lineAddr)
	var v *refLine
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

func (a *refArray) install(slot *refLine, tag uint64, st State) {
	a.tick++
	*slot = refLine{tag: tag, state: st, lru: a.tick}
}

func (a *refArray) invalidate(lineAddr uint64) State {
	if l := a.peek(lineAddr); l != nil {
		st := l.state
		l.state = Invalid
		return st
	}
	return Invalid
}

// refWay is l's way in lineAddr's reference set, -1 for nil.
func (a *refArray) refWay(lineAddr uint64, l *refLine) int {
	set := a.setOf(lineAddr)
	for i := range set {
		if &set[i] == l {
			return i
		}
	}
	return -1
}

// wayOf is l's way in lineAddr's set, -1 for nil.
func (a *array) wayOf(lineAddr uint64, l *line) int {
	if l == nil {
		return -1
	}
	set := a.setOf(lineAddr)
	for i := range set {
		if &set[i] == l {
			return i
		}
	}
	return -2
}

// sameSet fails t unless lineAddr's set holds the same lines, states,
// prefetch marks, directory masks and LRU stamps in both arrays (a way
// the reference holds Invalid only has to be Invalid).
func sameSet(t *testing.T, a *array, ra *refArray, lineAddr uint64, step int) {
	t.Helper()
	rset := ra.setOf(lineAddr)
	set := a.setOf(lineAddr)
	for w, rl := range rset {
		if set == nil {
			if rl.state != Invalid {
				t.Fatalf("step %d: set of %#x unallocated, reference way %d holds %#x", step, lineAddr, w, rl.tag)
			}
			continue
		}
		l := &set[w]
		if l.state != rl.state {
			t.Fatalf("step %d: set of %#x way %d state %v, reference %v", step, lineAddr, w, l.state, rl.state)
		}
		if rl.state == Invalid {
			continue
		}
		if l.tag != rl.tag || l.lru != rl.lru || l.prefetched != rl.prefetched || l.mask != rl.mask {
			t.Fatalf("step %d: set of %#x way %d holds %#x lru %d pf %v mask %#x, reference %#x lru %d pf %v mask %#x",
				step, lineAddr, w, l.tag, l.lru, l.prefetched, l.mask, rl.tag, rl.lru, rl.prefetched, rl.mask)
		}
	}
}

// FuzzArrayMatchesReference drives the cache array and the reference
// through the same random lookup, peek, fill, state-change and
// invalidate sequences on 8- and 16-way arrays with power-of-two and
// other set counts, and requires the same hit or miss, the same way,
// the same victim and the same LRU stamps after every op. Every op also
// checks the set invariant peek relies on.
func FuzzArrayMatchesReference(f *testing.F) {
	f.Add(byte(0), []byte{2, 1, 2, 9, 0, 1, 1, 9, 3, 1, 2, 17})
	f.Add(byte(5), []byte{2, 0, 2, 3, 2, 6, 2, 9, 2, 12, 2, 15, 2, 18, 2, 21, 2, 24, 0, 3})
	f.Add(byte(3), []byte{6, 200, 6, 7, 4, 7, 5, 7, 3, 7, 6, 7, 1, 7})
	seq := []byte{}
	for i := 0; i < 300; i++ {
		seq = append(seq, byte(i*7%8|i*13%32<<3), byte(i*29))
	}
	// Every way count and set count, then bit 0x10: directory masks
	// too, as the L3 keeps.
	for shape := 0; shape < 0x20; shape++ {
		f.Add(byte(shape), seq)
	}
	f.Fuzz(func(t *testing.T, shape byte, ops []byte) {
		ways := 8
		if shape&1 != 0 {
			ways = 16
		}
		// Power-of-two and other set counts, within and across chunks.
		nsets := []int{1, 3, 4, 6, 16, 24, 32, 48}[shape>>1%8]
		dir := shape&0x10 != 0
		a := newArray(nsets*ways*mem.LineSize, ways)
		ra := newRefArray(nsets, ways)
		if len(ops) > 2*512 {
			ops = ops[:2*512]
		}
		for i := 0; i+1 < len(ops); i += 2 {
			kind, arg := ops[i]%8, ops[i+1]
			// The op byte's high bits pick the set, the argument one of
			// 32 lines in it (conflicts and evictions), and its top bit
			// moves the line near the top of the line address space.
			lineAddr := uint64(arg%32)*uint64(nsets) + uint64(ops[i]>>3)
			if arg&0x80 != 0 {
				lineAddr |= 1 << 57
			}
			st := State(1 + int(arg)%3)
			switch kind {
			case 0:
				r, rl := a.lookup(lineAddr), ra.lookup(lineAddr)
				if a.wayOf(lineAddr, r) != ra.refWay(lineAddr, rl) {
					t.Fatalf("step %d: lookup(%#x) way %d, reference %d", i, lineAddr, a.wayOf(lineAddr, r), ra.refWay(lineAddr, rl))
				}
			case 1:
				r, rl := a.peek(lineAddr), ra.peek(lineAddr)
				if a.wayOf(lineAddr, r) != ra.refWay(lineAddr, rl) {
					t.Fatalf("step %d: peek(%#x) way %d, reference %d", i, lineAddr, a.wayOf(lineAddr, r), ra.refWay(lineAddr, rl))
				}
			case 2, 3, 4:
				// A fill as installL1 does it: peek, and on a miss
				// install into the victim.
				r, rl := a.peek(lineAddr), ra.peek(lineAddr)
				if w, rw := a.wayOf(lineAddr, r), ra.refWay(lineAddr, rl); w != rw {
					t.Fatalf("step %d: peek(%#x) way %d, reference %d", i, lineAddr, w, rw)
				}
				if rl != nil {
					r.state = st
					rl.state = st
					break
				}
				r, rl = a.victim(lineAddr), ra.victim(lineAddr)
				if w, rw := a.wayOf(lineAddr, r), ra.refWay(lineAddr, rl); w != rw {
					t.Fatalf("step %d: victim(%#x) way %d, reference %d", i, lineAddr, w, rw)
				}
				a.install(r, lineAddr, st)
				ra.install(rl, lineAddr, st)
			case 5:
				// A fill through victim alone, as installL2 and ensureL3 do.
				if ra.peek(lineAddr) != nil {
					continue
				}
				r, rl := a.victim(lineAddr), ra.victim(lineAddr)
				if w, rw := a.wayOf(lineAddr, r), ra.refWay(lineAddr, rl); w != rw {
					t.Fatalf("step %d: victim(%#x) way %d, reference %d", i, lineAddr, w, rw)
				}
				a.install(r, lineAddr, st)
				ra.install(rl, lineAddr, st)
				pf := arg&0x40 != 0
				r.prefetched = pf
				rl.prefetched = pf
				if dir {
					r.mask = uint64(arg) * 0x0101
					rl.mask = uint64(arg) * 0x0101
				}
			case 6:
				if got, want := a.invalidate(lineAddr), ra.invalidate(lineAddr); got != want {
					t.Fatalf("step %d: invalidate(%#x) = %v, reference %v", i, lineAddr, got, want)
				}
			case 7:
				// A state change or a demand hit on a prefetched line.
				if r, rl := a.peek(lineAddr), ra.peek(lineAddr); rl != nil {
					r.state = st
					rl.state = st
					r.prefetched = false
					rl.prefetched = false
				}
			}
			sameSet(t, a, ra, lineAddr, i)
			if err := a.checkSets("array"); err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
		}
	})
}
