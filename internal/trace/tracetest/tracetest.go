// Package tracetest generates synthetic access traces in the
// internal/trace text format for tests and benchmarks. The traces have
// the shape of the canonical benchmark's heavy replays (perfbench's
// genTrace): threads mixing short ALU runs with loads and stores over
// one of three sharing patterns.
package tracetest

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"math/rand"
)

// Text returns an uncompressed trace of about ops records over threads
// threads. The sharing pattern — falsely shared words of one line (0),
// private lines (1), or a streaming sweep (2) — sets which coherence
// paths a replay exercises; rng draws the ALU run lengths.
func Text(rng *rand.Rand, ops, pattern, threads int) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "# perfbench generated trace: %d threads, pattern %d\n", threads, pattern)
	perThread := ops / threads
	for t := 0; t < threads; t++ {
		base := uint64(0x100000 + 0x40000*t)
		for i := 0; i < perThread; i++ {
			var addr uint64
			switch pattern {
			case 0: // false sharing: thread t owns word t of a shared line
				addr = 0x80000 + uint64(8*t) + uint64(64*(i%4))
			case 1: // private: each thread hammers its own lines
				addr = base + uint64(64*(i%32))
			default: // streaming over a per-thread array
				addr = base + uint64(8*i)
			}
			switch i % 4 {
			case 0:
				fmt.Fprintf(&b, "T%d E %d\n", t, 1+rng.Intn(4))
			case 1, 2:
				fmt.Fprintf(&b, "T%d L 0x%x\n", t, addr)
			default:
				fmt.Fprintf(&b, "T%d S 0x%x\n", t, addr)
			}
		}
	}
	return b.Bytes()
}

// Gzip compresses a trace the way the benchmark ships it.
func Gzip(text []byte) []byte {
	var gz bytes.Buffer
	w, _ := gzip.NewWriterLevel(&gz, gzip.BestSpeed)
	_, _ = w.Write(text)
	_ = w.Close()
	return gz.Bytes()
}

// HeavyRecords is the record count of one benchmark heavy replay.
const HeavyRecords = 20000

// HeavySet returns the six gzipped heavy-replay traces of the canonical
// benchmark's shape: patterns 0, 1, 2 at 2 threads, then at 4 threads,
// drawn from one rng seeded with seed.
func HeavySet(seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, 6)
	for i := range out {
		out[i] = Gzip(Text(rng, HeavyRecords, i%3, 2+2*(i/3)))
	}
	return out
}
