package trace

import (
	"bytes"
	"compress/gzip"
	"reflect"
	"strings"
	"testing"
)

// fuzzSeeds is the hand-picked corpus: valid traces (including ones
// produced by Write), near-valid mutations, and inputs that previously
// hit pathological paths (the lone-huge-tid allocation).
var fuzzSeeds = []string{
	"T0 E 10\n",
	"T0 L 0x40 x3\nT0 S 0x48\nT0 E 5\nT1 S 0x44 x2\nT1 B 7\n",
	"# comment only\nT0 E 1 # trailing\n\n",
	"T0 L 64\nT0 S 0x40\n",
	"T1 E 1\n",                 // missing T0
	"T0 E 1\nT2 E 1\n",         // gap at T1
	"T999999999 E 1\n",         // huge tid: must error, not allocate
	"T0 L 0x40 x0\n",           // zero repeat
	"T0 E -3\n",                // negative count
	"T0 X 1\n",                 // unknown kind
	"T0 LL 0x40\n",             // two-byte kind
	"T-1 E 1\n",                // negative tid
	"T0 L zz\n",                // bad address
	"T0 L 0X1F40\nT0 S 0X40\n", // uppercase hex prefix (regression)
	"T0 L 0X\n",                // prefix with no digits
	"T0 L\n",                   // short line
	"",                         // empty input
	"T0 L 0xffffffffffffffff\nT0 E 2147483647\n",
	strings.Repeat("T0 E 1\n", 100),
}

// FuzzParseTrace throws arbitrary bytes at the parser. Invariants: no
// panic and no runaway allocation on any input; on accepted input the
// trace survives a Write/Parse round trip bit-identically, every thread
// has at least one op, and every op carries a positive count.
func FuzzParseTrace(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	// Round-trip outputs of Write are first-class corpus members too.
	var rt bytes.Buffer
	t0, err := Parse(strings.NewReader(fuzzSeeds[1]))
	if err != nil {
		f.Fatal(err)
	}
	if err := Write(&rt, t0); err != nil {
		f.Fatal(err)
	}
	f.Add(rt.Bytes())

	// Gzip edge cases: a clean single member, a truncated member (crashed
	// writer), and trailing garbage after a complete member. The latter
	// two must be rejected, never panic or hang.
	var gzbuf bytes.Buffer
	gw := gzip.NewWriter(&gzbuf)
	if _, err := gw.Write([]byte(fuzzSeeds[1])); err != nil {
		f.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		f.Fatal(err)
	}
	member := gzbuf.Bytes()
	f.Add(append([]byte(nil), member...))
	f.Add(append([]byte(nil), member[:len(member)/2]...))
	f.Add(append(append([]byte(nil), member...), 0x00, 0xde, 0xad))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Parse(bytes.NewReader(data))
		if err != nil {
			return // rejected input: only panics/hangs are failures here
		}
		if tr.NumThreads() == 0 {
			t.Fatalf("accepted trace with zero threads")
		}
		for tid, ops := range tr.Threads {
			if len(ops) == 0 {
				t.Fatalf("thread %d accepted with no ops", tid)
			}
			for _, op := range ops {
				if op.N <= 0 {
					t.Fatalf("thread %d has op with non-positive count: %+v", tid, op)
				}
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("writing accepted trace: %v", err)
		}
		tr2, err := Parse(&buf)
		if err != nil {
			t.Fatalf("reparsing written trace: %v\ntrace:\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(tr.Threads, tr2.Threads) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", tr2.Threads, tr.Threads)
		}
	})
}

// TestParseHugeTidNoAlloc pins the allocation fix: a single event with a
// huge thread id must produce the contiguity error without sizing any
// structure by the id.
func TestParseHugeTidNoAlloc(t *testing.T) {
	_, err := Parse(strings.NewReader("T999999999 E 1\n"))
	if err == nil {
		t.Fatal("huge lone tid accepted")
	}
	if want := "trace: thread ids not contiguous: T0 missing"; err.Error() != want {
		t.Errorf("error = %q, want %q", err, want)
	}
}

// diffSeeds are inputs on the boundary between the byte-level fast path
// and the general line decoder: Unicode whitespace, signs and leading
// zeros, CRLF endings, extra fields, numbers one digit past the fast
// path's bounds, and lines at and past the scanner's 1 MiB limit.
func diffSeeds() []string {
	long := "T0 E 1 #" + strings.Repeat("z", 1<<20)
	atLimit := "T0 E 1 #" + strings.Repeat("z", 1<<20-len("T0 E 1 #")-1)
	return []string{
		"T0\u0085L 0x40\n",
		"T0\u00a0E 1\nT0 S\u00a00x40 x2\n",
		"\u00a0T0 E 1\u0085\n",
		"T0 L 0x40\n",
		"T0 E 1 \n",
		"T0 L 0x40 x2 \n",
		"T+1 E 1\nT0 E 1\n",
		"T01 E 1\nT0 E 1\n",
		"T0 E +5\nT0 L 0x40 x+2\n",
		"T0 L 0x40\r\nT0 S 64 x3\r\nT0 E 2\r\n",
		"T0 L 0x40 x2 extra\nT0 E 3 4 5\nT0 S 8 x1 a b\n",
		"T0 E 3 extra\n",
		"T0 L 0x0123456789abcdef0\n",
		"T0 L 0x00000000000000001\n",
		"T0 L 0x123456789abcdef01\n",
		"T0 L 0xFFFFFFFFFFFFFFFF\n",
		"T0 L 18446744073709551615\n",
		"T0 L 18446744073709551616\n",
		"T0 L 00000000000000000001\n",
		"T0 L 9999999999999999999\n",
		"T9223372036854775807 E 1\n",
		"T0 E 9223372036854775807\nT0 E 9223372036854775808\n",
		"T0 L 1_0\nT0 L 0x1_0\n",
		"T0 E 1#c\nT0#c\n#\n  \t\v\f\n",
		"T1 E 1\nT0 E 1\nT3 E 1\nT2 E 2\n",
		"T2 E 1\nT0 E 1\nT3 E 1\n",
		"T0 E 1\n" + atLimit + "\nT0 E 2\n",
		"T0 E 1\n" + long + "\nT0 E 2\n",
		"T0 X 1\n" + long + "\n",
	}
}

// FuzzParseMatchesReference holds Parse to the pre-fast-path parser
// (refParse): on any input both accept the same trace or fail with the
// same error text.
func FuzzParseMatchesReference(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add([]byte(s))
	}
	for _, s := range diffSeeds() {
		f.Add([]byte(s))
		var gz bytes.Buffer
		gw := gzip.NewWriter(&gz)
		_, _ = gw.Write([]byte(s))
		_ = gw.Close()
		f.Add(gz.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gerr := Parse(bytes.NewReader(data))
		want, werr := refParse(bytes.NewReader(data))
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("error = %v, reference %v", gerr, werr)
		}
		if gerr == nil && !reflect.DeepEqual(got.Threads, want.Threads) {
			t.Fatalf("trace differs from the reference:\n got %+v\nwant %+v", got.Threads, want.Threads)
		}
	})
}
