// Package trace implements a portable text format for multi-threaded
// memory-access traces and a replay engine that turns a trace into
// simulator kernels. It is the bridge for "arbitrary programs": anything
// that can emit its accesses — a Pin/DynamoRIO tool, an interpreter hook,
// a hand-written scenario — can be classified by a trained detector
// without writing Go code.
//
// # Format
//
// One event per line, whitespace-separated, '#' starts a comment:
//
//	T<tid> L <addr> [x<count>]   load
//	T<tid> S <addr> [x<count>]   store
//	T<tid> E <n>                 n ALU instructions
//	T<tid> B <n>                 n branch instructions
//
// Addresses accept decimal or 0x-prefixed hex. The optional x<count>
// suffix repeats a memory event (the address is re-used, which is what a
// tight loop on one variable looks like). Thread ids must be contiguous
// from 0.
package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"strconv"
	"strings"

	"fsml/internal/machine"
)

// OpKind is the event type of a trace record.
type OpKind byte

// Trace event kinds.
const (
	OpLoad   OpKind = 'L'
	OpStore  OpKind = 'S'
	OpExec   OpKind = 'E'
	OpBranch OpKind = 'B'
)

// Op is one trace record. For OpLoad/OpStore, Addr is the address and N
// the repeat count; for OpExec/OpBranch, N is the instruction count.
type Op struct {
	Kind OpKind
	Addr uint64
	N    int
}

// Trace is a parsed multi-threaded access trace.
type Trace struct {
	// Threads[tid] is thread tid's event sequence.
	Threads [][]Op
}

// NumThreads returns the thread count.
func (t *Trace) NumThreads() int { return len(t.Threads) }

// Ops returns the total number of trace records.
func (t *Trace) Ops() int {
	n := 0
	for _, th := range t.Threads {
		n += len(th)
	}
	return n
}

// Parse reads the text format, transparently decompressing gzip input
// (big traces compress 10x+). Parsing is strict: unknown kinds, negative
// counts, or gaps in thread numbering are errors — a classification over
// a silently mangled trace would be worse than no answer.
func Parse(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: opening gzip stream: %w", err)
		}
		// A trace file is exactly one gzip member. Without this, the
		// reader would silently concatenate whatever follows the final
		// record as a second member — or report appended garbage as a
		// baffling "invalid header" mid-read.
		gz.Multistream(false)
		t, perr := parseText(gz)
		if cerr := gz.Close(); cerr != nil && perr == nil {
			return nil, fmt.Errorf("trace: closing gzip stream: %w", cerr)
		}
		if perr != nil {
			return nil, perr
		}
		// The flate reader pulls bytes one at a time from br, so after
		// the member's trailer br sits exactly on any trailing bytes.
		switch _, err := br.ReadByte(); {
		case err == nil:
			return nil, fmt.Errorf("trace: trailing data after the gzip trace stream")
		case err != io.EOF:
			return nil, fmt.Errorf("trace: reading after gzip stream: %w", err)
		}
		return t, nil
	}
	return parseText(br)
}

// parseText scans the text format line by line. Each line goes first
// through parseFast, which decodes the canonical form Write emits in
// place over the scanner's bytes; whatever it does not fully accept —
// non-ASCII bytes, signs, over-long numbers, extra fields, and every
// malformed line — is re-parsed by parseLine, the original strings-based
// decoder, so accepted traces and error texts are exactly parseLine's.
func parseText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	// The buffer grows on demand up to the 1 MiB line limit.
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var ts threadSet
	for lineNo := 1; sc.Scan(); lineNo++ {
		tid, op, st := parseFast(sc.Bytes())
		if st == lineSlow {
			var err error
			tid, op, st, err = parseLine(lineNo, sc.Text())
			if err != nil {
				return nil, err
			}
		}
		if st == lineOp {
			ts.add(tid, op)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	return ts.trace()
}

// lineStatus is what a line decoder made of one line.
type lineStatus uint8

const (
	lineOp    lineStatus = iota // one event, returned alongside
	lineBlank                   // only whitespace and comment
	lineSlow                    // parseFast declined; use parseLine
)

// threadSet collects ops per thread id. Ids that arrive in order — id n
// first appears once ids 0..n-1 have, which is how Write and the
// recorder emit traces — live in a dense slice. An id seen ahead of a
// gap waits in a map until the dense prefix reaches it, so a lone huge
// id (say T999999999) is a parse error, never an allocation sized by
// the id.
type threadSet struct {
	dense [][]Op
	ahead map[int][]Op
}

func (ts *threadSet) add(tid int, op Op) {
	switch {
	case tid < len(ts.dense):
	case tid == len(ts.dense):
		ts.dense = append(ts.dense, ts.ahead[tid])
		delete(ts.ahead, tid)
	default:
		if ts.ahead == nil {
			ts.ahead = map[int][]Op{}
		}
		ts.ahead[tid] = append(ts.ahead[tid], op)
		return
	}
	ts.dense[tid] = append(ts.dense[tid], op)
}

// trace validates contiguity and returns the parsed trace. Every id
// below len(dense) holds ops, so once the waiting ids that extend the
// prefix are pulled in, any id still waiting means len(dense) is the
// smallest missing one.
func (ts *threadSet) trace() (*Trace, error) {
	for len(ts.ahead) > 0 {
		n := len(ts.dense)
		ops, ok := ts.ahead[n]
		if !ok {
			return nil, fmt.Errorf("trace: thread ids not contiguous: T%d missing", n)
		}
		delete(ts.ahead, n)
		ts.dense = append(ts.dense, ops)
	}
	if len(ts.dense) == 0 {
		return nil, fmt.Errorf("trace: no events")
	}
	return &Trace{Threads: ts.dense}, nil
}

// isSpace marks the ASCII bytes strings.Fields splits on.
var isSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// parseFast decodes one line of the canonical form without allocating:
// 'T' and at most 18 digits, a one-byte kind, then for L/S a decimal
// (at most 19 digits) or 0x/0X hex (at most 16 digits) address and an
// optional 'x' repeat, for E/B a count; counts are positive and at most
// 18 digits. Fields split on ASCII whitespace and '#' ends the line.
// Anything else, including any byte outside ASCII, returns lineSlow.
// Within these bounds strconv would accept the same text with the same
// value, so the fast path never changes what a line means.
func parseFast(b []byte) (tid int, op Op, st lineStatus) {
	var f [4][]byte
	n := 0
	for i := 0; i < len(b); {
		c := b[i]
		if c == '#' {
			break
		}
		if isSpace[c] {
			i++
			continue
		}
		if n == len(f) {
			return 0, Op{}, lineSlow
		}
		j := i + 1
		for j < len(b) && !isSpace[b[j]] && b[j] != '#' {
			j++
		}
		f[n] = b[i:j]
		n++
		i = j
	}
	if n == 0 {
		return 0, Op{}, lineBlank
	}
	if n < 3 || f[0][0] != 'T' || len(f[1]) != 1 {
		return 0, Op{}, lineSlow
	}
	t, ok := decimal(f[0][1:], 18)
	if !ok {
		return 0, Op{}, lineSlow
	}
	switch kind := OpKind(f[1][0]); kind {
	case OpLoad, OpStore:
		var addr uint64
		if a := f[2]; len(a) > 2 && a[0] == '0' && (a[1] == 'x' || a[1] == 'X') {
			addr, ok = hex(a[2:])
		} else {
			addr, ok = decimal(a, 19)
		}
		if !ok {
			return 0, Op{}, lineSlow
		}
		op = Op{Kind: kind, Addr: addr, N: 1}
		if n == 4 {
			if f[3][0] != 'x' {
				return 0, Op{}, lineSlow
			}
			rep, ok := decimal(f[3][1:], 18)
			if !ok || rep == 0 {
				return 0, Op{}, lineSlow
			}
			op.N = int(rep)
		}
	case OpExec, OpBranch:
		if n != 3 {
			return 0, Op{}, lineSlow
		}
		cnt, ok := decimal(f[2], 18)
		if !ok || cnt == 0 {
			return 0, Op{}, lineSlow
		}
		op = Op{Kind: kind, N: int(cnt)}
	default:
		return 0, Op{}, lineSlow
	}
	return int(t), op, lineOp
}

// decimal parses 1 to maxDigits ASCII digits; 19 digits always fit.
func decimal(b []byte, maxDigits int) (uint64, bool) {
	if len(b) == 0 || len(b) > maxDigits {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// hex parses 1 to 16 ASCII hex digits of either case.
func hex(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 16 {
		return 0, false
	}
	var v uint64
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c -= 'a' - 10
		case c >= 'A' && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		v = v<<4 | uint64(c)
	}
	return v, true
}

// parseLine decodes one line the general way: any Unicode whitespace
// separates fields, strconv parses the numbers, extra fields after the
// last one a kind uses are ignored, and every malformed line gets its
// error. It returns lineBlank for an empty or comment-only line.
func parseLine(lineNo int, line string) (tid int, op Op, st lineStatus, err error) {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return 0, Op{}, lineBlank, nil
	}
	if len(fields) < 3 {
		return 0, Op{}, 0, fmt.Errorf("trace: line %d: want 'T<tid> KIND ARG', got %q", lineNo, line)
	}
	if !strings.HasPrefix(fields[0], "T") {
		return 0, Op{}, 0, fmt.Errorf("trace: line %d: thread field %q must start with 'T'", lineNo, fields[0])
	}
	tid, err = strconv.Atoi(fields[0][1:])
	if err != nil || tid < 0 {
		return 0, Op{}, 0, fmt.Errorf("trace: line %d: bad thread id %q", lineNo, fields[0])
	}
	if len(fields[1]) != 1 {
		return 0, Op{}, 0, fmt.Errorf("trace: line %d: bad event kind %q", lineNo, fields[1])
	}
	kind := OpKind(fields[1][0])
	switch kind {
	case OpLoad, OpStore:
		digits, addrBase := splitBase(fields[2])
		addr, err := strconv.ParseUint(digits, addrBase, 64)
		if err != nil {
			return 0, Op{}, 0, fmt.Errorf("trace: line %d: bad address %q: %v", lineNo, fields[2], err)
		}
		op = Op{Kind: kind, Addr: addr, N: 1}
		if len(fields) >= 4 {
			if !strings.HasPrefix(fields[3], "x") {
				return 0, Op{}, 0, fmt.Errorf("trace: line %d: bad repeat %q (want xN)", lineNo, fields[3])
			}
			n, err := strconv.Atoi(fields[3][1:])
			if err != nil || n <= 0 {
				return 0, Op{}, 0, fmt.Errorf("trace: line %d: bad repeat count %q", lineNo, fields[3])
			}
			op.N = n
		}
	case OpExec, OpBranch:
		n, err := strconv.Atoi(fields[2])
		if err != nil || n <= 0 {
			return 0, Op{}, 0, fmt.Errorf("trace: line %d: bad instruction count %q", lineNo, fields[2])
		}
		op = Op{Kind: kind, N: n}
	default:
		return 0, Op{}, 0, fmt.Errorf("trace: line %d: unknown event kind %q", lineNo, fields[1])
	}
	return tid, op, lineOp, nil
}

// splitBase strips an address token's hex prefix, accepting both the
// "0x" the writer emits and the "0X" uppercasing tools produce, and
// returns the remaining digits with their base.
func splitBase(s string) (digits string, base int) {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return s[2:], 16
	}
	return s, 10
}

// Write emits the trace in the text format Parse reads.
func Write(w io.Writer, t *Trace) error {
	bw := bufio.NewWriter(w)
	for tid, ops := range t.Threads {
		for _, op := range ops {
			var err error
			switch op.Kind {
			case OpLoad, OpStore:
				if op.N > 1 {
					_, err = fmt.Fprintf(bw, "T%d %c 0x%x x%d\n", tid, op.Kind, op.Addr, op.N)
				} else {
					_, err = fmt.Fprintf(bw, "T%d %c 0x%x\n", tid, op.Kind, op.Addr)
				}
			case OpExec, OpBranch:
				_, err = fmt.Fprintf(bw, "T%d %c %d\n", tid, op.Kind, op.N)
			default:
				err = fmt.Errorf("trace: unknown op kind %q", op.Kind)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// replayKernel replays one thread's op sequence.
type replayKernel struct {
	ops []Op
	// pos/rep track the resume point: ops[pos] with rep repeats done.
	pos, rep int
}

// Step implements machine.Kernel.
func (k *replayKernel) Step(ctx *machine.Ctx) bool {
	for k.pos < len(k.ops) {
		if ctx.Budget() <= 0 {
			return false
		}
		op := k.ops[k.pos]
		switch op.Kind {
		case OpLoad:
			ctx.Load(op.Addr)
			k.rep++
		case OpStore:
			ctx.Store(op.Addr)
			k.rep++
		case OpExec:
			ctx.Exec(op.N)
			k.rep = op.N
		case OpBranch:
			ctx.Branch(op.N)
			k.rep = op.N
		}
		if k.rep >= op.N {
			k.pos++
			k.rep = 0
		}
	}
	return true
}

// Kernels builds replay kernels, one per trace thread. Each call returns
// fresh kernels, so one parsed trace can be replayed many times.
func (t *Trace) Kernels() []machine.Kernel {
	out := make([]machine.Kernel, len(t.Threads))
	for tid, ops := range t.Threads {
		out[tid] = &replayKernel{ops: ops}
	}
	return out
}
