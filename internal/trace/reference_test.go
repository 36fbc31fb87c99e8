package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// refParse is the parser as it stood before the byte-level fast path:
// a line-at-a-time scan through strings.Fields, strconv and a
// map-of-threads. It is kept verbatim as the reference the differential
// fuzz target holds Parse to, byte for byte on accepted traces and
// error texts.
func refParse(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: opening gzip stream: %w", err)
		}
		gz.Multistream(false)
		t, perr := refParseText(gz)
		if cerr := gz.Close(); cerr != nil && perr == nil {
			return nil, fmt.Errorf("trace: closing gzip stream: %w", cerr)
		}
		if perr != nil {
			return nil, perr
		}
		switch _, err := br.ReadByte(); {
		case err == nil:
			return nil, fmt.Errorf("trace: trailing data after the gzip trace stream")
		case err != io.EOF:
			return nil, fmt.Errorf("trace: reading after gzip stream: %w", err)
		}
		return t, nil
	}
	return refParseText(br)
}

func refParseText(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	t := &Trace{}
	byTid := map[int][]Op{}
	maxTid := -1
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 3 {
			return nil, fmt.Errorf("trace: line %d: want 'T<tid> KIND ARG', got %q", lineNo, line)
		}
		if !strings.HasPrefix(fields[0], "T") {
			return nil, fmt.Errorf("trace: line %d: thread field %q must start with 'T'", lineNo, fields[0])
		}
		tid, err := strconv.Atoi(fields[0][1:])
		if err != nil || tid < 0 {
			return nil, fmt.Errorf("trace: line %d: bad thread id %q", lineNo, fields[0])
		}
		if tid > maxTid {
			maxTid = tid
		}
		if len(fields[1]) != 1 {
			return nil, fmt.Errorf("trace: line %d: bad event kind %q", lineNo, fields[1])
		}
		kind := OpKind(fields[1][0])
		var op Op
		switch kind {
		case OpLoad, OpStore:
			digits, addrBase := refSplitBase(fields[2])
			addr, err := strconv.ParseUint(digits, addrBase, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: bad address %q: %v", lineNo, fields[2], err)
			}
			op = Op{Kind: kind, Addr: addr, N: 1}
			if len(fields) >= 4 {
				if !strings.HasPrefix(fields[3], "x") {
					return nil, fmt.Errorf("trace: line %d: bad repeat %q (want xN)", lineNo, fields[3])
				}
				n, err := strconv.Atoi(fields[3][1:])
				if err != nil || n <= 0 {
					return nil, fmt.Errorf("trace: line %d: bad repeat count %q", lineNo, fields[3])
				}
				op.N = n
			}
		case OpExec, OpBranch:
			n, err := strconv.Atoi(fields[2])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("trace: line %d: bad instruction count %q", lineNo, fields[2])
			}
			op = Op{Kind: kind, N: n}
		default:
			return nil, fmt.Errorf("trace: line %d: unknown event kind %q", lineNo, fields[1])
		}
		byTid[tid] = append(byTid[tid], op)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: reading: %w", err)
	}
	if maxTid < 0 {
		return nil, fmt.Errorf("trace: no events")
	}
	if len(byTid) != maxTid+1 {
		for tid := 0; tid <= len(byTid); tid++ {
			if _, ok := byTid[tid]; !ok {
				return nil, fmt.Errorf("trace: thread ids not contiguous: T%d missing", tid)
			}
		}
	}
	t.Threads = make([][]Op, maxTid+1)
	for tid := 0; tid <= maxTid; tid++ {
		t.Threads[tid] = byTid[tid]
	}
	return t, nil
}

func refSplitBase(s string) (digits string, base int) {
	if strings.HasPrefix(s, "0x") || strings.HasPrefix(s, "0X") {
		return s[2:], 16
	}
	return s, 10
}
