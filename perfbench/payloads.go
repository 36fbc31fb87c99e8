package main

// Seeded inputs for the serving workloads, and the oracle that checks
// the server's answers. Every payload is generated from the run's seed
// (the perf captures are the repository's fixtures, uploaded verbatim),
// and every expected verdict is computed here, in the benchmark's own
// code, from the golden detector file — not by calling into fsml.

import (
	"bytes"
	"compress/gzip"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
)

// Request kinds of the light and heavy streams.
const (
	kindVector   = iota // JSON event vector, 3-class detector
	kindEnsemble        // JSON event vector, ?ensemble=1
	kindPerf            // raw text/x-perf-stat upload
	kindFrame           // FSB1 frame of frameVecs vectors
	kindHeavy           // gzipped trace replay, JSON envelope
	numKinds
)

var kindNames = [numKinds]string{"vector", "ensemble", "perf", "frame", "heavy"}

// lightMix is the share of each light kind in the open-loop stream.
// There is no recorded fsml traffic to weight the kinds by, so each gets
// an equal share; the traced run reports each kind's own p50 beside the
// mix's, so a change to one kind shows whatever its weight here.
var lightMix = [...]struct {
	kind  int
	share float64
}{{kindVector, 0.25}, {kindEnsemble, 0.25}, {kindPerf, 0.25}, {kindFrame, 0.25}}

const (
	frameVecs = 64 // vectors per FSB1 frame
	// remoteDRAM is the event the ensemble consults beyond the 15
	// Table-2 features of the 3-class tree.
	remoteDRAM = "MEM_UNCORE_RETIRED.REMOTE_DRAM"
)

// treeNode mirrors the C4.5 node of the fsml-detector file format.
type treeNode struct {
	Leaf      bool      `json:"leaf"`
	Class     string    `json:"class"`
	Attr      int       `json:"attr"`
	Threshold float64   `json:"threshold"`
	Left      *treeNode `json:"left"`
	Right     *treeNode `json:"right"`
}

// oracle is the golden quick detector, walked independently of fsml.
type oracle struct {
	Attrs []string
	root  *treeNode
}

func loadOracle(path string) (*oracle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Tree struct {
			Attrs []string  `json:"attrs"`
			Root  *treeNode `json:"root"`
		} `json:"tree"`
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("golden detector %s: %w", path, err)
	}
	if f.Tree.Root == nil || len(f.Tree.Attrs) == 0 {
		return nil, fmt.Errorf("golden detector %s: no tree", path)
	}
	return &oracle{Attrs: f.Tree.Attrs, root: f.Tree.Root}, nil
}

// classify walks the tree: features[attr] <= threshold descends left.
func (o *oracle) classify(features []float64) string {
	n := o.root
	for !n.Leaf && n.Left != nil && n.Right != nil {
		if features[n.Attr] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Class
}

// perfExpect is one row of testdata/perf_verdicts.golden.json.
type perfExpect struct {
	Fixture    string  `json:"fixture"`
	Format     string  `json:"format"`
	Class      string  `json:"class"`
	Confidence float64 `json:"confidence"`
	Degraded   bool    `json:"degraded"`
}

// payload is one request body with what the answer must be.
type payload struct {
	kind        int
	body        []byte
	contentType string
	query       string
	// want are the oracle classes (one for vectors, frameVecs for
	// frames); perf holds the golden perf verdict. Ensemble and heavy
	// answers are checked against the first answer to the same payload.
	want []string
	perf *perfExpect
}

// pools holds every payload a run can send, indexed by kind.
type pools struct {
	byKind [numKinds][]*payload
}

// genVector draws one normalized event vector: each feature is
// log-uniform over [1e-4, 1e2], so draws land on both sides of any
// split the tree may have learned.
func genVector(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Pow(10, -4+6*rng.Float64())
	}
	return v
}

func buildPools(rng *rand.Rand, o *oracle, root string) (*pools, error) {
	p := &pools{}
	for i := 0; i < 256; i++ {
		v := genVector(rng, len(o.Attrs))
		body, _ := json.Marshal(map[string]any{"vector": v})
		p.byKind[kindVector] = append(p.byKind[kindVector], &payload{
			kind: kindVector, body: body, contentType: "application/json",
			want: []string{o.classify(v)},
		})
	}
	ensEvents := append(append([]string{}, o.Attrs...), remoteDRAM)
	for i := 0; i < 32; i++ {
		v := genVector(rng, len(ensEvents))
		body, _ := json.Marshal(map[string]any{"events": ensEvents, "vector": v})
		p.byKind[kindEnsemble] = append(p.byKind[kindEnsemble], &payload{
			kind: kindEnsemble, body: body, contentType: "application/json", query: "?ensemble=1",
		})
	}
	for i := 0; i < 16; i++ {
		vecs := make([]float64, 0, frameVecs*len(o.Attrs))
		want := make([]string, frameVecs)
		for j := range want {
			v := genVector(rng, len(o.Attrs))
			want[j] = o.classify(v)
			vecs = append(vecs, v...)
		}
		p.byKind[kindFrame] = append(p.byKind[kindFrame], &payload{
			kind: kindFrame, body: appendVectorFrame(nil, len(o.Attrs), vecs),
			contentType: "application/octet-stream", want: want,
		})
	}
	golden, err := os.ReadFile(filepath.Join(root, "testdata", "perf_verdicts.golden.json"))
	if err != nil {
		return nil, err
	}
	var expects []perfExpect
	if err := json.Unmarshal(golden, &expects); err != nil {
		return nil, fmt.Errorf("perf_verdicts.golden.json: %w", err)
	}
	for i := range expects {
		e := &expects[i]
		text, err := os.ReadFile(filepath.Join(root, "internal", "perfingest", "testdata", e.Fixture+".txt"))
		if err != nil {
			return nil, err
		}
		p.byKind[kindPerf] = append(p.byKind[kindPerf], &payload{
			kind: kindPerf, body: text, contentType: "text/x-perf-stat", perf: e,
		})
	}
	if len(p.byKind[kindPerf]) == 0 {
		return nil, fmt.Errorf("perf_verdicts.golden.json lists no fixtures")
	}
	for i := 0; i < 6; i++ {
		gz := genTrace(rng, heavyOps, i%3, 2+2*(i/3))
		body, _ := json.Marshal(map[string]string{"trace": base64.StdEncoding.EncodeToString(gz)})
		p.byKind[kindHeavy] = append(p.byKind[kindHeavy], &payload{
			kind: kindHeavy, body: body, contentType: "application/json",
		})
	}
	return p, nil
}

// appendVectorFrame encodes an FSB1 vector request frame (see the frame
// layout in internal/serve/wire.go): no detector key, no event names
// (the detector's own attribute order), no suspects.
func appendVectorFrame(dst []byte, width int, vecs []float64) []byte {
	le := binary.LittleEndian
	start := len(dst)
	dst = le.AppendUint32(dst, 0)
	dst = append(dst, "FSB1"...)
	dst = append(dst, 1, 0)       // kind request, mode vectors
	dst = le.AppendUint16(dst, 0) // detector ""
	dst = le.AppendUint16(dst, uint16(width))
	dst = le.AppendUint16(dst, 0) // events
	dst = le.AppendUint16(dst, 0) // suspects
	dst = le.AppendUint32(dst, uint32(len(vecs)/width))
	for _, v := range vecs {
		dst = le.AppendUint64(dst, math.Float64bits(v))
	}
	le.PutUint32(dst[start:], uint32(len(dst)-start-4))
	return dst
}

// binVerdict is one verdict of an FSB1 response frame.
type binVerdict struct {
	class      string
	degraded   bool
	confidence float64
}

// decodeVerdictFrame parses an FSB1 response frame (kind 2).
func decodeVerdictFrame(b []byte) ([]binVerdict, error) {
	le := binary.LittleEndian
	bad := func(msg string) ([]binVerdict, error) { return nil, fmt.Errorf("response frame: %s", msg) }
	if len(b) < 9 || int(le.Uint32(b)) != len(b)-4 || string(b[4:8]) != "FSB1" {
		return bad("bad header")
	}
	if b[8] != 2 {
		return bad(fmt.Sprintf("kind %d, want 2", b[8]))
	}
	at := 9
	str := func() (string, bool) {
		if at+2 > len(b) {
			return "", false
		}
		n := int(le.Uint16(b[at:]))
		at += 2
		if at+n > len(b) {
			return "", false
		}
		s := string(b[at : at+n])
		at += n
		return s, true
	}
	if _, ok := str(); !ok { // detector key
		return bad("truncated detector")
	}
	if at >= len(b) {
		return bad("truncated class table")
	}
	classes := make([]string, b[at])
	at++
	for i := range classes {
		s, ok := str()
		if !ok {
			return bad("truncated class table")
		}
		classes[i] = s
	}
	if at+2 > len(b) {
		return bad("truncated suspects")
	}
	nSusp := int(le.Uint16(b[at:]))
	at += 2
	for i := 0; i < nSusp; i++ {
		if _, ok := str(); !ok {
			return bad("truncated suspects")
		}
	}
	if at+4 > len(b) {
		return bad("truncated verdict count")
	}
	n := int(le.Uint32(b[at:]))
	at += 4
	if len(b)-at != n*18 {
		return bad("verdict bytes do not match the count")
	}
	out := make([]binVerdict, n)
	for i := range out {
		ci := int(b[at])
		if ci >= len(classes) {
			return bad("class index out of range")
		}
		out[i] = binVerdict{
			class:      classes[ci],
			degraded:   b[at+1]&1 != 0,
			confidence: math.Float64frombits(le.Uint64(b[at+2:])),
		}
		at += 18
	}
	return out, nil
}

// genTrace writes a gzipped multi-threaded access trace in the
// internal/trace text format, the shape `fsml record` produces: threads
// mixing ALU runs with loads and stores. The sharing pattern — falsely
// shared words of one line (0), private lines (1), or a streaming sweep
// (2) — sets which coherence paths a replay exercises; rng draws the
// ALU run lengths. ops is the approximate record count.
func genTrace(rng *rand.Rand, ops, pattern, threads int) []byte {
	var b strings.Builder
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
	var gz bytes.Buffer
	w, _ := gzip.NewWriterLevel(&gz, gzip.BestSpeed)
	_, _ = w.Write([]byte(b.String()))
	_ = w.Close()
	return gz.Bytes()
}
