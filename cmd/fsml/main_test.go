package main

import (
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fsml/internal/core"
	"fsml/internal/dataset"
	"fsml/internal/ensemble"
	"fsml/internal/pmu"
	"fsml/internal/serve"
)

// modelPath lazily trains a quick model once and caches it on disk for
// every CLI test that takes -model.
var (
	modelOnce sync.Once
	modelFile string
	modelErr  error
)

func model(t *testing.T) string {
	t.Helper()
	modelOnce.Do(func() {
		dir, err := os.MkdirTemp("", "fsml-cli-test")
		if err != nil {
			modelErr = err
			return
		}
		modelFile = filepath.Join(dir, "model.json")
		modelErr = cmdTrain([]string{"-quick", "-o", modelFile})
	})
	if modelErr != nil {
		t.Fatal(modelErr)
	}
	return modelFile
}

func TestCmdTrainWritesModel(t *testing.T) {
	path := model(t)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() == 0 {
		t.Errorf("model file is empty")
	}
}

func TestCmdTreeWithModel(t *testing.T) {
	if err := cmdTree([]string{"-model", model(t)}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdClassifyWithModel(t *testing.T) {
	if err := cmdClassify([]string{"-quick", "-model", model(t), "histogram"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdClassify([]string{"-quick", "-model", model(t)}); err == nil {
		t.Errorf("classify without programs accepted")
	}
	if err := cmdClassify([]string{"-quick", "-model", model(t), "no-such"}); err == nil {
		t.Errorf("unknown program accepted")
	}
}

func TestCmdShadow(t *testing.T) {
	if err := cmdShadow([]string{"-threads", "4", "streamcluster"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdShadow([]string{}); err == nil {
		t.Errorf("shadow without a program accepted")
	}
	if err := cmdShadow([]string{"no-such"}); err == nil {
		t.Errorf("unknown program accepted")
	}
	if err := cmdShadow([]string{"-threads", "12", "streamcluster"}); err == nil {
		t.Errorf("12 threads should exceed the tool limit")
	}
}

func TestCmdTrace(t *testing.T) {
	dir := t.TempDir()
	trPath := filepath.Join(dir, "fs.trace")
	content := ""
	for tid := 0; tid < 4; tid++ {
		content += "T" + string(rune('0'+tid)) + " L 0x20000 x2000\n"
		content += "T" + string(rune('0'+tid)) + " S 0x20000 x2000\n"
	}
	if err := os.WriteFile(trPath, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrace([]string{"-model", model(t), "-verify", trPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrace([]string{"-model", model(t)}); err == nil {
		t.Errorf("trace without files accepted")
	}
	if err := cmdTrace([]string{"-model", model(t), filepath.Join(dir, "missing.trace")}); err == nil {
		t.Errorf("missing trace file accepted")
	}
	bad := filepath.Join(dir, "bad.trace")
	os.WriteFile(bad, []byte("garbage\n"), 0o644)
	if err := cmdTrace([]string{"-model", model(t), bad}); err == nil {
		t.Errorf("malformed trace accepted")
	}
}

func TestCmdList(t *testing.T) {
	if err := cmdList(); err != nil {
		t.Fatal(err)
	}
}

func TestCmdPlatformList(t *testing.T) {
	if err := cmdPlatform([]string{}); err != nil {
		t.Fatal(err)
	}
	if err := cmdPlatform([]string{"-quick", "no", "such", "platform"}); err == nil {
		t.Errorf("unknown platform accepted")
	}
}

func TestCmdReproValidation(t *testing.T) {
	if err := cmdRepro([]string{"-quick"}); err == nil {
		t.Errorf("repro without an experiment accepted")
	}
	if err := cmdRepro([]string{"-quick", "tableZZ"}); err == nil {
		t.Errorf("unknown experiment accepted")
	}
	if err := cmdRepro([]string{"-quick", "table1"}); err != nil {
		t.Fatal(err)
	}
}

func TestLoadOrTrainRejectsBadModel(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("not a model"), 0o644)
	if _, err := loadOrTrain(bad, true, 1); err == nil {
		t.Errorf("garbage model accepted")
	}
	if _, err := loadOrTrain(filepath.Join(dir, "missing.json"), true, 1); err == nil {
		t.Errorf("missing model accepted")
	}
}

func TestCmdMeasure(t *testing.T) {
	if err := cmdMeasure([]string{"-threads", "4", "histogram"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdMeasure([]string{}); err == nil {
		t.Errorf("measure without a program accepted")
	}
	if err := cmdMeasure([]string{"no-such"}); err == nil {
		t.Errorf("unknown program accepted")
	}
}

func TestCmdRecordAndReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "hist.trace")
	if err := cmdRecord([]string{"-threads", "2", "-o", path, "histogram"}); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil || info.Size() == 0 {
		t.Fatalf("trace not written: %v", err)
	}
	// The recorded trace must classify through the trace command.
	if err := cmdTrace([]string{"-model", model(t), path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdRecord([]string{}); err == nil {
		t.Errorf("record without a program accepted")
	}
	if err := cmdRecord([]string{"no-such"}); err == nil {
		t.Errorf("unknown program accepted")
	}
}

func TestCmdReport(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "rep.md")
	if err := cmdReport([]string{"-quick", "-model", model(t), "-o", out, "linear_regression"}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(out)
	if err != nil || len(blob) == 0 {
		t.Fatalf("report not written: %v", err)
	}
	jsonOut := filepath.Join(dir, "rep.json")
	if err := cmdReport([]string{"-quick", "-model", model(t), "-json", "-o", jsonOut, "histogram"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdReport([]string{"-quick", "-model", model(t)}); err == nil {
		t.Errorf("report without a program accepted")
	}
	if err := cmdReport([]string{"-quick", "-model", model(t), "dedup"}); err == nil {
		t.Errorf("dedup should fail with the footnote")
	}
}

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	orig := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		blob, _ := io.ReadAll(r)
		out <- string(blob)
	}()
	runErr := fn()
	os.Stdout = orig
	w.Close()
	printed := <-out
	r.Close()
	if runErr != nil {
		t.Fatal(runErr)
	}
	return printed
}

// TestCmdClassifyPerfOutput pins `fsml classify -perf` stdout for a
// clean capture and one missing most events, classified locally with
// the committed quick detector.
func TestCmdClassifyPerfOutput(t *testing.T) {
	const fixtures = "../../internal/perfingest/testdata/"
	model := filepath.Join("..", "..", "testdata", "quick_detector.golden.json")
	for _, tc := range []struct{ fixture, want string }{
		{"stat_human", fixtures + "stat_human.txt bad-fs   (confidence 1.000, stat format, 18 events)\n" +
			"  unmapped perf events (ignored): LLC-loads, L1-icache-load-misses\n"},
		{"stat_missing", fixtures + "stat_missing.txt good     (confidence 0.578, stat format, 7 events)\n" +
			"  degraded: missing events OFFCORE_REQUESTS.DEMAND.READ_DATA, L2_TRANSACTIONS.FILL, L2_LINES_IN.S_STATE, " +
			"L2_LINES_OUT.DEMAND_CLEAN, SNOOP_RESPONSE.HIT, SNOOP_RESPONSE.HITE, SNOOP_RESPONSE.HITM, " +
			"MEM_LOAD_RETIRED.HIT_LFB, RESOURCE_STALLS.LOAD\n"},
	} {
		got := captureStdout(t, func() error {
			return cmdClassify([]string{"-perf", fixtures + tc.fixture + ".txt", "-model", model})
		})
		if got != tc.want {
			t.Errorf("%s:\ngot  %q\nwant %q", tc.fixture, got, tc.want)
		}
	}
}

// TestCmdClassifyPerfEnsembleDegradedLine pins that a degraded ensemble
// perf verdict names the same events locally and through -server: the
// flagged reads (Table-2 events the capture lacks) and the attributes
// the sample does not carry at all (the remote-DRAM counter).
func TestCmdClassifyPerfEnsembleDegradedLine(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "quick_detector.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	base, err := core.DecodeDetector(raw)
	if err != nil {
		t.Fatal(err)
	}
	// A tiny wide-space ensemble whose committees consult one missing
	// Table-2 event (bad-fs) and the absent remote-DRAM attribute.
	attrs := pmu.FeatureAttrs(pmu.EnsembleEvents())
	spike := map[string]string{"bad-fs": "SNOOP_RESPONSE.HITM", "numa-remote": "MEM_UNCORE_RETIRED.REMOTE_DRAM"}
	d := dataset.New(attrs)
	for _, label := range []string{"good", "bad-fs", "numa-remote"} {
		for i := 0; i < 12; i++ {
			fv := make([]float64, len(attrs))
			for j, a := range attrs {
				fv[j] = 0.01 + float64((i+j)%5)*0.001
				if a == spike[label] {
					fv[j] = 2 + float64(i)*0.01
				}
			}
			if err := d.Add(dataset.Instance{Features: fv, Label: label}); err != nil {
				t.Fatal(err)
			}
		}
	}
	ens, err := ensemble.Train(d, base, ensemble.Spec{Members: 3, Sample: 0.8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := ens.Encode()
	if err != nil {
		t.Fatal(err)
	}
	modelPath := filepath.Join(t.TempDir(), "ensemble.json")
	if err := os.WriteFile(modelPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{
		Train:         func(serve.TrainSpec) (*core.Detector, error) { return base, nil },
		TrainEnsemble: func(serve.EnsembleSpec) (*ensemble.Detector, error) { return ens, nil },
	})
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	capture := "../../internal/perfingest/testdata/stat_missing.txt"
	degradedLine := func(out string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "  degraded: ") {
				return line
			}
		}
		t.Fatalf("no degraded line in:\n%s", out)
		return ""
	}
	local := degradedLine(captureStdout(t, func() error {
		return cmdClassify([]string{"-perf", capture, "-ensemble", "-model", modelPath})
	}))
	remote := degradedLine(captureStdout(t, func() error {
		return cmdClassify([]string{"-perf", capture, "-ensemble", "-server", hs.URL, "-retries", "0"})
	}))
	if local != remote {
		t.Errorf("local and -server degraded lines differ:\nlocal  %q\nserver %q", local, remote)
	}
	for _, ev := range []string{"SNOOP_RESPONSE.HITM", "MEM_UNCORE_RETIRED.REMOTE_DRAM"} {
		if !strings.Contains(local, ev) {
			t.Errorf("degraded line %q does not name %s", local, ev)
		}
	}
}
