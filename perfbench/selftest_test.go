package main

// Self-test of the benchmark's own output. It runs each workload briefly
// through perfbench/run.sh, untraced and traced, and checks that the
// last stdout line is the result object the benchmark promises:
// exactly the keys correct/attempted/failed/metrics, and every
// metric BENCHMARK.json names for that mode present exactly once, with
// its unit and a finite value.
//
//	cd perfbench && go test -run TestOutputMatchesBenchmarkJSON -timeout 20m

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

type benchSpec struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark end to end")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			want := map[string]string{}
			if trace == "0" {
				for _, m := range spec.EndToEnd {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range spec.PerLayer {
					want[m.Name] = m.Unit
				}
			}
			t.Run(fmt.Sprintf("%s/trace%s", w.Name, trace), func(t *testing.T) {
				args := append(append([]string{}, spec.Command[1:]...),
					"--workload", w.Name, "--seed", "1", "--seconds", "2", "--trace", trace)
				cmd := exec.Command(spec.Command[0], args...)
				cmd.Dir = root
				var stdout, stderr bytes.Buffer
				cmd.Stdout, cmd.Stderr = &stdout, &stderr
				if err := cmd.Run(); err != nil {
					t.Fatalf("%v\n%s", err, tail(stderr.String()))
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				checkResultLine(t, []byte(lines[len(lines)-1]), want)
			})
		}
	}
}

// TestFailsWithoutProgram runs the benchmark in a directory that holds
// only BENCHMARK.json and perfbench/: it must fail without printing a
// result.
func TestFailsWithoutProgram(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := exec.Command("cp", "-r", filepath.Join(root, "BENCHMARK.json"), filepath.Join(root, "perfbench"), dir).Run(); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "serve-light", "--seed", "1", "--seconds", "2", "--trace", "0")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatal("benchmark succeeded without the program")
	}
	if bytes.Contains(out, []byte(`"metrics"`)) {
		t.Fatalf("benchmark printed a result without the program: %s", out)
	}
}

// checkResultLine decodes the result object token by token, so a
// duplicated key is caught instead of silently overwritten.
func checkResultLine(t *testing.T, line []byte, want map[string]string) {
	t.Helper()
	var top map[string]json.RawMessage
	if err := json.Unmarshal(line, &top); err != nil {
		t.Fatalf("last line is not a JSON object: %v: %s", err, line)
	}
	if len(top) != 4 || top["correct"] == nil || top["attempted"] == nil || top["failed"] == nil || top["metrics"] == nil {
		t.Fatalf("result keys are not exactly correct/attempted/failed/metrics: %s", line)
	}
	var attempted, failed int
	if err := json.Unmarshal(top["attempted"], &attempted); err != nil || attempted < 1 {
		t.Errorf("attempted = %s, want a whole number >= 1", top["attempted"])
	}
	if err := json.Unmarshal(top["failed"], &failed); err != nil || failed < 0 {
		t.Errorf("failed = %s, want a whole number", top["failed"])
	}
	dec := json.NewDecoder(bytes.NewReader(top["metrics"]))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("metrics is not an object: %s", top["metrics"])
	}
	seen := map[string]int{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		name := tok.(string)
		seen[name]++
		var m struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		}
		if err := dec.Decode(&m); err != nil {
			t.Fatalf("metric %s: %v", name, err)
		}
		unit, ok := want[name]
		switch {
		case !ok:
			t.Errorf("metric %s is not named in BENCHMARK.json for this mode", name)
		case m.Unit != unit:
			t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
		if m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0) {
			t.Errorf("metric %s: value is missing or not finite", name)
		}
	}
	for name := range want {
		if seen[name] != 1 {
			t.Errorf("metric %s appears %d times, want exactly once", name, seen[name])
		}
	}
}

func tail(s string) string {
	if len(s) > 4000 {
		return s[len(s)-4000:]
	}
	return s
}
