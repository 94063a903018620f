package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// benchSpec is the part of BENCHMARK.json the smoke test checks.
type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// runOut is a benchmark run's last output line.
type runOut struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
}

// TestSmoke builds the benchmark and both servers, runs every workload
// at a tiny size, untraced and traced, and checks that each run passes
// its correctness checks and reports exactly the metrics
// BENCHMARK.json names, each with its unit. bulk-gbn is not among
// BENCHMARK.json's workloads (README.md, Steadiness) but is run too.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs servers")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	for pkg, name := range map[string]string{".": "perfbench", "./tracedserve": "tracedserve", "../cmd/protoserve": "protoserve"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(bin, name), pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	run := func(t *testing.T, workload string, seed, trace string) runOut {
		t.Helper()
		cmd := exec.Command(filepath.Join(bin, "perfbench"), "-smoke", "-bin", bin, "-work", t.TempDir(),
			"--workload", workload, "--seed", seed, "--seconds", "1", "--trace", trace)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s trace=%s: %v\n%s", workload, trace, err, stderr.String())
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var out runOut
		if err := json.Unmarshal(lines[len(lines)-1], &out); err != nil {
			t.Fatalf("%s: last line is not the result: %v", workload, err)
		}
		return out
	}
	check := func(t *testing.T, out runOut, want []struct{ Name, Unit string }) {
		t.Helper()
		if !out.Correct || out.Attempted < 1 || out.Failed != 0 {
			t.Errorf("correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
		}
		if len(out.Metrics) != len(want) {
			t.Errorf("%d metrics reported, BENCHMARK.json names %d", len(out.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := out.Metrics[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("metric %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
			}
		}
	}
	workloads := []string{"bulk-gbn"}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	states := map[string]float64{}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			start := time.Now()
			check(t, run(t, w, "1", "0"), spec.EndToEnd)
			traced := run(t, w, "1", "1")
			check(t, traced, spec.PerLayer)
			if w == "verify-gbn" {
				states["1"] = traced.Metrics["verify.states"].Value
				states["2"] = run(t, w, "2", "1").Metrics["verify.states"].Value
			}
			t.Logf("%s: %s", w, time.Since(start).Round(time.Millisecond))
		})
	}
	if states["1"] == 0 || states["1"] != states["2"] {
		t.Errorf("verify.states under seeds 1 and 2: %v; want equal and non-zero", states)
	}
}

// TestSeedChangesInputs checks that the seed reaches the generated
// payloads of both serving workloads.
func TestSeedChangesInputs(t *testing.T) {
	cfg := bulkConfig(true)
	size := cfg.flows * cfg.payloads * cfg.size
	a := fillPayloads(1, 0, cfg, make([]byte, size))
	b := fillPayloads(2, 0, cfg, make([]byte, size))
	again := fillPayloads(1, 0, cfg, make([]byte, size))
	if slices.EqualFunc(a[0], b[0], bytes.Equal) {
		t.Error("bulk-gbn: seeds 1 and 2 generated the same payloads")
	}
	if !slices.EqualFunc(a[0], again[0], bytes.Equal) {
		t.Error("bulk-gbn: seed 1 generated different payloads twice")
	}

	ccfg := churnConfig(true)
	s1 := schedule(1, 0, ccfg, time.Second)
	s2 := schedule(2, 0, ccfg, time.Second)
	if len(s1) == 0 || len(s1) != len(s2) {
		t.Fatalf("session-churn: %d and %d sessions; want the same non-zero count", len(s1), len(s2))
	}
	if slices.EqualFunc(s1[0].payloads, s2[0].payloads, bytes.Equal) || s1[0].due == s2[0].due {
		t.Error("session-churn: seeds 1 and 2 generated the same first session")
	}
}
