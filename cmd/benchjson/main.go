// Command benchjson runs the tier-1 hot-path benchmark set and writes
// the results as machine-readable JSON (BENCH_hotpath.json), so every PR
// can diff its numbers against the committed trajectory instead of
// quoting ns/op in prose. It shells out to `go test -bench` with
// -benchmem, parses the standard benchmark output format, and records
// name, iterations, ns/op, B/op, allocs/op and MB/s per benchmark plus
// the run's platform metadata.
//
// With -require-zero, any matching benchmark reporting a non-zero
// allocs/op fails the run — the CI allocation gate for the slot codec
// and the rtnet steady-state loop.
//
//	go run ./cmd/benchjson -out BENCH_hotpath.json
//	go run ./cmd/benchjson -bench 'SlotCodec|RTNetLoopback' -require-zero '.' -out /dev/null
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark line.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      int64   `json:"b_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MBPerS      float64 `json:"mb_per_s,omitempty"`
	// Metrics holds the benchmark's own b.ReportMetric figures by unit,
	// such as states/s and allocs/state.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the file layout of BENCH_hotpath.json.
type Report struct {
	Generated  string   `json:"generated"`
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	CPU        string   `json:"cpu,omitempty"`
	NumCPU     int      `json:"num_cpu,omitempty"`
	Command    string   `json:"command"`
	Benchmarks []Result `json:"benchmarks"`
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkFoo/sub-8  1000  123.4 ns/op  45.6 MB/s  12 B/op  3 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

// parseBench parses benchmark output; the cpu: line, if present, is
// returned separately.
func parseBench(out string) (results []Result, cpu string) {
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "cpu:"); ok {
			cpu = strings.TrimSpace(rest)
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		r := Result{Name: m[1]}
		r.Iterations, _ = strconv.ParseInt(m[2], 10, 64)
		r.NsPerOp, _ = strconv.ParseFloat(m[3], 64)
		fields := strings.Fields(m[4])
		for i := 0; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "MB/s":
				r.MBPerS, _ = strconv.ParseFloat(val, 64)
			case "B/op":
				r.BPerOp, _ = strconv.ParseInt(val, 10, 64)
			case "allocs/op":
				r.AllocsPerOp, _ = strconv.ParseInt(val, 10, 64)
			default:
				if f, err := strconv.ParseFloat(val, 64); err == nil {
					if r.Metrics == nil {
						r.Metrics = make(map[string]float64)
					}
					r.Metrics[unit] = f
				}
			}
		}
		results = append(results, r)
	}
	return results, cpu
}

func main() {
	out := flag.String("out", "BENCH_hotpath.json", "output file ('-' for stdout)")
	bench := flag.String("bench", "AblationCodecPath|AblationInterpVsCodegen|CompiledVsTreeWalk|RTNetLoopback|RTNetReusePort|AblationChecksums|Sum8|Inet16|TimerChurn|AggregateInto|ObsCounterAdd|ObsHistObserve|ObsRingRecord|ObsGaugeSet|VerifyStates|SessionHandshake|SessionBeatTick|SessionGateData|SessionSnapshotAppend",
		"benchmark regexp passed to go test -bench")
	benchtime := flag.String("benchtime", "", "go test -benchtime (e.g. 2s, 30000x); empty for default")
	pkgsFlag := flag.String("pkg", ".,./internal/rtnet,./internal/checksum,./internal/timerwheel,./internal/harness,./internal/obs,./internal/verify,./internal/session", "comma-separated packages to benchmark")
	requireZero := flag.String("require-zero", "", "regexp: matching benchmarks must report 0 allocs/op")
	flag.Parse()

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem"}
	if *benchtime != "" {
		args = append(args, "-benchtime", *benchtime)
	}
	pkgs := strings.Split(*pkgsFlag, ",")
	args = append(args, pkgs...)

	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: go %s: %v\n", strings.Join(args, " "), err)
		os.Exit(1)
	}
	os.Stderr.Write(raw) // keep the human-readable output visible in CI logs

	results, cpu := parseBench(string(raw))
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results parsed")
		os.Exit(1)
	}

	if *requireZero != "" {
		re, err := regexp.Compile(*requireZero)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: -require-zero: %v\n", err)
			os.Exit(1)
		}
		matched, bad := 0, 0
		for _, r := range results {
			if !re.MatchString(r.Name) {
				continue
			}
			matched++
			if r.AllocsPerOp != 0 {
				fmt.Fprintf(os.Stderr, "benchjson: %s reports %d allocs/op (want 0)\n", r.Name, r.AllocsPerOp)
				bad++
			}
		}
		// A gate that matches nothing gates nothing: fail loudly so a
		// renamed benchmark cannot silently disarm the allocation check.
		if matched == 0 {
			fmt.Fprintf(os.Stderr, "benchjson: -require-zero %q matched no benchmark results\n", *requireZero)
			os.Exit(1)
		}
		if bad > 0 {
			os.Exit(1)
		}
	}

	rep := Report{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		CPU:        cpu,
		NumCPU:     runtime.NumCPU(),
		Command:    "go " + strings.Join(args, " "),
		Benchmarks: results,
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(results), *out)
}
