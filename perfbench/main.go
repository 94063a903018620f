// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload per invocation, or each in turn with -workload all, and
// prints, as its last line, one JSON object: {"correct", "attempted",
// "failed", "metrics"}.
//
//	perfbench -workload bulk-gbn -seed 1 -seconds 10 -trace 0
//
// The serving workloads drive the unmodified protoserve binary over
// loopback UDP from an in-process load generator built on the same
// public calls protosim -connect makes; verify-gbn runs the model
// checker in child processes. -trace 1 adds a run against the traced
// twin (tracedserve) and reports per-layer metrics instead of the
// end-to-end ones. See README.md for the workloads and every metric.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// params is one invocation's settings.
type params struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	smoke    bool   // tiny sizes, for the smoke test
	bin      string // directory holding protoserve and tracedserve
	work     string // scratch directory for this run
}

// result is what a workload reports.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	checkErrs         []string // failed correctness checks
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// check records a failed correctness check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.checkErrs = append(r.checkErrs, fmt.Sprintf(format, args...))
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "verify-child" {
		if err := verifyChild(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench verify-child:", err)
			os.Exit(1)
		}
		return
	}
	var p params
	var trace int
	flag.StringVar(&p.workload, "workload", "", "bulk-gbn, session-churn, verify-gbn, or all (each in turn, metrics prefixed by workload)")
	flag.Uint64Var(&p.seed, "seed", 1, "input seed")
	flag.Float64Var(&p.seconds, "seconds", 10, "measurement time")
	flag.IntVar(&trace, "trace", 0, "1 = traced run, per-layer metrics")
	flag.BoolVar(&p.smoke, "smoke", false, "tiny sizes (smoke test)")
	flag.StringVar(&p.bin, "bin", ".bench_build", "directory holding the protoserve and tracedserve binaries")
	flag.StringVar(&p.work, "work", ".bench_build/work", "scratch directory")
	flag.Parse()
	p.trace = trace == 1
	workloads := []string{p.workload}
	if p.workload == "all" {
		workloads = []string{"bulk-gbn", "session-churn", "verify-gbn"}
	}
	total := &result{metrics: map[string]metric{}}
	for _, w := range workloads {
		q := p
		q.workload = w
		res, err := run(q)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		for _, e := range res.checkErrs {
			fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed: %s\n", w, e)
		}
		if len(res.checkErrs) > 0 {
			os.Exit(1)
		}
		total.attempted += res.attempted
		total.failed += res.failed
		for n, m := range res.metrics {
			if len(workloads) > 1 {
				n = w + "/" + n
			}
			total.metrics[n] = m
		}
	}
	names := make([]string, 0, len(total.metrics))
	for n := range total.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-36s %14.6g %s\n", n, total.metrics[n].Value, total.metrics[n].Unit)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": total.attempted,
		"failed":    total.failed,
		"metrics":   total.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(p params) (*result, error) {
	if p.workload != "verify-gbn" {
		for _, b := range []string{"protoserve", "tracedserve"} {
			if _, err := os.Stat(filepath.Join(p.bin, b)); err != nil {
				return nil, fmt.Errorf("missing server binary: %w", err)
			}
		}
	}
	if err := os.MkdirAll(p.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(p.work, p.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p.work = dir
	prov := provenance(p)
	steal0, total0 := hostSteal()
	var res *result
	switch p.workload {
	case "bulk-gbn":
		res, err = runBulk(p, prov)
	case "session-churn":
		res, err = runChurn(p, prov)
	case "verify-gbn":
		res, err = runVerify(p, prov)
	default:
		return nil, fmt.Errorf("unknown workload %q (want bulk-gbn, session-churn or verify-gbn)", p.workload)
	}
	if err != nil {
		return nil, err
	}
	steal1, total1 := hostSteal()
	prov["host_steal_share"] = share(float64(steal1-steal0), float64(total1-total0))
	b, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", b)
	return res, nil
}

// provenance describes where and how a result was measured. Workloads
// add their own load settings to it.
func provenance(p params) map[string]any {
	return map[string]any{
		"workload":   p.workload,
		"seed":       p.seed,
		"seconds":    p.seconds,
		"trace":      p.trace,
		"smoke":      p.smoke,
		"cpu":        cpuModel(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"transport":  "loopback UDP",
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// hostSteal reads the cumulative steal and total CPU ticks from
// /proc/stat. On a shared VM, steal is time the host gave this guest's
// CPUs to someone else; a run with a high share measured the host as
// much as the program.
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, _ := strconv.ParseUint(f[i], 10, 64)
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// fsType names the filesystem holding dir; the session store's write
// cost depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x65735546:
		return "fuse"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}

// clientShards is the load generator's event-loop (and socket) count:
// at most the cores the host has, and at most rtnet's default of 4.
func clientShards() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// digest is the SHA-256 of payloads in order, as the traced twin
// computes it over each receiver's Delivered().
func digest(payloads [][]byte) [32]byte {
	h := sha256.New()
	for _, p := range payloads {
		h.Write(p)
	}
	return [32]byte(h.Sum(nil))
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile by linear interpolation between order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail is the highest of p99, p90 and p50 that has at least ten
// samples beyond it, or the maximum when there are fewer than twenty;
// label names which it is.
func tail(xs []float64) (v float64, label string) {
	n := float64(len(xs))
	for _, q := range []float64{0.99, 0.90, 0.50} {
		if n*(1-q) >= 10 {
			return quantile(xs, q), fmt.Sprintf("p%g", q*100)
		}
	}
	return quantile(xs, 1), "max"
}

// timing prints a timing sample's median, p90 and tail with the sample
// count, and returns the median: the end-to-end figure. The p90 and the
// tail are printed but not gated on; their run-to-run spread on this
// host is several times any usable bound (see README.md).
func timing(name string, xs []float64) float64 {
	p50 := median(xs)
	tl, label := tail(xs)
	fmt.Printf("timing %s: p50 %.4g, p90 %.4g, %s %.4g (n=%d)\n", name, p50, quantile(xs, 0.9), label, tl, len(xs))
	return p50
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// share is a/b, 0 when b is 0.
func share(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
