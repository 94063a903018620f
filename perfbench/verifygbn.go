package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
	"unsafe"

	"protodsl/internal/dsl"
	"protodsl/internal/verify"
)

// gbnModel is verify-gbn's checker input and the verdict it must
// reproduce exactly.
type gbnModel struct {
	opts        verify.GBNOptions
	states      int
	transitions int
}

func gbnModelFor(smoke bool) gbnModel {
	if smoke {
		return gbnModel{
			opts:   verify.GBNOptions{SeqSpace: 4, Window: 3, Total: 3, Capacity: 2, Lossy: true, Reorder: true},
			states: 729, transitions: 5328,
		}
	}
	return gbnModel{
		opts:   verify.GBNOptions{SeqSpace: 12, Window: 5, Total: 8, Capacity: 3, Lossy: true, Reorder: true},
		states: 235564, transitions: 2695885,
	}
}

// childOut is one checker process's report.
type childOut struct {
	Setup        []float64 `json:"setup_ms"` // compile + build CPU, per repetition
	CompileMS    float64   `json:"compile_ms"`
	BuildMS      float64   `json:"build_ms"`
	ExploreS     float64   `json:"explore_s"`
	States       int       `json:"states"`
	Transitions  int       `json:"transitions"`
	Violations   int       `json:"violations"`
	Truncated    bool      `json:"truncated"`
	DupHits      int       `json:"dup_hits"`
	FrontierPeak int       `json:"frontier_peak"`
	ArenaBytes   int       `json:"arena_bytes"`
	StatesPerS   float64   `json:"states_per_s"`
	Mallocs      uint64    `json:"mallocs"`
	AllocBytes   uint64    `json:"alloc_bytes"`
	GCShare      float64   `json:"gc_cpu_share"`
	PeakRSSMB    float64   `json:"peak_rss_mb"`

	cpu time.Duration // whole child process, filled in by the parent
}

// setupReps is how many times a checker process repeats its set-up.
// One repetition takes well under a millisecond, and its median moves
// by several percent from one process to the next, so verify-gbn also
// starts setupProcs set-up-only processes and reports the median over
// all of its processes.
const setupReps, setupProcs = 101, 41

// threadCPU is the calling OS thread's CPU time, in nanoseconds.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// verifyChild runs in its own process: set-up (dsl.Compile of the ARQ
// spec plus verify.BuildGBN) setupReps times, then, unless -setup-only,
// one exploration, and prints a childOut as JSON. Each set-up is counted
// in the CPU time of the thread doing it, which other tenants' load on a
// shared host moves less than wall time, and starts after a collection,
// so that no collection falls inside it by chance. Allocation shows in
// the figure; the collector's later work does not.
func verifyChild(args []string) error {
	fs := flag.NewFlagSet("verify-child", flag.ContinueOnError)
	smoke := fs.Bool("smoke", false, "tiny model")
	setupOnly := fs.Bool("setup-only", false, "measure set-up and stop")
	if err := fs.Parse(args); err != nil {
		return err
	}
	model := gbnModelFor(*smoke)
	var out childOut
	var compile, build []float64
	var sys *verify.System
	runtime.LockOSThread()
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		c0 := threadCPU()
		if _, _, err := dsl.Compile(dsl.ARQSource); err != nil {
			return err
		}
		c1 := threadCPU()
		var err error
		if sys, err = verify.BuildGBN(model.opts); err != nil {
			return err
		}
		c2 := threadCPU()
		compile = append(compile, ms(c1-c0))
		build = append(build, ms(c2-c1))
		out.Setup = append(out.Setup, ms(c2-c0))
	}
	runtime.UnlockOSThread()
	out.CompileMS, out.BuildMS = median(compile), median(build)
	if *setupOnly {
		return json.NewEncoder(os.Stdout).Encode(out)
	}

	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	metrics.Read(samples)
	gc0, all0 := samples[0].Value.Float64(), samples[1].Value.Float64()
	t := time.Now()
	res, err := verify.Explore(sys, verify.Options{
		Invariants: []verify.Invariant{verify.GBNInvariant(model.opts.SeqSpace)},
		Workers:    runtime.NumCPU(),
	})
	if err != nil {
		return err
	}
	out.ExploreS = time.Since(t).Seconds()
	metrics.Read(samples)
	runtime.ReadMemStats(&m1)
	out.GCShare = share(samples[0].Value.Float64()-gc0, samples[1].Value.Float64()-all0)
	out.Mallocs, out.AllocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	out.States, out.Transitions, out.Violations, out.Truncated = res.States, res.Transitions, len(res.Violations), res.Truncated
	out.DupHits, out.FrontierPeak, out.ArenaBytes = res.Stats.DupHits, res.Stats.FrontierPeak, res.Stats.ArenaBytes
	out.StatesPerS = res.Stats.StatesPerSec
	if out.PeakRSSMB, err = procHWM(os.Getpid()); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// runChild runs one checker process and waits for it.
func runChild(p params, setupOnly bool) (*childOut, error) {
	args := []string{"verify-child", fmt.Sprintf("-smoke=%v", p.smoke), fmt.Sprintf("-setup-only=%v", setupOnly)}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("checker process: %w", err)
	}
	var out childOut
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("checker process output: %w", err)
	}
	out.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	return &out, nil
}

// runVerify is the verify-gbn workload: checker processes, one after
// another, until the time is spent.
func runVerify(p params, prov map[string]any) (*result, error) {
	model := gbnModelFor(p.smoke)
	prov["load"] = map[string]any{"model": fmt.Sprintf("%+v", model.opts), "workers": runtime.NumCPU()}
	fmt.Printf("verify-gbn: BuildGBN%+v, GBNInvariant(%d), workers=%d, one checker process per run\n",
		model.opts, model.opts.SeqSpace, runtime.NumCPU())
	res := &result{}
	checkOne := func(c *childOut) {
		res.attempted++
		ok := c.States == model.states && c.Transitions == model.transitions && c.Violations == 0 && !c.Truncated
		if !ok {
			res.failed++
		}
		res.check(ok, "checker verdict: %d states, %d transitions, %d violations, truncated=%v; want %d, %d, 0, false",
			c.States, c.Transitions, c.Violations, c.Truncated, model.states, model.transitions)
	}
	if p.trace {
		// Nothing inside the checker is traced, so the per-layer figures
		// come from one plain checker process and the overhead is 1.
		tr, err := runChild(p, false)
		if err != nil {
			return nil, err
		}
		checkOne(tr)
		perState := func(v float64) float64 { return share(v, float64(tr.States)) }
		res.set("verify.states", float64(tr.States), "count")
		res.set("verify.transitions", float64(tr.Transitions), "count")
		res.set("verify.dup_hits", float64(tr.DupHits), "count")
		res.set("verify.frontier_peak", float64(tr.FrontierPeak), "count")
		res.set("verify.arena_bytes_per_state", perState(float64(tr.ArenaBytes)), "B")
		res.set("verify.states_per_s", tr.StatesPerS, "1/s")
		res.set("verify.allocs_per_state", perState(float64(tr.Mallocs)), "count")
		res.set("verify.alloc_bytes_per_state", perState(float64(tr.AllocBytes)), "B")
		res.set("verify.gc_cpu_share", tr.GCShare, "share")
		res.set("verify.build_ms", tr.BuildMS, "ms")
		res.set("dsl.compile_ms", tr.CompileMS, "ms")
		res.set("bench.trace_overhead", 1, "x")
		fmt.Printf("verify-gbn: %d states, %d transitions, %.1f allocs/state, explore %.2f s\n",
			tr.States, tr.Transitions, perState(float64(tr.Mallocs)), tr.ExploreS)
		res.finish(true)
		return res, nil
	}

	var setup, wall, rate, cpu, rss []float64
	procs := setupProcs
	if p.smoke {
		procs = 2
	}
	for i := 0; i < procs; i++ {
		c, err := runChild(p, true)
		if err != nil {
			return nil, err
		}
		setup = append(setup, median(c.Setup)/1e3)
	}
	t := time.Now()
	for len(wall) == 0 || time.Since(t).Seconds() < p.seconds {
		c, err := runChild(p, false)
		if err != nil {
			return nil, err
		}
		checkOne(c)
		setup = append(setup, median(c.Setup)/1e3)
		wall = append(wall, c.ExploreS*1e3)
		rate = append(rate, 1/c.ExploreS)
		cpu = append(cpu, ms(c.cpu))
		rss = append(rss, c.PeakRSSMB)
	}
	p50 := timing("checker run ms", wall)
	timing("setup s", setup)
	res.set("setup_s", median(setup), "s")
	res.set("unit_p50_ms", p50, "ms")
	res.set("units_per_s", median(rate), "1/s")
	res.set("cpu_ms_per_unit", median(cpu), "ms")
	res.set("peak_rss_MB", median(rss), "MB")
	res.finish(false)
	return res, nil
}
