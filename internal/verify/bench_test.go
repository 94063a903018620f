package verify

import (
	"fmt"
	"runtime"
	"testing"
)

// benchGBN is the BenchmarkVerifyStates configuration: Go-Back-N n=8
// w=3 t=4 c=2 over lossy reordering channels, 1548 states.
func benchGBN(tb testing.TB) (*System, []Invariant) {
	sys, err := BuildGBN(GBNOptions{SeqSpace: 8, Window: 3, Total: 4, Capacity: 2, Lossy: true, Reorder: true})
	if err != nil {
		tb.Fatal(err)
	}
	return sys, []Invariant{GBNInvariant(8)}
}

// BenchmarkVerifyStates measures the parallel checker's state throughput
// and allocations per state on the benchGBN configuration across worker
// counts. On a single-core machine the workers>1 cases measure
// coordination overhead, not speedup — benchdiff skips cross-machine
// comparison for worker counts above the core count, and
// BENCH_hotpath.json records num_cpu alongside the numbers.
func BenchmarkVerifyStates(b *testing.B) {
	sys, inv := benchGBN(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var states, elapsedNs int64
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for i := 0; i < b.N; i++ {
				res, err := Explore(sys, Options{
					MaxStates:  1 << 20,
					Invariants: inv,
					Workers:    workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Violations) != 0 {
					b.Fatalf("unexpected violations: %d", len(res.Violations))
				}
				states += int64(res.States)
				elapsedNs += res.Stats.Elapsed.Nanoseconds()
			}
			runtime.ReadMemStats(&m1)
			if elapsedNs > 0 {
				b.ReportMetric(float64(states)/(float64(elapsedNs)/1e9), "states/s")
			}
			if states > 0 {
				b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(states), "allocs/state")
			}
		})
	}
}

// TestExploreAllocsPerState pins Explore's allocation rate on the
// benchGBN configuration at one worker: successor generation runs on
// reused buffers and interned messages, so what remains per state is
// the visited table's amortised growth and the per-run set-up.
func TestExploreAllocsPerState(t *testing.T) {
	sys, inv := benchGBN(t)
	var states int
	allocs := testing.AllocsPerRun(3, func() {
		res, err := Explore(sys, Options{MaxStates: 1 << 20, Invariants: inv, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		states = res.States
	})
	if states != 1548 {
		t.Fatalf("States = %d, want 1548", states)
	}
	if perState := allocs / float64(states); perState > 3 {
		t.Errorf("Explore allocates %.2f times per state (%.0f per run), want <= 3", perState, allocs)
	}
}

// BenchmarkVerifyStatesSequential is the reference engine on the same
// configuration, for the §12 comparison table.
func BenchmarkVerifyStatesSequential(b *testing.B) {
	sys, inv := benchGBN(b)
	var states, elapsedNs int64
	for i := 0; i < b.N; i++ {
		res, err := ExploreSequential(sys, Options{MaxStates: 1 << 20, Invariants: inv})
		if err != nil {
			b.Fatal(err)
		}
		states += int64(res.States)
		elapsedNs += res.Stats.Elapsed.Nanoseconds()
	}
	if elapsedNs > 0 {
		b.ReportMetric(float64(states)/(float64(elapsedNs)/1e9), "states/s")
	}
}
