package main

import "testing"

const sampleOutput = `goos: linux
goarch: amd64
pkg: protodsl
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkAblationCodecPath/slot-append-encode    	10080992	       122.7 ns/op	       0 B/op	       0 allocs/op
BenchmarkAblationCodecPath/layout-decode         	 1987662	       609.9 ns/op	    1472 B/op	       4 allocs/op
BenchmarkRTNetLoopback    	   30000	      5344 ns/op	  95.80 MB/s	       9 B/op	       0 allocs/op
BenchmarkVerifyStates/workers=1-2         	      10	   9869721 ns/op	         1.936 allocs/state	    159163 states/s	  983026 B/op	    2997 allocs/op
PASS
ok  	protodsl	12.3s
`

func TestParseBench(t *testing.T) {
	results, cpu := parseBench(sampleOutput)
	if cpu != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Fatalf("cpu = %q", cpu)
	}
	if len(results) != 4 {
		t.Fatalf("parsed %d results, want 4", len(results))
	}
	r := results[0]
	if r.Name != "BenchmarkAblationCodecPath/slot-append-encode" ||
		r.Iterations != 10080992 || r.NsPerOp != 122.7 || r.BPerOp != 0 || r.AllocsPerOp != 0 {
		t.Fatalf("first result: %+v", r)
	}
	if r := results[1]; r.BPerOp != 1472 || r.AllocsPerOp != 4 {
		t.Fatalf("second result: %+v", r)
	}
	if r := results[2]; r.MBPerS != 95.80 || r.NsPerOp != 5344 || r.AllocsPerOp != 0 || r.Metrics != nil {
		t.Fatalf("third result: %+v", r)
	}
	if r := results[3]; r.AllocsPerOp != 2997 || r.BPerOp != 983026 ||
		r.Metrics["allocs/state"] != 1.936 || r.Metrics["states/s"] != 159163 || len(r.Metrics) != 2 {
		t.Fatalf("fourth result: %+v", r)
	}
}

func TestParseBenchEmpty(t *testing.T) {
	results, _ := parseBench("PASS\nok \tprotodsl\t0.1s\n")
	if len(results) != 0 {
		t.Fatalf("parsed %d results from non-benchmark output", len(results))
	}
}
