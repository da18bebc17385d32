package main

import (
	"strings"
	"testing"
)

func TestNormalizeName(t *testing.T) {
	cases := map[string]string{
		"BenchmarkServerThroughput-8":  "BenchmarkServerThroughput",
		"BenchmarkServerThroughput":    "BenchmarkServerThroughput",
		"BenchmarkINPRoundTrip/json-1": "BenchmarkINPRoundTrip/json",
		// Go rewrites spaces in sub-benchmark names to underscores; the
		// snapshot keeps the readable form. Both normalize the same.
		"BenchmarkAblationAdaptationCache/cache-off (raw FindPath, compiled index)":   "BenchmarkAblationAdaptationCache/cache-off_(raw_FindPath,_compiled_index)",
		"BenchmarkAblationAdaptationCache/cache-off_(raw_FindPath,_compiled_index)-1": "BenchmarkAblationAdaptationCache/cache-off_(raw_FindPath,_compiled_index)",
		// A trailing -word is part of the name, not a GOMAXPROCS suffix.
		"BenchmarkMobileCodeDeployment/pad-direct": "BenchmarkMobileCodeDeployment/pad-direct",
	}
	for in, want := range cases {
		if got := normalizeName(in); got != want {
			t.Errorf("normalizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseBenchOutput(t *testing.T) {
	const out = `goos: linux
goarch: amd64
pkg: fractal/internal/proxy
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkServerThroughput-1   	  156112	     14987 ns/op	    1272 B/op	      29 allocs/op
BenchmarkINPRoundTrip/json-1  	  171124	      6997 ns/op	    1872 B/op	       9 allocs/op
BenchmarkVaryEncodeHot-1      	      82	  28981180 ns/op	 357.96 MB/s	 1467266 B/op	      75 allocs/op
BenchmarkNoAllocsCol-1        	  100000	      1000 ns/op
PASS
ok  	fractal/internal/proxy	12.3s
`
	got, err := parseBenchOutput(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(got), got)
	}
	if got[0].Name != "BenchmarkServerThroughput-1" || got[0].NsPerOp != 14987 || got[0].BytesPerOp != 1272 || got[0].AllocsPerOp != 29 || !got[0].HasAllocs {
		t.Errorf("result 0 = %+v", got[0])
	}
	// The MB/s column must not shift the B/op and allocs/op parse.
	if got[2].NsPerOp != 28981180 || got[2].BytesPerOp != 1467266 || got[2].AllocsPerOp != 75 {
		t.Errorf("result 2 = %+v", got[2])
	}
	if got[3].HasAllocs {
		t.Errorf("result 3 should have no allocs column: %+v", got[3])
	}

	if _, err := parseBenchOutput(strings.NewReader("BenchmarkBroken-1  10  abc ns/op\n")); err == nil {
		t.Error("malformed value accepted")
	}
}

func TestCheck(t *testing.T) {
	base := benchEntry{Name: "BenchmarkEncode/gzip", NsPerOp: 1000, BytesPerOp: 60000, AllocsPerOp: 2}
	cases := []struct {
		name string
		r    result
		want string // "ok" or a prefix of the failure
	}{
		{"at snapshot", result{NsPerOp: 1000, BytesPerOp: 60000, AllocsPerOp: 2, HasAllocs: true}, "ok"},
		{"B/op at the bound", result{NsPerOp: 1000, BytesPerOp: 90000, AllocsPerOp: 2, HasAllocs: true}, "ok"},
		// Same alloc count, but each allocation is big: a pool that stopped
		// pooling and now builds its engine per call.
		{"B/op past the bound", result{NsPerOp: 1000, BytesPerOp: 90001, AllocsPerOp: 2, HasAllocs: true}, "FAIL B/op"},
		{"one more alloc", result{NsPerOp: 1000, BytesPerOp: 60000, AllocsPerOp: 3, HasAllocs: true}, "FAIL allocs/op"},
		{"slow", result{NsPerOp: 2001, BytesPerOp: 60000, AllocsPerOp: 2, HasAllocs: true}, "FAIL ns/op"},
		{"no -benchmem columns", result{NsPerOp: 1000}, "ok"},
	}
	for _, c := range cases {
		if got := check(c.r, base, 2.0); !strings.HasPrefix(got, c.want) {
			t.Errorf("%s: check = %q, want %q", c.name, got, c.want)
		}
	}
}
