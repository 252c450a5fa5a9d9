package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: env2vec/internal/infer
cpu: some CPU
BenchmarkForwardTape_B8W20-8     	    2000	    612345 ns/op	  345678 B/op	    4321 allocs/op
BenchmarkForwardInfer_B8W20-8    	   20000	     52340 ns/op	      96 B/op	       2 allocs/op
BenchmarkNoMem-4                 	    1000	      1234 ns/op
PASS
ok  	env2vec/internal/infer	3.456s
`

func TestConvert(t *testing.T) {
	var out bytes.Buffer
	if err := convert(strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	var got []Result
	if err := json.Unmarshal(out.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	want := []Result{
		{Op: "ForwardTape_B8W20", Iterations: 2000, NsPerOp: 612345, BytesPerOp: 345678, AllocsPerOp: 4321},
		{Op: "ForwardInfer_B8W20", Iterations: 20000, NsPerOp: 52340, BytesPerOp: 96, AllocsPerOp: 2},
		{Op: "NoMem", Iterations: 1000, NsPerOp: 1234, BytesPerOp: -1, AllocsPerOp: -1},
	}
	if len(got) != len(want) {
		t.Fatalf("parsed %d results, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("result %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestCompare(t *testing.T) {
	baseline := []Result{
		{Op: "ForwardInfer_B8W20", NsPerOp: 500000, AllocsPerOp: 1},
		{Op: "ForwardTape_B8W20", NsPerOp: 4000000, AllocsPerOp: 9000},
		{Op: "Removed", NsPerOp: 100, AllocsPerOp: 0},
	}
	cases := []struct {
		name      string
		fresh     []Result
		maxPct    float64
		regressed []string
		wantInLog string
	}{
		{
			name: "improvement passes",
			fresh: []Result{
				{Op: "ForwardInfer_B8W20", NsPerOp: 200000, AllocsPerOp: 1},
				{Op: "ForwardTape_B8W20", NsPerOp: 4100000, AllocsPerOp: 9000},
			},
			maxPct:    10,
			wantInLog: "-60.0%",
		},
		{
			name: "within tolerance passes",
			fresh: []Result{
				{Op: "ForwardInfer_B8W20", NsPerOp: 540000, AllocsPerOp: 1},
			},
			maxPct: 10,
		},
		{
			name: "ns regression fails",
			fresh: []Result{
				{Op: "ForwardInfer_B8W20", NsPerOp: 560000, AllocsPerOp: 1},
			},
			maxPct:    10,
			regressed: []string{"ForwardInfer_B8W20"},
			wantInLog: "REGRESSION",
		},
		{
			name: "alloc growth fails even when ns is fine",
			fresh: []Result{
				{Op: "ForwardInfer_B8W20", NsPerOp: 500000, AllocsPerOp: 3},
			},
			maxPct:    10,
			regressed: []string{"ForwardInfer_B8W20"},
			wantInLog: "allocs 1 -> 3",
		},
		{
			name: "new benchmark never fails the gate",
			fresh: []Result{
				{Op: "ForwardInfer32_B8W20", NsPerOp: 999999999, AllocsPerOp: 50},
			},
			maxPct:    10,
			wantInLog: "no baseline",
		},
		{
			name: "no allocs measured skips the alloc gate",
			fresh: []Result{
				{Op: "Removed", NsPerOp: 100, AllocsPerOp: -1},
			},
			maxPct: 10,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var log bytes.Buffer
			got := compare(baseline, tc.fresh, tc.maxPct, &log)
			if len(got) != len(tc.regressed) {
				t.Fatalf("regressed %v, want %v\nlog:\n%s", got, tc.regressed, log.String())
			}
			for i := range got {
				if got[i] != tc.regressed[i] {
					t.Fatalf("regressed %v, want %v", got, tc.regressed)
				}
			}
			if tc.wantInLog != "" && !strings.Contains(log.String(), tc.wantInLog) {
				t.Fatalf("log missing %q:\n%s", tc.wantInLog, log.String())
			}
		})
	}
}

func TestCompareReportsRemoved(t *testing.T) {
	var log bytes.Buffer
	got := compare([]Result{{Op: "Gone", NsPerOp: 10}}, nil, 10, &log)
	if len(got) != 0 {
		t.Fatalf("removed benchmark must not regress the gate: %v", got)
	}
	if !strings.Contains(log.String(), "baseline only") {
		t.Fatalf("log missing removed-benchmark note:\n%s", log.String())
	}
}

func TestConvertEmptyInput(t *testing.T) {
	var out bytes.Buffer
	if err := convert(strings.NewReader("no benchmarks here\n"), &out); err != nil {
		t.Fatal(err)
	}
	if s := strings.TrimSpace(out.String()); s != "[]" {
		t.Fatalf("want empty array, got %q", s)
	}
}

// convert is parse, then the JSON that main writes.
func convert(in io.Reader, out io.Writer) error {
	results, err := parse(in)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
