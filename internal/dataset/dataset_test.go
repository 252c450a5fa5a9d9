package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"env2vec/internal/envmeta"
	"env2vec/internal/tensor"
)

func demoSeries() *Series {
	return &Series{
		Env:     envmeta.Environment{Testbed: "tb1", SUT: "db", Testcase: "load", Build: "S01"},
		ChainID: "tb1|db|load",
		Times:   []int64{100, 200, 300, 400, 500},
		CF:      &tensor.Matrix{Rows: 5, Cols: 2, Data: []float64{1, 10, 2, 20, 3, 30, 4, 40, 5, 50}},
		RU:      []float64{0.1, 0.2, 0.3, 0.4, 0.5},
		Anomalous: []bool{
			false, false, true, false, false,
		},
	}
}

func TestSeriesValidate(t *testing.T) {
	s := demoSeries()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := demoSeries()
	bad.RU = bad.RU[:3]
	if bad.Validate() == nil {
		t.Fatalf("CF/RU mismatch should error")
	}
	bad2 := demoSeries()
	bad2.Times = bad2.Times[:2]
	if bad2.Validate() == nil {
		t.Fatalf("times mismatch should error")
	}
	bad3 := demoSeries()
	bad3.Anomalous = bad3.Anomalous[:1]
	if bad3.Validate() == nil {
		t.Fatalf("labels mismatch should error")
	}
}

func TestWindowExamples(t *testing.T) {
	s := demoSeries()
	exs := WindowExamples(s, 2)
	if len(exs) != 3 {
		t.Fatalf("want 3 examples, got %d", len(exs))
	}
	first := exs[0]
	if first.Y != 0.3 || first.Window[0] != 0.1 || first.Window[1] != 0.2 {
		t.Fatalf("window assembly wrong: %+v", first)
	}
	if first.CF[0] != 3 || first.Time != 300 || !first.Anomalous {
		t.Fatalf("aligned fields wrong: %+v", first)
	}
	if len(WindowExamples(s, 10)) != 0 {
		t.Fatalf("too-long window should give no examples")
	}
	zero := WindowExamples(s, 0)
	if len(zero) != 5 || zero[0].Window != nil {
		t.Fatalf("window 0 should keep all steps with nil windows")
	}
}

func TestWindowExamplesNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	WindowExamples(demoSeries(), -1)
}

func TestToBatch(t *testing.T) {
	s := demoSeries()
	schema := envmeta.NewSchema()
	schema.Observe(s.Env)
	exs := WindowExamples(s, 1)
	b := ToBatch(exs, schema)
	if b.Len() != 4 || b.X.Cols != 2 || b.Window.Cols != 1 {
		t.Fatalf("batch shape wrong")
	}
	if len(b.EnvIDs) != envmeta.NumFeatures || b.EnvIDs[0][0] != 1 {
		t.Fatalf("env ids wrong: %v", b.EnvIDs)
	}
	noSchema := ToBatch(exs, nil)
	if noSchema.EnvIDs != nil {
		t.Fatalf("nil schema should skip env ids")
	}
	empty := ToBatch(nil, schema)
	if empty.Len() != 0 {
		t.Fatalf("empty examples should give empty batch")
	}
}

// TestWindowBatchMatchesToBatch: the batch WindowBatch builds straight from
// the series is the one ToBatch builds from the concatenated WindowExamples,
// bit for bit in every field — over several series (one too short to
// contribute, one of another environment the schema has never seen), every
// window from 0 past the longest series, with and without a schema.
func TestWindowBatchMatchesToBatch(t *testing.T) {
	long := demoSeries()
	long.CF = &tensor.Matrix{Rows: 7, Cols: 2, Data: []float64{1, -2, 3, 4, 5, 6, 7, 8, 9, 10, 11, math.Copysign(0, -1), 13, 14}}
	long.RU = []float64{1e-300, -0.5, 7, math.Inf(1), 3, 2, 1}
	long.Times, long.Anomalous = nil, nil
	short := demoSeries()
	short.CF, short.RU, short.Times, short.Anomalous = &tensor.Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}, []float64{9, 8}, nil, nil
	unseen := demoSeries()
	unseen.Env.Testbed = "tb9"
	schema := envmeta.NewSchema()
	schema.Observe(long.Env)
	series := []*Series{long, short, unseen}
	same := func(what string, got, want *tensor.Matrix) {
		t.Helper()
		if (got == nil) != (want == nil) || got != nil && (got.Rows != want.Rows || got.Cols != want.Cols) {
			t.Fatalf("%s: shape %v, want %v", what, got, want)
		}
		if got == nil {
			return
		}
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s element %d: %v, want %v", what, i, got.Data[i], want.Data[i])
			}
		}
	}
	for window := 0; window <= 8; window++ {
		for _, sc := range []*envmeta.Schema{schema, nil} {
			var exs []Example
			for _, s := range series {
				exs = append(exs, WindowExamples(s, window)...)
			}
			want, got := ToBatch(exs, sc), WindowBatch(series, window, sc)
			what := fmt.Sprintf("window %d schema %v", window, sc != nil)
			same(what+" X", got.X, want.X)
			same(what+" Y", got.Y, want.Y)
			same(what+" Window", got.Window, want.Window)
			if !reflect.DeepEqual(got.EnvIDs, want.EnvIDs) {
				t.Fatalf("%s EnvIDs %v, want %v", what, got.EnvIDs, want.EnvIDs)
			}
		}
	}
}

func TestDatasetHelpers(t *testing.T) {
	s1 := demoSeries()
	s2 := demoSeries()
	s2.BuildIndex = 1
	other := demoSeries()
	other.ChainID = "tb2|db|load"
	d := &Dataset{FeatureNames: []string{"a", "b"}, Series: []*Series{s1, s2, other}}
	examples := 0
	for _, s := range d.Series {
		examples += len(WindowExamples(s, 2))
	}
	if examples != 9 {
		t.Fatalf("%d window examples, want 9", examples)
	}
}

func TestStandardizer(t *testing.T) {
	x := &tensor.Matrix{Rows: 3, Cols: 2, Data: []float64{1, 5, 3, 5, 5, 5}}
	std := FitStandardizer(x.Clone())
	if std.Mean[0] != 3 || std.Mean[1] != 5 {
		t.Fatalf("mean wrong: %v", std.Mean)
	}
	if std.Std[1] != 1 {
		t.Fatalf("constant column must get Std 1, got %v", std.Std[1])
	}
	y := x.Clone()
	std.Apply(y)
	// Standardized first column has mean 0.
	if math.Abs(y.At(0, 0)+y.At(1, 0)+y.At(2, 0)) > 1e-12 {
		t.Fatalf("not centered: %v", y)
	}
	// Constant column centered to zero.
	if y.At(0, 1) != 0 {
		t.Fatalf("constant column should center to 0, got %v", y.At(0, 1))
	}
}

func TestStandardizerDimPanics(t *testing.T) {
	std := FitStandardizer(tensor.New(2, 3))
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	std.Apply(tensor.New(2, 4))
}

func TestSplitExamplesAndStandardize(t *testing.T) {
	s := demoSeries()
	exs := WindowExamples(s, 1)
	split, err := SplitExamples(exs, 2, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if split.Train.Len() != 2 || split.Val.Len() != 1 || split.Test.Len() != 1 {
		t.Fatalf("split sizes wrong")
	}
	if _, err := SplitExamples(exs, 3, 3, 3, nil); err == nil {
		t.Fatalf("oversized split should error")
	}
	std := StandardizeSplit(split)
	if len(std.Mean) != 2 {
		t.Fatalf("standardizer not fitted")
	}
	// Train columns are centered.
	if math.Abs(split.Train.X.At(0, 0)+split.Train.X.At(1, 0)) > 1e-12 {
		t.Fatalf("train not centered")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := demoSeries()
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, s, []string{"f1", "f2"}); err != nil {
		t.Fatal(err)
	}
	got, names, err := ReadSeriesCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "f1" {
		t.Fatalf("feature names wrong: %v", names)
	}
	if got.Env != s.Env || got.ChainID != s.ChainID {
		t.Fatalf("env/chain wrong: %+v", got)
	}
	if !got.CF.SameShape(s.CF) || !slices.Equal(got.CF.Data, s.CF.Data) {
		t.Fatalf("CF wrong")
	}
	for i := range s.RU {
		if got.RU[i] != s.RU[i] || got.Times[i] != s.Times[i] || got.Anomalous[i] != s.Anomalous[i] {
			t.Fatalf("row %d wrong", i)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	s := demoSeries()
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, s, []string{"onlyone"}); err == nil {
		t.Fatalf("wrong feature-name count should error")
	}
	if _, _, err := ReadSeriesCSV(bytes.NewReader(nil)); err == nil {
		t.Fatalf("empty csv should error")
	}
	if _, _, err := ReadSeriesCSV(bytes.NewBufferString("time,testbed\n")); err == nil {
		t.Fatalf("short header should error")
	}
	badRU := "time,testbed,sut,testcase,build,f1,ru,anomalous\n1,a,b,c,d,1.0,notanumber,0\n"
	if _, _, err := ReadSeriesCSV(bytes.NewBufferString(badRU)); err == nil {
		t.Fatalf("bad ru should error")
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	s := demoSeries()
	path := t.TempDir() + "/series.csv"
	if err := SaveSeriesFile(path, s, []string{"f1", "f2"}); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadSeriesFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != s.Len() {
		t.Fatalf("length mismatch after file round trip")
	}
}

// Property: every example's window is exactly the RU values preceding its
// target position, for random series and window lengths.
func TestWindowAlignmentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		w := rng.Intn(n)
		s := &Series{
			Env: envmeta.Environment{Testbed: "t", SUT: "s", Testcase: "c", Build: "B1"},
			CF:  tensor.New(n, 1),
			RU:  make([]float64, n),
		}
		for i := range s.RU {
			s.RU[i] = rng.Float64()
			s.CF.Set(i, 0, float64(i))
		}
		exs := WindowExamples(s, w)
		if len(exs) != n-w {
			return false
		}
		for k, ex := range exs {
			p := w + k
			if ex.Y != s.RU[p] || ex.CF[0] != float64(p) {
				return false
			}
			for j := 0; j < w; j++ {
				if ex.Window[j] != s.RU[p-w+j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
