package tsdb

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseExpr holds the parser to the reference copy in
// query_ref_test.go: the same AST by reflect.DeepEqual, or the same error.
func FuzzParseExpr(f *testing.F) {
	for _, expr := range goldenExprs() {
		f.Add(expr)
	}
	for _, expr := range goldenInvalid {
		f.Add(expr)
	}
	f.Fuzz(func(t *testing.T, in string) {
		got, gotErr := ParseExpr(in)
		want, wantErr := refParseExpr(in)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("ParseExpr(%q) error %v, reference %v", in, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseExpr(%q) = %#v, reference %#v", in, got, want)
		}
	})
}

// FuzzParseExposition checks the text-exposition parser never panics and
// that everything it accepts survives a write→parse round trip: the same
// label sets in the same order, and the same samples.
func FuzzParseExposition(f *testing.F) {
	f.Add("cpu_usage{env=\"e1\"} 42.5 1000\n")
	f.Add("m 1\n# comment\n\nm2{a=\"b\",c=\"d\"} 3 4\n")
	f.Add("{} 1")
	f.Add("name{unterminated 5")
	f.Add("x nan")
	f.Add("x 1 2 3")
	f.Add("q{env=\"tb}1/fw\",sut=\"a\\\"b\\\\c\\nd\"} 0.5 9 # {request_id=\"x\"} 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		series, err := ParseExposition(strings.NewReader(input), 7)
		if err != nil {
			return
		}
		var b strings.Builder
		if err := WriteExposition(&b, series); err != nil {
			t.Fatalf("accepted input failed to re-serialize: %v", err)
		}
		again, err := ParseExposition(strings.NewReader(b.String()), 7)
		if err != nil {
			t.Fatalf("round trip failed to parse: %v\noriginal: %q\nwritten: %q", err, input, b.String())
		}
		if len(again) != len(series) {
			t.Fatalf("round trip changed series count: %d -> %d\nwritten: %q", len(series), len(again), b.String())
		}
		for i := range series {
			if !reflect.DeepEqual(again[i].Labels, series[i].Labels) {
				t.Fatalf("round trip changed labels: %q -> %q\nwritten: %q", series[i].Labels, again[i].Labels, b.String())
			}
			if len(again[i].Samples) != len(series[i].Samples) {
				t.Fatalf("round trip changed sample count of %q: %d -> %d", series[i].Labels, len(series[i].Samples), len(again[i].Samples))
			}
		}
	})
}
