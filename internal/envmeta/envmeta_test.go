package envmeta

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestLayerString(t *testing.T) {
	want := map[Layer]string{
		Hardware: "hardware", Virtualization: "virtualization",
		OperatingSystem: "os", Application: "application", TestCase: "testcase",
	}
	for l, s := range want {
		if l.String() != s {
			t.Fatalf("Layer(%d).String() = %q", int(l), l.String())
		}
	}
	if !strings.Contains(Layer(99).String(), "99") {
		t.Fatalf("unknown layer should include number")
	}
}

func TestRecordString(t *testing.T) {
	r := Record{"kernel": "5.3.7", "cpu_cores": "16"}
	s := r.String()
	if s != "{cpu_cores=16,kernel=5.3.7}" {
		t.Fatalf("String not deterministic/sorted: %q", s)
	}
}

func TestEnvironmentString(t *testing.T) {
	e := Environment{Testbed: "Testbed13", SUT: "SUT_F", Testcase: "Endurance", Build: "S01"}
	if e.String() != "<Testbed13,SUT_F,Endurance,S01>" {
		t.Fatalf("String = %q", e.String())
	}
	// Append is String's rendering as bytes, whatever the fields hold, and
	// what the paper's notation was as a format string.
	for _, e := range []Environment{e, {}, {Testbed: "a,b", SUT: "<c>", Testcase: "%s", Build: "\xff\x00é"}} {
		want := fmt.Sprintf("<%s,%s,%s,%s>", e.Testbed, e.SUT, e.Testcase, e.Build)
		if got := string(e.Append([]byte("x"))); e.String() != want || got != "x"+want {
			t.Fatalf("%#v: String %q, Append %q, want %q", e, e.String(), got, want)
		}
	}
}

func TestBuildType(t *testing.T) {
	cases := map[string]string{"S01": "S", "D12": "D", "Debug3": "Debug", "": "", "1.0.1": ""}
	for build, want := range cases {
		e := Environment{Build: build}
		if got := e.BuildType(); got != want {
			t.Fatalf("BuildType(%q) = %q, want %q", build, got, want)
		}
	}
}

func TestVocabularyAddLookup(t *testing.T) {
	v := NewVocabulary()
	a := v.Add("alpha")
	b := v.Add("beta")
	if a != 1 || b != 2 {
		t.Fatalf("ids should start at 1: %d %d", a, b)
	}
	if v.Add("alpha") != a {
		t.Fatalf("re-add should return same id")
	}
	if v.Lookup("beta") != b || v.Lookup("gamma") != UnknownID {
		t.Fatalf("Lookup wrong")
	}
	if vals := v.Values(); vals[a-1] != "alpha" || vals[b-1] != "beta" {
		t.Fatalf("Values wrong: %v", vals)
	}
	if v.Size() != 2 {
		t.Fatalf("Size = %d", v.Size())
	}
}

func TestVocabularyFreeze(t *testing.T) {
	v := NewVocabulary()
	v.Add("known")
	v.Freeze()
	if v.Add("new") != UnknownID {
		t.Fatalf("frozen vocab must return UnknownID for new values")
	}
	if v.Add("known") != 1 {
		t.Fatalf("frozen vocab must still return existing ids")
	}
	if v.Size() != 1 {
		t.Fatalf("freeze must prevent growth")
	}
}

func TestVocabularyValuesOrder(t *testing.T) {
	v := NewVocabulary()
	v.Add("x")
	v.Add("y")
	vals := v.Values()
	if len(vals) != 2 || vals[0] != "x" || vals[1] != "y" {
		t.Fatalf("Values order wrong: %v", vals)
	}
	vals[0] = "mutated"
	if v.Values()[0] != "x" {
		t.Fatalf("Values must return a copy")
	}
}

func TestSchemaObserveEncodeFreeze(t *testing.T) {
	s := NewSchema()
	e1 := Environment{"tb1", "db", "regression", "S10"}
	e2 := Environment{"tb2", "db", "endurance", "S11"}
	ids1 := s.Observe(e1)
	ids2 := s.Observe(e2)
	if ids1[1] != ids2[1] {
		t.Fatalf("shared SUT should share id")
	}
	if ids1[0] == ids2[0] {
		t.Fatalf("different testbeds should differ")
	}
	s.Freeze()
	unseen := Environment{"tb3", "db", "regression", "B01"}
	enc := s.Encode(unseen)
	if enc[0] != UnknownID || enc[3] != UnknownID {
		t.Fatalf("unseen values must encode to UnknownID: %v", enc)
	}
	if enc[1] != ids1[1] {
		t.Fatalf("seen SUT must keep its id")
	}
	sizes := s.Sizes()
	if sizes[0] != 2 || sizes[1] != 1 || sizes[2] != 2 || sizes[3] != 2 {
		t.Fatalf("sizes wrong: %v", sizes)
	}
}

// Property: Observe then Encode round-trips all feature ids.
func TestSchemaRoundTripProperty(t *testing.T) {
	f := func(tb, sut, tc, build string) bool {
		s := NewSchema()
		e := Environment{tb, sut, tc, build}
		obs := s.Observe(e)
		enc := s.Encode(e)
		return obs == enc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureNames(t *testing.T) {
	names := FeatureNames()
	if len(names) != NumFeatures {
		t.Fatalf("FeatureNames length %d != NumFeatures %d", len(names), NumFeatures)
	}
	e := Environment{"a", "b", "c", "d"}
	if len(e.Features()) != NumFeatures {
		t.Fatalf("Features length mismatch")
	}
}
