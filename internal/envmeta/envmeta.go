// Package envmeta models the environment metadata (EM) from Table 1 of the
// paper: the stack-position taxonomy (hardware → virtualization → OS →
// application → test case), the representative four-feature environment
// tuple <Testbed, SUT, Testcase, Build> used by the model, and the
// vocabularies that map metadata values to embedding-table ids (with id 0
// reserved for <unk>, mirroring NLP-style unknown handling).
package envmeta

import (
	"fmt"
	"sort"
	"strings"
)

// Layer identifies the position of a metadata field in the stack (Table 1
// columns).
type Layer int

// Stack layers in Table 1 order.
const (
	Hardware Layer = iota
	Virtualization
	OperatingSystem
	Application
	TestCase
)

// String implements fmt.Stringer.
func (l Layer) String() string {
	switch l {
	case Hardware:
		return "hardware"
	case Virtualization:
		return "virtualization"
	case OperatingSystem:
		return "os"
	case Application:
		return "application"
	case TestCase:
		return "testcase"
	}
	return fmt.Sprintf("Layer(%d)", int(l))
}

// Record is a full environment-metadata record: field name → value string.
// Values may be numeric ("2.6") or textual ("ESXi 6.5"); the record is what
// gets attached to the Prometheus service-discovery entry in workflow
// step (1).
type Record map[string]string

// String renders the record deterministically (sorted by field).
func (r Record) String() string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + r[k]
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// Environment is the representative tuple <Testbed_ID, SUT_Mod,
// Testcase_ID, Build_vers> the paper uses to abstract an environment (§3.1).
type Environment struct {
	Testbed  string
	SUT      string
	Testcase string
	Build    string
}

// String implements fmt.Stringer in the paper's notation.
func (e Environment) String() string {
	return "<" + e.Testbed + "," + e.SUT + "," + e.Testcase + "," + e.Build + ">"
}

// Append appends what String returns, for a caller that only hashes, looks
// up or copies the rendering and so needs no string of it.
func (e Environment) Append(dst []byte) []byte {
	dst = append(append(dst, '<'), e.Testbed...)
	dst = append(append(dst, ','), e.SUT...)
	dst = append(append(dst, ','), e.Testcase...)
	dst = append(append(dst, ','), e.Build...)
	return append(dst, '>')
}

// Features returns the tuple as an ordered value slice matching
// FeatureNames.
func (e Environment) Features() []string {
	return []string{e.Testbed, e.SUT, e.Testcase, e.Build}
}

// FeatureNames are the canonical per-feature embedding-table names, in the
// order used throughout the system.
func FeatureNames() []string { return []string{"testbed", "sut", "testcase", "build"} }

// NumFeatures is the arity of the environment tuple.
const NumFeatures = 4

// BuildType extracts the build family (leading alphabetic prefix) from a
// build version like "S10" or "D02"; Figure 6 clusters environments by this
// value. An empty or non-alphabetic-prefixed build yields "".
func (e Environment) BuildType() string {
	i := 0
	for i < len(e.Build) && isAlpha(e.Build[i]) {
		i++
	}
	return e.Build[:i]
}

func isAlpha(b byte) bool { return (b >= 'a' && b <= 'z') || (b >= 'A' && b <= 'Z') }

// Vocabulary maps metadata value strings to dense integer ids. Id 0 is
// reserved for unknown values; known values start at 1.
type Vocabulary struct {
	ids    map[string]int
	values []string // values[i] is the string for id i+1
	frozen bool
}

// NewVocabulary returns an empty, growable vocabulary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{ids: make(map[string]int)}
}

// UnknownID is the id of the reserved <unk> entry.
const UnknownID = 0

// Add inserts v (if absent) and returns its id. Adding to a frozen
// vocabulary returns the existing id or UnknownID.
func (v *Vocabulary) Add(val string) int {
	if id, ok := v.ids[val]; ok {
		return id
	}
	if v.frozen {
		return UnknownID
	}
	id := len(v.values) + 1
	v.ids[val] = id
	v.values = append(v.values, val)
	return id
}

// Lookup returns the id for val, or UnknownID when absent.
func (v *Vocabulary) Lookup(val string) int {
	if id, ok := v.ids[val]; ok {
		return id
	}
	return UnknownID
}

// Size returns the number of known values (excluding <unk>).
func (v *Vocabulary) Size() int { return len(v.values) }

// Freeze stops the vocabulary from growing; lookups of new values return
// UnknownID afterwards. This is applied after training-set construction so
// the test set exercises the <unk> path exactly as at inference time.
func (v *Vocabulary) Freeze() { v.frozen = true }

// Values returns the known values in id order.
func (v *Vocabulary) Values() []string { return append([]string(nil), v.values...) }

// Schema owns one vocabulary per environment feature and encodes
// Environment tuples into the id slices consumed by embedding lookups.
type Schema struct {
	Vocabs [NumFeatures]*Vocabulary
}

// NewSchema returns a schema with empty vocabularies.
func NewSchema() *Schema {
	s := &Schema{}
	for i := range s.Vocabs {
		s.Vocabs[i] = NewVocabulary()
	}
	return s
}

// Observe adds all of the environment's feature values to the vocabularies
// and returns their ids.
func (s *Schema) Observe(e Environment) [NumFeatures]int {
	var ids [NumFeatures]int
	for i, val := range e.Features() {
		ids[i] = s.Vocabs[i].Add(val)
	}
	return ids
}

// Encode maps the environment to ids without growing vocabularies; unseen
// values map to UnknownID.
func (s *Schema) Encode(e Environment) [NumFeatures]int {
	var ids [NumFeatures]int
	for i, val := range e.Features() {
		ids[i] = s.Vocabs[i].Lookup(val)
	}
	return ids
}

// Freeze freezes all vocabularies.
func (s *Schema) Freeze() {
	for _, v := range s.Vocabs {
		v.Freeze()
	}
}

// Sizes returns the per-feature vocabulary sizes.
func (s *Schema) Sizes() [NumFeatures]int {
	var out [NumFeatures]int
	for i, v := range s.Vocabs {
		out[i] = v.Size()
	}
	return out
}
