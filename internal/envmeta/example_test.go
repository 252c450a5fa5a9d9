package envmeta_test

import (
	"fmt"

	"env2vec/internal/envmeta"
)

func ExampleSchema() {
	schema := envmeta.NewSchema()
	seen := envmeta.Environment{Testbed: "Testbed15", SUT: "SUT_DB", Testcase: "Regression", Build: "S10"}
	schema.Observe(seen)
	schema.Freeze()

	// A new build on the same testbed keeps every other component id and
	// falls back to <unk> only for the unseen value.
	next := envmeta.Environment{Testbed: "Testbed15", SUT: "SUT_DB", Testcase: "Regression", Build: "S11"}
	ids := schema.Encode(next)
	fmt.Printf("testbed=%d sut=%d testcase=%d build=%d\n", ids[0], ids[1], ids[2], ids[3])
	// Output: testbed=1 sut=1 testcase=1 build=0
}

func ExampleEnvironment_BuildType() {
	e := envmeta.Environment{Build: "D02"}
	fmt.Println(e.BuildType())
	// Output: D
}
