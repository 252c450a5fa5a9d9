package experiments

import (
	"fmt"
	"sort"
	"testing"
)

// TestIntegrationTable4MediumScale runs the KDN study at a reduced but
// meaningful scale (1 seed, full training regime) and prints the table; it
// is the canary for the Table 4 comparison shape. Skipped under -short.
func TestIntegrationTable4MediumScale(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	opts := DefaultTable4Options()
	opts.Seeds = 1
	opts.SkipSVR = true
	// A reduced (but same-shaped) budget keeps the canary to ~41 s on a
	// 2-vCPU Xeon KVM guest (go1.24); cmd/kdnbench runs the full regime.
	opts.Epochs = 150
	opts.Batch = 32
	opts.LR = 0.002
	res, err := RunTable4(opts)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(RenderTable4(res))
}

// TestIntegrationTelecomDefaultScale runs the full telecom study at the
// evaluation scale and prints Tables 5/6 and the Figure 3 summary.
// Skipped under -short.
func TestIntegrationTelecomDefaultScale(t *testing.T) {
	if testing.Short() {
		t.Skip("long")
	}
	opts := DefaultTelecomOptions()
	opts.IncludeSlow = false
	lab := NewLab(opts)
	t5 := lab.RunTable5()
	fmt.Println("=== Table 5 ===")
	fmt.Println(RenderTable5(t5))
	t6 := lab.RunTable6()
	fmt.Println("=== Table 6 ===")
	fmt.Println(RenderTable5(t6))
	f34 := lab.RunFigure34()
	fmt.Println("=== Fig3 summary ===")
	for _, m := range sortedKeys(f34.Summary) {
		fmt.Printf("%s\n", f34.Summary[m])
	}
	f6, err := lab.RunFigure6()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("fig6 separation %.2f\n", f6.SeparationRatio)
}

// sortedKeys returns map keys in sorted order (generic over string keys).
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
