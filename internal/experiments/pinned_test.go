package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"testing"
)

var updatePins = flag.Bool("update", false, "rewrite testdata/quick_pinned.json from this build")

// TestQuickScienceNumbersPinned holds every MAE, A_T and alarm count that
// TestRunTable4Quick, TestLabFigure34, TestLabTable5 and TestLabTable6
// compute to the values in testdata/quick_pinned.json, at 1e-9 relative. The
// shape tests say a table is well formed; this says the numbers in it did
// not move. Early stopping compares validation losses computed by the fused
// predictor, so a refactor of the forward pass that flips one
// `vl < best − MinDelta` tie shows here as a different model, not as noise.
func TestQuickScienceNumbersPinned(t *testing.T) {
	got := map[string]string{}
	pin := func(key string, v float64) { got[key] = strconv.FormatFloat(v, 'g', -1, 64) }

	t4, err := quickTable4()
	if err != nil {
		t.Fatal(err)
	}
	for vnf, scores := range t4.Scores {
		for _, s := range scores {
			pin("table4/"+vnf+"/"+s.Method+"/mae", s.MAE)
		}
	}
	f34 := quickLab().RunFigure34()
	for method, byChain := range f34.PerChainMAE {
		for chain, mae := range byChain {
			pin("figure34/"+method+"/"+chain+"/mae", mae)
		}
		pin("figure34/"+method+"/summary/mae", f34.Summary[method].MAE)
	}
	for name, res := range map[string]*Table5Result{"table5": quickLab().RunTable5(), "table6": quickLab().RunTable6()} {
		pin(name+"/true_problems", float64(res.TrueProblems))
		for _, r := range res.Rows {
			row := fmt.Sprintf("%s/%s/gamma=%g/", name, r.Method, r.Gamma)
			pin(row+"alarms", float64(r.Alarms))
			pin(row+"correct", float64(r.Correct))
			pin(row+"a_t", r.AT)
		}
	}

	const path = "testdata/quick_pinned.json"
	if *updatePins {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d numbers computed, %d pinned", len(got), len(want))
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g, ok := got[k]
		if !ok {
			t.Errorf("%s: pinned but not computed", k)
			continue
		}
		w, _ := strconv.ParseFloat(want[k], 64)
		v, _ := strconv.ParseFloat(g, 64)
		if math.IsNaN(w) != math.IsNaN(v) || math.Abs(v-w) > 1e-9*math.Max(math.Abs(w), 1e-300) {
			t.Errorf("%s = %s, pinned %s", k, g, want[k])
		}
	}
}
