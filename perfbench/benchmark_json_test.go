package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root declares the workloads and
// metrics that runs of this benchmark are judged by; they must be the ones
// this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var decl struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []named, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d, the program reports %d", kind, len(got), len(want))
		}
		for _, m := range got {
			if u, ok := want[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s in %q, the program reports unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEndUnits)
	check("per_layer", decl.PerLayer, perLayer)
	names := map[string]string{}
	for n := range workloads {
		names[n] = ""
	}
	check("workloads", decl.Workloads, names)
}
