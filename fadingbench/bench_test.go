package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"
)

// TestTablesAgree checks that BENCHMARK.json, metrics.json and the metric
// tables the runs report from name the same metrics, units and workloads.
func TestTablesAgree(t *testing.T) {
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var bench struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	var dict struct {
		Workloads map[string]json.RawMessage `json:"workloads"`
		EndToEnd  map[string]entry           `json:"end_to_end"`
		PerLayer  map[string]entry           `json:"per_layer"`
	}
	for path, v := range map[string]any{"../BENCHMARK.json": &bench, "metrics.json": &dict} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	var names []string
	for _, w := range bench.Workloads {
		names = append(names, w.Name)
		if _, ok := dict.Workloads[w.Name]; !ok {
			t.Errorf("metrics.json has no workload %s", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, workloadNames)
	}
	check := func(kind string, got []entry, dictEntries map[string]entry, want []metricDef) {
		if len(got) != len(want) || len(dictEntries) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d, metrics.json %d, the run reports %d", kind, len(got), len(dictEntries), len(want))
		}
		for i, d := range want {
			if i < len(got) && (got[i].Name != d.name || got[i].Unit != d.unit) {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), run reports %s (%s)", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
			e, ok := dictEntries[d.name]
			if !ok || e.Unit != d.unit {
				t.Errorf("%s: metrics.json entry for %s is %+v, want unit %s", kind, d.name, e, d.unit)
			}
			if i < len(got) && ok && e.Better != got[i].Better {
				t.Errorf("%s: %s is %q in metrics.json, %q in BENCHMARK.json", kind, d.name, e.Better, got[i].Better)
			}
		}
	}
	check("end_to_end", bench.EndToEnd, dict.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, dict.PerLayer, perLayer)
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// that every run is correct and reports every metric with its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for seconds")
	}
	if err := runSmoke(7, 1); err != nil {
		t.Fatal(err)
	}
}
