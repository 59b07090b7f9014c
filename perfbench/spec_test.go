package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// the benchmark prints in step: same names, same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, want map[string]string, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for _, m := range got {
			if unit, ok := want[m.Name]; !ok || unit != m.Unit {
				t.Errorf("%s: %s [%s] is not printed with that unit", kind, m.Name, m.Unit)
			}
			if (m.Bound != nil) != bounded {
				t.Errorf("%s: %s bound present = %v", kind, m.Name, m.Bound != nil)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

func TestSpecLoads(t *testing.T) {
	s, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]clusterSpec{"serve": s.Serve, "churn": s.Churn} {
		if c.Nodes < 2 || c.Shards < 1 || c.PushObs <= 0 || c.BeaconsPerGateway < 2 {
			t.Errorf("%s: implausible spec %+v", name, c)
		}
		checkRates(t, name, c.OpenRate, c.ClosedOpsS)
	}
	if s.Locate.Traces < s.Locate.CycleTraces || s.Locate.CycleTraces < s.Locate.CheckTraces || s.SetupProbes < 1 {
		t.Errorf("locate: implausible spec %+v", s.Locate)
	}
	checkRates(t, "locate", s.Locate.OpenRate, s.Locate.ClosedOpsS)
}

// checkRates holds a workload's open-loop rate to about half its recorded
// closed-loop throughput, so the open loop has room to keep its schedule.
func checkRates(t *testing.T, name string, open, closed float64) {
	t.Helper()
	if open <= 0 || open < 0.4*closed || open > 0.55*closed {
		t.Errorf("%s: open-loop rate %v/s is not about half the closed-loop %v/s", name, open, closed)
	}
}
