package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func quickOpt() Options { return Options{Seed: 1, Quick: true} }

// TestAllExperimentsRun smoke-tests every registered generator in quick
// mode: each must run without error and render non-empty output.
func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			out, err := e.Run(quickOpt())
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			var buf bytes.Buffer
			out.Render(&buf)
			if buf.Len() == 0 {
				t.Fatalf("%s rendered nothing", e.ID)
			}
			if !strings.Contains(buf.String(), e.ID) {
				t.Errorf("%s output does not carry its ID header", e.ID)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, err := ByID("fig2"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("want error for unknown id")
	}
}

func TestFig2Shape(t *testing.T) {
	fig, err := Fig2RSSVsDistance(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("fig2 series = %d, want 3 phones", len(fig.Series))
	}
	// The paper's claim: same trend, different offsets. Check each phone's
	// RSS decreases from near to far overall.
	for _, s := range fig.Series {
		if len(s.X) < 10 {
			t.Fatalf("%s has only %d points", s.Name, len(s.X))
		}
		var nearSum, farSum float64
		var nearN, farN int
		for i := range s.X {
			if s.X[i] < 2 {
				nearSum += s.Y[i]
				nearN++
			}
			if s.X[i] > 4.5 {
				farSum += s.Y[i]
				farN++
			}
		}
		if nearN == 0 || farN == 0 {
			t.Fatalf("%s lacks near/far coverage", s.Name)
		}
		if nearSum/float64(nearN) <= farSum/float64(farN) {
			t.Errorf("%s: RSS does not decrease with distance", s.Name)
		}
	}
}

func TestFig4FilteringImproves(t *testing.T) {
	fig, err := Fig4Filtering(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	// Note string carries RMSEs: "RMSE to theoretical: raw X dB, BF Y dB,
	// BF+AKF Z dB" — parse and check filtering reduces RMSE vs raw.
	if len(fig.Notes) == 0 {
		t.Fatal("fig4 missing RMSE note")
	}
	fields := strings.Fields(strings.NewReplacer(",", "", "dB", "").Replace(fig.Notes[0]))
	var vals []float64
	for _, f := range fields {
		if v, err := strconv.ParseFloat(f, 64); err == nil {
			vals = append(vals, v)
		}
	}
	if len(vals) < 3 {
		t.Fatalf("could not parse RMSEs from %q", fig.Notes[0])
	}
	raw, bf, akf := vals[0], vals[1], vals[2]
	if bf >= raw {
		t.Errorf("BF RMSE %.2f should beat raw %.2f", bf, raw)
	}
	if akf >= raw {
		t.Errorf("BF+AKF RMSE %.2f should beat raw %.2f", akf, raw)
	}
}

// TestTrackingAccuracyFloor pins batch-tracking accuracy at seed 1 with
// full trials: the fix counts, and each error metric at most the
// benchmark's 0.12 m error bound above its value before TrackBeacon
// became a session replay (1.86 m mean fix error, 3.51 m RMSE).
func TestTrackingAccuracyFloor(t *testing.T) {
	for _, tc := range []struct {
		run      func(Options) (*Table, error)
		metric   string
		minFixes float64
		maxErr   float64
	}{
		{ExtTracking, "mean fix error", 88, 1.98},
		{ExtTrackingMoving, "trajectory RMSE", 40, 3.63},
	} {
		tab, err := tc.run(Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		value := func(metric string) float64 {
			t.Helper()
			for _, row := range tab.Rows {
				if row[0] == metric {
					if v, err := strconv.ParseFloat(strings.Fields(row[1])[0], 64); err == nil {
						return v
					}
				}
			}
			t.Fatalf("%s: no numeric %q row in %v", tab.ID, metric, tab.Rows)
			return 0
		}
		if fixes := value("fixes"); fixes < tc.minFixes {
			t.Errorf("%s: %g fixes, want at least %g", tab.ID, fixes, tc.minFixes)
		}
		if e := value(tc.metric); e > tc.maxErr {
			t.Errorf("%s: %s %.2f m, want at most %.2f m", tab.ID, tc.metric, e, tc.maxErr)
		}
	}
}

func TestTable1CoversNineEnvironments(t *testing.T) {
	tab, err := Table1Environments(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 {
		t.Fatalf("table1 rows = %d, want 9", len(tab.Rows))
	}
}

func TestFig11aHasBaselineColumn(t *testing.T) {
	tab, err := Fig11aStationary(quickOpt())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, c := range tab.Columns {
		if strings.Contains(c, "Dartle") {
			found = true
		}
	}
	if !found {
		t.Error("fig11a must include the Dartle baseline column")
	}
	if len(tab.Rows) == 0 {
		t.Error("fig11a produced no rows")
	}
}

func TestFig12aErrorGrowsFarOut(t *testing.T) {
	fig, err := Fig12aDistanceSweep(Options{Seed: 3, Trials: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if len(s.X) < 6 {
		t.Fatalf("only %d sweep points", len(s.X))
	}
	// Paper shape: error at ≤5.6 m clearly below error at >14 m.
	var nearE, farE []float64
	for i := range s.X {
		if s.X[i] <= 5.7 {
			nearE = append(nearE, s.Y[i])
		}
		if s.X[i] >= 14 {
			farE = append(farE, s.Y[i])
		}
	}
	if len(nearE) == 0 || len(farE) == 0 {
		t.Fatal("sweep lacks near/far points")
	}
	if mean(nearE) >= mean(farE) {
		t.Errorf("near error %.2f should be below far error %.2f", mean(nearE), mean(farE))
	}
}

func TestCDFSeriesMonotone(t *testing.T) {
	s := CDFSeries("x", []float64{3, 1, 2, 2.5})
	for i := 1; i < len(s.X); i++ {
		if s.X[i] < s.X[i-1] || s.Y[i] < s.Y[i-1] {
			t.Fatal("CDF not monotone")
		}
	}
	if s.Y[len(s.Y)-1] != 1 {
		t.Error("CDF must end at 1")
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{ID: "t", Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.Notes = append(tab.Notes, "a note")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "a note", "bb"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
