package main

import "testing"

// TestParseResult reads the result object from the last line of a run's
// output, after the provenance and sample lines the benchmark prints.
func TestParseResult(t *testing.T) {
	out := []byte(`seed 3 commit unknown
wall_s samples: 3.1 3.3
{"correct": true, "attempted": 828, "failed": 2, "metrics": {"wall_s": {"value": 3.364, "unit": "s"}, "p99_ms": {"value": 3434, "unit": "ms"}}}
`)
	r, err := parseResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 828 || r.Failed != 2 {
		t.Errorf("outcome %+v, want correct, 828 attempted, 2 failed", r)
	}
	if v := r.Metrics["wall_s"].Value; v != 3.364 {
		t.Errorf("wall_s = %g, want 3.364", v)
	}
	if _, err := values([]result{r}, "max_rss_mb"); err == nil {
		t.Error("a metric the run did not report was read as a value")
	}
	for _, bad := range []string{"", "not json\n", "{\"correct\": true}\n"} {
		if _, err := parseResult([]byte(bad)); err == nil {
			t.Errorf("parseResult(%q) succeeded", bad)
		}
	}
}

// TestQuantile pins the interpolation on fixed samples.
func TestQuantile(t *testing.T) {
	xs := []float64{7, 1, 3, 5, 9, 2, 8, 4, 6, 10} // 1..10, shuffled
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 3.25}, {0.5, 5.5}, {0.75, 7.75}, {1, 10},
	} {
		if got := quantile(xs, tc.p); got != tc.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := quantile([]float64{4, 2, 3}, 0.5); got != 3 {
		t.Errorf("median of 2,3,4 = %g, want 3", got)
	}
	if xs[0] != 7 {
		t.Error("quantile sorted its input in place")
	}
}

// TestFormatRow checks the table arithmetic: medians and quartiles, the
// ratio, wins by the metric's direction with ties counting for neither,
// and the gap against the parent's interquartile range.
func TestFormatRow(t *testing.T) {
	parent := []float64{10, 11, 12, 13, 14}
	for _, tc := range []struct {
		name   string
		better string
		change []float64
		want   string
	}{
		{"lower wins, gap beyond the IQR", "lower", []float64{8, 9, 12, 9, 10},
			"| w | m | 12 [11–13] | 9 [9–10] | 0.75 | 4/5 | yes |"},
		{"tie counts for neither, gap inside the IQR", "lower", []float64{10, 11.5, 12.5, 12, 13},
			"| w | m | 12 [11–13] | 12 [11.5–12.5] | 1.00 | 2/5 | no |"},
		{"higher is better", "higher", []float64{12, 12, 12, 12, 12},
			"| w | m | 12 [11–13] | 12 [12–12] | 1.00 | 2/5 | no |"},
	} {
		got := formatRow("w", metric{Name: "m", Better: tc.better}, parent, tc.change)
		if got != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestFormatOutcome sums operations over runs and counts correct runs.
func TestFormatOutcome(t *testing.T) {
	rs := []result{{Correct: true, Attempted: 100, Failed: 0}, {Correct: false, Attempted: 90, Failed: 3}}
	if got, want := formatOutcome("fleet", "change", rs), "| fleet | change | 1/2 | 190 | 3 |"; got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}
