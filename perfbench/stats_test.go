package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestSummarizeTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: summarize must sort
		}
		return xs
	}
	cases := []struct {
		n       int
		p50     float64
		tail    float64
		tailPct float64
	}{
		// 100 samples: the 90th value has exactly 10 above it.
		{100, 50.5, 90, 90},
		// 40 samples: the 30th value, p75.
		{40, 20.5, 30, 75},
		// 21 samples: the 11th value is both the median and the last
		// index with 10 above it.
		{21, 11, 11, 100 * 11.0 / 21},
		// 20 samples: no value above the median has 10 beyond it.
		{20, 10.5, 10.5, 50},
		{3, 2, 2, 50},
		{1, 1, 1, 50},
	}
	for _, c := range cases {
		got := summarize(seq(c.n))
		if got.N != c.n || got.P50 != c.p50 || got.Tail != c.tail || math.Abs(got.TailPct-c.tailPct) > 1e-9 {
			t.Errorf("n=%d: got %+v, want p50 %v tail %v at p%v", c.n, got, c.p50, c.tail, c.tailPct)
		}
	}
	if got := summarize(nil); got.N != 0 || !math.IsNaN(got.P50) || !math.IsNaN(got.Tail) {
		t.Errorf("no samples: got %+v, want NaN", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping children count once", []interval{{10, 40}, {20, 50}, {45, 60}}, 50},
		{"nested child inside another", []interval{{10, 60}, {20, 30}}, 50},
		{"children sticking out are clipped", []interval{{-20, 10}, {90, 150}}, 80},
		{"child outside the parent", []interval{{100, 120}, {-5, 0}}, 100},
		{"unsorted touching children", []interval{{50, 70}, {30, 50}}, 60},
		{"full cover", []interval{{0, 60}, {40, 100}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTallyFailRatio(t *testing.T) {
	var tl tally
	if tl.failRatio() != 0 {
		t.Fatalf("empty tally: fail ratio %v, want 0", tl.failRatio())
	}
	tl.check(nil)
	tl.check(errors.New("restart digest mismatch"))
	tl.check(nil)
	tl.check(errors.New("VerifyStore: 1 faults"))
	if tl.attempted != 4 || tl.failed != 2 || tl.failRatio() != 0.5 {
		t.Fatalf("got %d attempted, %d failed, ratio %v; want 4, 2, 0.5", tl.attempted, tl.failed, tl.failRatio())
	}
	want := []string{"restart digest mismatch", "VerifyStore: 1 faults"}
	if !reflect.DeepEqual(tl.reasons, want) {
		t.Fatalf("reasons %q, want %q", tl.reasons, want)
	}
}

func TestScheduleDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, b := w.schedule(7), w.schedule(7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave %v then %v", w.name, a, b)
		}
		if len(a) != w.captures {
			t.Errorf("%s: %d capture steps, want %d epochs", w.name, len(a), w.captures)
		}
		for i, s := range a {
			if s < w.firstStep || s >= w.steps || (i > 0 && s <= a[i-1]) {
				t.Fatalf("%s: steps %v not strictly ascending in [%d, %d)", w.name, a, w.firstStep, w.steps)
			}
		}
		if c := w.schedule(8); reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same steps %v", w.name, a)
		}
	}
}

// TestMetricsMatchBenchmarkJSON keeps the metrics the command prints in step
// with the names and units BENCHMARK.json declares.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	b := &bench{tr: newTracer()}
	for _, c := range []struct {
		name string
		want []decl
		rows []metric
	}{
		{"end_to_end", spec.EndToEnd, b.endToEnd()},
		{"per_layer", spec.PerLayer, b.layerMetrics()},
	} {
		var got []decl
		for _, r := range c.rows {
			got = append(got, decl{r.name, r.unit})
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: the command prints %v, BENCHMARK.json declares %v", c.name, got, c.want)
		}
	}
}
