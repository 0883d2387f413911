package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestCompareExactFlagsEveryBitDifference(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	negZero := math.Copysign(0, -1)
	for _, tc := range []struct {
		name      string
		got, want float64
	}{
		{"NaN vs number", nan, 1},
		{"number vs NaN", 1, nan},
		{"-0 vs +0", negZero, 0},
		{"+0 vs -0", 0, negZero},
		{"Inf sign", inf, -inf},
		{"Inf vs max", inf, math.MaxFloat64},
		{"one ulp", math.Nextafter(1, 2), 1},
	} {
		if err := compareExact([]float64{2, tc.got}, []float64{2, tc.want}); err == nil {
			t.Errorf("%s: not flagged", tc.name)
		} else if m, ok := err.(*mismatch); !ok || m.Index != 1 {
			t.Errorf("%s: error %v does not name element 1", tc.name, err)
		}
	}
	if err := compareExact([]float64{1, nan, -inf, negZero}, []float64{1, nan, -inf, negZero}); err != nil {
		t.Errorf("identical bits flagged: %v", err)
	}
	if err := compareExact([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch not flagged")
	}
}

func TestCompareTolFlagsNaNAndInfClass(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	const tol = 1e-5
	for _, tc := range []struct {
		name      string
		got, want float32
	}{
		{"NaN vs number", nan, 1},
		{"number vs NaN", 1, nan},
		{"Inf sign", inf, -inf},
		{"Inf vs finite", inf, math.MaxFloat32},
		{"beyond tolerance", 1.001, 1},
	} {
		if err := compareTol([]float32{tc.got}, []float32{tc.want}, tol); err == nil {
			t.Errorf("%s: not flagged", tc.name)
		}
	}
	if err := compareTol([]float32{1.000001, nan, -inf}, []float32{1, nan, -inf}, tol); err != nil {
		t.Errorf("within tolerance flagged: %v", err)
	}
}

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // unsorted on purpose
		}
		return out
	}
	for _, tc := range []struct {
		p        float64
		n        int
		want     float64
		refusals bool
	}{
		{50, 19, 0, true},
		{50, 20, 10, false},
		{90, 99, 0, true},
		{90, 100, 90, false},
		{99, 999, 0, true},
		{99, 1000, 990, false},
	} {
		got, err := percentile(xs(tc.n), tc.p)
		if tc.refusals {
			if err == nil {
				t.Errorf("p%g of %d: got %g, want refusal", tc.p, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d = %g, %v; want %g", tc.p, tc.n, got, err, tc.want)
		}
	}
	if median([]float64{3, 1, 2, 10}) != 2.5 || median([]float64{5, 1, 3}) != 3 {
		t.Error("median of a small sample is wrong")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	sched := func(seed int64) any { return arrivals(rand.New(rand.NewSource(seed)), 500, 5*time.Second) }
	if !reflect.DeepEqual(sched(7), sched(7)) {
		t.Error("same seed gave different arrival schedules")
	}
	if reflect.DeepEqual(sched(7), sched(8)) {
		t.Error("different seeds gave the same arrival schedule")
	}
	list := func(seed int64) []tuneCand {
		c, err := candidateList(seed)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := list(7), list(7)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different candidate lists")
	}
	if reflect.DeepEqual(a, list(8)) {
		t.Error("different seeds gave the same candidate list")
	}
	if len(a) != 3*2*3*candsPerSlot {
		t.Errorf("candidate list has %d entries, want %d", len(a), 3*2*3*candsPerSlot)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// tables the benchmark prints from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", kind, len(got), len(want))
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the benchmark", kind, i, m, w)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
}
