package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

var phaseNames = [numPhases]string{"fit", "assign", "stream", "window"}

type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d top-level keys, want 6", len(keys))
	}
	var d declared
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

func units(ms []metric) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.name] = m.unit
	}
	return out
}

func TestDeclaredMatchesCatalog(t *testing.T) {
	d := readDeclared(t)
	if len(d.EndToEnd) > 16 || len(d.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits 16 and 128", len(d.EndToEnd), len(d.PerLayer))
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) || len(name) > 64 {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	e2e, layer := units(endToEnd), units(perLayer)
	if len(d.EndToEnd) != len(e2e) || len(d.PerLayer) != len(layer) {
		t.Errorf("declared %d/%d metrics, the program reports %d/%d", len(d.EndToEnd), len(d.PerLayer), len(e2e), len(layer))
	}
	var setupBound, maxBound float64
	for _, m := range d.EndToEnd {
		check(m.Name)
		if e2e[m.Name] != m.Unit {
			t.Errorf("%s: declared unit %q, reported %q", m.Name, m.Unit, e2e[m.Name])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		maxBound = max(maxBound, m.Bound)
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, maxBound)
	}
	for _, m := range d.PerLayer {
		check(m.Name)
		if layer[m.Name] != m.Unit {
			t.Errorf("%s: declared unit %q, reported %q", m.Name, m.Unit, layer[m.Name])
		}
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("declared %d workloads, the program has %d", len(d.Workloads), len(workloads))
	}
	for i, w := range d.Workloads {
		check(w.Name)
		if w.Name != workloads[i].name || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why %d chars) does not match %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
}

func TestLayerMapCoversEveryLayerMetric(t *testing.T) {
	raw, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads map[string]struct {
			Batch        int                `json:"batch"`
			StreamPoints int                `json:"stream_points"`
			Shares       map[string]float64 `json:"shares"`
		} `json:"workloads"`
		Layers []struct {
			Metric string   `json:"metric"`
			Moves  []string `json:"moves"`
			Still  []string `json:"still"`
		} `json:"layers"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		got, ok := doc.Workloads[w.name]
		if !ok || got.Batch != w.batch || got.StreamPoints != w.stream {
			t.Errorf("layers.json workload %s = %+v, program has batch %d stream %d", w.name, got, w.batch, w.stream)
		}
		for ph, name := range phaseNames {
			if got.Shares[name] != w.share[ph] {
				t.Errorf("layers.json %s share of %s = %g, program has %g", w.name, name, got.Shares[name], w.share[ph])
			}
		}
	}
	e2e, layer := units(endToEnd), units(perLayer)
	mapped := map[string]bool{}
	for _, l := range doc.Layers {
		if _, ok := layer[l.Metric]; !ok || mapped[l.Metric] {
			t.Errorf("layer map entry %q is unknown or repeated", l.Metric)
		}
		mapped[l.Metric] = true
		for _, ref := range append(append([]string{}, l.Moves...), l.Still...) {
			m, w, _ := strings.Cut(ref, "@")
			if _, ok := e2e[m]; !ok {
				t.Errorf("%s: %q names no end-to-end metric", l.Metric, ref)
			}
			if _, ok := workloadByName(w); !ok {
				t.Errorf("%s: %q names no workload", l.Metric, ref)
			}
		}
	}
	if len(mapped) != len(layer) {
		t.Errorf("layer map covers %d of %d per-layer metrics", len(mapped), len(layer))
	}
}

// tinyRun runs one workload at test scale and checks its metric set.
func tinyRun(t *testing.T, name string, trace bool, corrupt func([]int32)) *result {
	t.Helper()
	var report strings.Builder
	res, err := execute(options{
		workload: name, seed: 3, seconds: 1, trace: trace, traceDir: t.TempDir(),
		tiny: true, corrupt: corrupt,
	}, &report)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if res.Failed > 0 {
		t.Logf("%s trace=%v report:\n%s", name, trace, report.String())
	}
	want := endToEnd
	if trace {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(want))
	}
	for _, m := range want {
		if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", name, m.name, v, m.unit)
		}
	}
	if res.Attempted < 1 {
		t.Errorf("%s: attempted %d operations", name, res.Attempted)
	}
	return res
}

func TestEveryWorkloadCompletes(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, w.name, trace, nil)
			if !res.Correct || res.Failed != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed", w.name, trace, res.Failed, res.Attempted)
			}
			for name, v := range res.Metrics {
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w.name, name, v.Value)
				}
			}
		}
	}
}

func TestCorruptedLabelCountsAsFailure(t *testing.T) {
	var once atomic.Bool
	res := tinyRun(t, "window", false, func(labels []int32) {
		if len(labels) > 0 && once.CompareAndSwap(false, true) {
			labels[0] = labels[0] + 1
		}
	})
	if res.Correct || res.Failed != 1 {
		t.Errorf("a corrupted label: correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
	}
}
