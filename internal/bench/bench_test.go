package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// smallCfg keeps harness tests fast: tiny cardinality, two workers.
func smallCfg(t *testing.T, buf *bytes.Buffer) Config {
	t.Helper()
	return Config{N: 1500, Threads: 2, Seed: 1, W: buf}
}

func TestAccuracyTablesRun(t *testing.T) {
	var buf bytes.Buffer
	c := smallCfg(t, &buf)
	for _, name := range []string{"table2", "table3", "table4", "table5"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %s missing", name)
		}
		if err := e.Run(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"Table 2", "Table 3", "Table 4", "Table 5", "S4", "Approx-DPC", "clusters", "noise"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	// Accuracy values parse as numbers in [0,1]: spot check there are
	// plenty of "0." prefixed or "1.000" cells.
	if strings.Count(out, "0.")+strings.Count(out, "1.000") < 10 {
		t.Error("accuracy tables look empty")
	}
}

func TestPerfExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("perf harness in -short mode")
	}
	var buf bytes.Buffer
	c := Config{N: 800, Threads: 2, Seed: 1, W: &buf}
	for _, name := range []string{"table6", "table7", "fig7", "fig8"} {
		e, _ := Lookup(name)
		if err := e.Run(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"Table 6", "Table 7", "Figure 7", "Figure 8", "Ex-DPC", "S-Approx-DPC",
		"points per occupied cell", "pts/cell"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFigureExperimentsRenderFiles(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	c := Config{N: 1200, Threads: 2, Seed: 1, W: &buf, OutDir: dir}
	for _, name := range []string{"fig1", "fig2", "fig6"} {
		e, _ := Lookup(name)
		if err := e.Run(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	wantFiles := []string{
		"fig1_decision_graph_s2.svg",
		"fig2_dpc_s2.ppm", "fig2_dbscan_s2.ppm",
		"fig6_b_exdpc.ppm", "fig6_d_approx.ppm", "fig6_f_sapprox_eps1.0.ppm",
	}
	for _, f := range wantFiles {
		st, err := os.Stat(filepath.Join(dir, f))
		if err != nil {
			t.Errorf("missing artifact %s: %v", f, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("artifact %s is empty", f)
		}
	}
	if !strings.Contains(buf.String(), "decision graph") {
		t.Error("fig1 output missing")
	}
}

func TestRegistry(t *testing.T) {
	if len(Experiments()) != 15 {
		t.Errorf("registry has %d experiments, want 15", len(Experiments()))
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("unknown experiment found")
	}
	if len(Names()) != 15 {
		t.Error("Names() incomplete")
	}
	for _, e := range Experiments() {
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.Name)
		}
	}
}

func TestOthersAndAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation harness in -short mode")
	}
	var buf bytes.Buffer
	c := Config{N: 800, Threads: 2, Seed: 1, W: &buf}
	for _, name := range []string{"others"} {
		e, ok := Lookup(name)
		if !ok {
			t.Fatalf("experiment %s missing", name)
		}
		if err := e.Run(c); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	out := buf.String()
	for _, want := range []string{"FastDPeak", "DPCG", "CFSFDP-DE"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFig9Record(t *testing.T) {
	var buf bytes.Buffer
	c := Config{N: 800, Threads: 2, Seed: 1, W: &buf, Fig9JSON: filepath.Join(t.TempDir(), "fig9.json")}
	e, _ := Lookup("fig9")
	if err := e.Run(c); err != nil {
		t.Fatalf("fig9: %v", err)
	}
	if !strings.Contains(buf.String(), "Figure 9") {
		t.Error("fig9 output missing")
	}
	raw, err := os.ReadFile(c.Fig9JSON)
	if err != nil {
		t.Fatalf("fig9 record: %v", err)
	}
	var rec fig9Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatalf("fig9 record: %v", err)
	}
	if !slices.Equal(rec.Threads, []int{1, 2}) {
		t.Fatalf("thread ladder %v, want [1 2]", rec.Threads)
	}
	// Every dataset × algorithm × thread-count cell is present and timed.
	seen := map[string]bool{}
	for _, row := range rec.Rows {
		seen[row.Dataset+"/"+row.Algorithm] = true
		if len(row.Legs) != len(rec.Threads) {
			t.Errorf("%s/%s: %d legs, want %d", row.Dataset, row.Algorithm, len(row.Legs), len(rec.Threads))
			continue
		}
		for i, l := range row.Legs {
			if l.Threads != rec.Threads[i] || l.Seconds <= 0 {
				t.Errorf("%s/%s leg %d: threads %d, %gs", row.Dataset, row.Algorithm, i, l.Threads, l.Seconds)
			}
		}
		if !row.LabelsIdentical {
			t.Errorf("%s/%s: labels differ across thread counts", row.Dataset, row.Algorithm)
		}
		if row.F32Seconds <= 0 || row.F32LabelAgreement < 0 || row.F32LabelAgreement > 1 {
			t.Errorf("%s/%s: f32 leg %gs, agreement %g", row.Dataset, row.Algorithm, row.F32Seconds, row.F32LabelAgreement)
		}
	}
	for _, ds := range c.realDatasets() {
		for _, alg := range allAlgs() {
			if !seen[ds.Name+"/"+alg.Name()] {
				t.Errorf("record missing %s/%s", ds.Name, alg.Name())
			}
		}
	}
	if len(rec.Rows) != len(seen) {
		t.Errorf("record has %d rows for %d dataset/algorithm pairs", len(rec.Rows), len(seen))
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.n() != 20000 {
		t.Errorf("default n = %d", c.n())
	}
	if c.threads() < 1 {
		t.Error("default threads < 1")
	}
	if c.w() == nil {
		t.Error("default writer nil")
	}
	if _, ok := c.outPath("x"); ok {
		t.Error("empty OutDir should disable rendering")
	}
}
