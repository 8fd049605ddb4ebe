package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
	"repro/internal/geom"
)

// Table6 reproduces "Decomposed time [sec]": the rho-computation and
// delta-computation seconds of every algorithm on the four real-dataset
// stand-ins at default parameters, followed by Approx-DPC's points per
// occupied cell on each.
func (c Config) Table6() error {
	w := c.w()
	header(w, fmt.Sprintf("Table 6: decomposed time [s] (n=%d per dataset, %d threads)", c.n(), c.threads()))
	dss := c.realDatasets()
	fmt.Fprintf(w, "%-14s", "Algorithm")
	for _, ds := range dss {
		fmt.Fprintf(w, " %10s-rho %10s-dlt", ds.Name, ds.Name)
	}
	fmt.Fprintln(w)
	for _, alg := range allAlgs() {
		fmt.Fprintf(w, "%-14s", alg.Name())
		for _, ds := range dss {
			res, err := run(alg, ds.Points, c.params(ds))
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %14.3f %14.3f", secs(res.Timing.Rho), secs(res.Timing.Delta))
		}
		fmt.Fprintln(w)
	}
	fmt.Fprint(w, "Approx-DPC points per occupied cell:")
	for _, ds := range dss {
		fmt.Fprintf(w, " %s %.2f", ds.Name, pointsPerCell(ds.Points, ds.DCut))
	}
	fmt.Fprintln(w)
	return nil
}

// Table7 reproduces "Memory usage [MB]" per algorithm on the four
// real-dataset stand-ins: the peak heap over each fit, its index and
// working memory. Go's GC makes this approximate, since garbage not
// yet collected counts until it is.
func (c Config) Table7() error {
	w := c.w()
	header(w, fmt.Sprintf("Table 7: peak heap over the fit [MB] (n=%d per dataset)", c.n()))
	dss := c.realDatasets()
	algs := []core.Algorithm{
		core.RtreeScan{}, core.LSHDDP{}, core.CFSFDPA{},
		core.ExDPC{}, core.ApproxDPC{}, core.SApproxDPC{},
	}
	fmt.Fprintf(w, "%-14s", "Algorithm")
	for _, ds := range dss {
		fmt.Fprintf(w, " %10s", ds.Name)
	}
	fmt.Fprintln(w)
	for _, alg := range algs {
		fmt.Fprintf(w, "%-14s", alg.Name())
		for _, ds := range dss {
			p := c.params(ds)
			var keep *core.Result
			mem := eval.MeasureMem(func() {
				r, err := alg.ClusterDataset(ds.Points, p)
				if err != nil {
					panic(err)
				}
				keep = r
			})
			runtime.KeepAlive(keep)
			fmt.Fprintf(w, " %10s", eval.FormatMB(mem.Peak))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig7 reproduces "Impact of cardinality (sampling rate)": total running
// time of every algorithm while uniformly sampling each dataset at rates
// 0.5 ... 1.0.
func (c Config) Fig7() error {
	w := c.w()
	header(w, fmt.Sprintf("Figure 7: running time [s] vs sampling rate (n=%d at rate 1, %d threads)", c.n(), c.threads()))
	rates := []float64{0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	for _, ds := range c.realDatasets() {
		fmt.Fprintf(w, "\n[%s]\n%-14s", ds.Name, "Algorithm")
		for _, r := range rates {
			fmt.Fprintf(w, " %8.1f", r)
		}
		fmt.Fprintln(w)
		for _, alg := range allAlgs() {
			fmt.Fprintf(w, "%-14s", alg.Name())
			for i, rate := range rates {
				sub := data.Sample(ds, rate, c.Seed+int64(i))
				res, err := run(alg, sub.Points, c.params(ds))
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " %8.3f", secs(res.Timing.Total()))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Fig8 reproduces "Impact of d_cut": total running time under a cutoff
// sweep (500..1500 for the 1e5/1e6-domain datasets, 4000..6000 for
// Sensor, as in the paper). A last row per dataset gives Approx-DPC's
// points per occupied cell at each cutoff.
func (c Config) Fig8() error {
	w := c.w()
	header(w, fmt.Sprintf("Figure 8: running time [s] vs d_cut (n=%d, %d threads)", c.n(), c.threads()))
	for _, ds := range c.realDatasets() {
		cuts := []float64{500, 750, 1000, 1250, 1500}
		if ds.Name == "Sensor" {
			cuts = []float64{4000, 4500, 5000, 5500, 6000}
		}
		fmt.Fprintf(w, "\n[%s]\n%-14s", ds.Name, "Algorithm")
		for _, dc := range cuts {
			fmt.Fprintf(w, " %8.0f", dc)
		}
		fmt.Fprintln(w)
		for _, alg := range allAlgs() {
			fmt.Fprintf(w, "%-14s", alg.Name())
			for _, dc := range cuts {
				p := c.params(ds)
				p.DCut = dc
				p.DeltaMin = dc * 3
				res, err := run(alg, ds.Points, p)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " %8.3f", secs(res.Timing.Total()))
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "%-14s", "pts/cell")
		for _, dc := range cuts {
			fmt.Fprintf(w, " %8.2f", pointsPerCell(ds.Points, dc))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig9 reproduces "Impact of number of threads": total running time of
// every algorithm with 1, 2, 4, ... up to Config.Threads workers. The
// paper's shapes: Approx-DPC and S-Approx-DPC keep scaling, LSH-DDP
// scales irregularly (no load balancing). Ex-DPC's density and
// dependency passes are both parallel here, so it scales as well.
//
// Each time is the best of fig9Trials fits, interleaved across thread
// counts so a burst of load on a shared host hits every count alike:
// min-time is robust to preemption, where a single fit can swing 2x
// between runs. Labels must be identical across thread counts —
// partitioning and tie-breaking are deterministic, so the worker count
// changes only the wall clock. A last leg per row fits the narrowed
// f32 dataset at the top thread count and reports its label agreement
// against f64. With Config.Fig9JSON set, the run is also written as a
// machine-readable record (BENCH_parallel_fit.json).
func (c Config) Fig9() error {
	w := c.w()
	top := c.threads()
	var threads []int
	for t := 1; t < top; t *= 2 {
		threads = append(threads, t)
	}
	threads = append(threads, top)
	header(w, fmt.Sprintf("Figure 9: running time [s] vs threads (n=%d, 1..%d threads, best of %d)", c.n(), top, fig9Trials))
	rec := fig9Record{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), Threads: threads,
		N: c.n(), Seed: c.Seed, Trials: fig9Trials,
	}
	for _, ds := range c.realDatasets() {
		fmt.Fprintf(w, "\n[%s]\n%-14s", ds.Name, "Algorithm")
		for _, t := range threads {
			fmt.Fprintf(w, " %8d", t)
		}
		fmt.Fprintf(w, " %8s %8s %8s\n", "speedup", "f32", "f32 agr")
		ds32 := ds.Points.ToFloat32()
		for _, alg := range allAlgs() {
			row, err := c.fig9Times(alg, ds, ds32, threads)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-14s", alg.Name())
			for _, l := range row.Legs {
				fmt.Fprintf(w, " %8.3f", l.Seconds)
			}
			fmt.Fprintf(w, " %7.2fx %8.3f %8.4f\n",
				row.Legs[len(row.Legs)-1].Speedup, row.F32Seconds, row.F32LabelAgreement)
			rec.Rows = append(rec.Rows, row)
		}
	}
	if c.Fig9JSON != "" {
		if err := writeFig9Record(c.Fig9JSON, rec); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", c.Fig9JSON)
	}
	return nil
}

// fig9Trials is the number of fits each Fig9 time is the best of.
const fig9Trials = 3

// fig9Times times one algorithm on one dataset at every thread count and
// at the top count on f32 storage. It fails if any fit's labels differ
// from the first single-worker fit's.
func (c Config) fig9Times(alg core.Algorithm, ds *data.Dataset, ds32 *geom.Dataset, threads []int) (fig9Row, error) {
	row := fig9Row{
		Dataset: ds.Name, Dim: ds.Points.Dim, N: ds.Points.N, Algorithm: alg.Name(),
		Legs: make([]fig9Leg, len(threads)), LabelsIdentical: true,
	}
	fit := func(pts *geom.Dataset, workers int, best *float64) (*core.Result, error) {
		p := c.params(ds)
		p.Workers = workers
		t0 := time.Now()
		res, err := run(alg, pts, p)
		if t := secs(time.Since(t0)); *best == 0 || t < *best {
			*best = t
		}
		return res, err
	}
	var ref, res32 *core.Result
	for k := 0; k < fig9Trials; k++ {
		for i, t := range threads {
			row.Legs[i].Threads = t
			res, err := fit(ds.Points, t, &row.Legs[i].Seconds)
			if err != nil {
				return row, err
			}
			if ref == nil {
				ref = res
			} else if !slices.Equal(res.Labels, ref.Labels) {
				return row, fmt.Errorf("%s on %s: labels with %d threads differ from 1 thread", alg.Name(), ds.Name, t)
			}
		}
		var err error
		if res32, err = fit(ds32, threads[len(threads)-1], &row.F32Seconds); err != nil {
			return row, err
		}
	}
	for i := range row.Legs {
		row.Legs[i].Speedup = row.Legs[0].Seconds / row.Legs[i].Seconds
	}
	// Narrowed labels may legally differ at dc-boundary ties (a point
	// whose distance straddles d_cut after narrowing), so agreement is
	// reported, not gated, here — the tolerance gate lives in
	// core's TestFloat32Tolerance.
	row.F32LabelAgreement = labelAgreement(ref.Labels, res32.Labels)
	return row, nil
}

// labelAgreement is the fraction of positions with equal labels.
func labelAgreement(a, b []int32) float64 {
	if len(a) == 0 || len(a) != len(b) {
		return 0
	}
	eq := 0
	for i := range a {
		if a[i] == b[i] {
			eq++
		}
	}
	return float64(eq) / float64(len(a))
}

// fig9Record is the machine-readable form of one Fig9 run
// (BENCH_parallel_fit.json).
type fig9Record struct {
	GoVersion string    `json:"go_version"`
	GOOS      string    `json:"goos"`
	GOARCH    string    `json:"goarch"`
	NumCPU    int       `json:"num_cpu"`
	Threads   []int     `json:"threads"`
	N         int       `json:"n"`
	Seed      int64     `json:"seed"`
	Trials    int       `json:"trials"`
	Rows      []fig9Row `json:"rows,omitempty"`
}

// fig9Row is one dataset × algorithm row of Fig9: a leg per thread count.
type fig9Row struct {
	Dataset           string    `json:"dataset"`
	Dim               int       `json:"dim"`
	N                 int       `json:"n"`
	Algorithm         string    `json:"algorithm"`
	Legs              []fig9Leg `json:"legs"`
	LabelsIdentical   bool      `json:"labels_identical_across_threads"`
	F32Seconds        float64   `json:"f32_seconds"`
	F32LabelAgreement float64   `json:"f32_label_agreement"`
}

type fig9Leg struct {
	Threads int     `json:"threads"`
	Seconds float64 `json:"seconds"`
	Speedup float64 `json:"speedup"`
}

// writeFig9Record writes rec as indented JSON with one line per row, so a
// regenerated record diffs row by row rather than field by field.
func writeFig9Record(path string, rec fig9Record) error {
	rows := rec.Rows
	rec.Rows = nil
	head, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	var b bytes.Buffer
	b.Write(bytes.TrimSuffix(head, []byte("\n}")))
	b.WriteString(",\n  \"rows\": [")
	for i, row := range rows {
		line, err := json.Marshal(row)
		if err != nil {
			return err
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n    ")
		b.Write(line)
	}
	b.WriteString("\n  ]\n}\n")
	return os.WriteFile(path, b.Bytes(), 0o644)
}
