package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
)

// Parallel measures the parallel fit phases end to end: one Ex-DPC fit
// on the 4-d PAMAP2 stand-in with one worker and with Config.Threads
// workers, at the storage precision Config.Precision selects, each leg
// timed as the best of several fits. Labels must be byte-identical
// across the two legs — partitioning and tie-breaking are
// deterministic, so the worker count changes only the wall clock. On
// f64 storage a third leg fits the narrowed f32 dataset and reports its
// label agreement against f64. With Config.ParallelJSON set, the run is
// also written as a machine-readable record (BENCH_parallel_fit.json).
func (c Config) Parallel() error {
	w := c.w()
	header(w, "Parallel fit phases: serial vs workers")
	rec := parallelRecord{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), Threads: c.threads(),
		N: c.n(), Seed: c.Seed,
		Precision: c.precision(),
	}

	d := data.PAMAP2Like(c.n(), c.Seed)
	ds := d.Points
	if c.precision() == api.PrecisionF32 {
		ds = ds.ToFloat32()
	}
	serial := c.params(d)
	serial.Workers = 1
	parallel := c.params(d)
	ds32 := ds.ToFloat32()

	// Each leg is the best of `trials` fits, interleaved so a burst of
	// load on a shared host hits every leg alike: min-time is robust to
	// preemption, where a single fit can swing 2x between runs.
	const trials = 5
	fit := func(pts *geom.Dataset, p core.Params, best *float64) (*core.Result, error) {
		t0 := time.Now()
		res, err := run(core.ExDPC{}, pts, p)
		if t := secs(time.Since(t0)); *best == 0 || t < *best {
			*best = t
		}
		return res, err
	}
	var tSerial, tPar, t32 float64
	var resSerial, resPar, res32 *core.Result
	for k := 0; k < trials; k++ {
		var err error
		if resSerial, err = fit(ds, serial, &tSerial); err != nil {
			return err
		}
		if resPar, err = fit(ds, parallel, &tPar); err != nil {
			return err
		}
		if c.precision() != api.PrecisionF32 {
			if res32, err = fit(ds32, parallel, &t32); err != nil {
				return err
			}
		}
	}

	rec.Fit = fitLegs{
		Algorithm: "Ex-DPC", Dataset: d.Name, Dim: ds.Dim, N: ds.N,
		SerialSec: tSerial, ParallelSec: tPar,
		ParallelSpeedup:   tSerial / tPar,
		LabelsSerialEqual: labelsEqual(resSerial.Labels, resPar.Labels),
	}
	if !rec.Fit.LabelsSerialEqual {
		return fmt.Errorf("parallel: fit labels differ from serial")
	}
	fmt.Fprintf(w, "fit Ex-DPC on %s (n=%d, d=%d, %s), best of %d:\n", d.Name, ds.N, ds.Dim, rec.Precision, trials)
	fmt.Fprintf(w, "  serial:            %8.3fs\n", tSerial)
	fmt.Fprintf(w, "  %2d workers:        %8.3fs  (%.2fx, labels identical)\n", c.threads(), tPar, rec.Fit.ParallelSpeedup)

	// Narrowed labels may legally differ at dc-boundary ties (a point
	// whose distance straddles d_cut after narrowing), so agreement is
	// reported, not gated, here — the tolerance gate lives in the
	// equivalence tests.
	if res32 != nil {
		rec.Fit.F32Sec = t32
		rec.Fit.F32LabelAgreement = labelAgreement(resPar.Labels, res32.Labels)
		fmt.Fprintf(w, "  %2d workers, f32:   %8.3fs  (label agreement %.4f vs f64)\n",
			c.threads(), t32, rec.Fit.F32LabelAgreement)
	}

	if c.ParallelJSON != "" {
		if err := writeParallelRecord(c.ParallelJSON, rec); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", c.ParallelJSON)
	}
	return nil
}

func labelsEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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

// parallelRecord is the machine-readable form of one Parallel run
// (BENCH_parallel_fit.json).
type parallelRecord struct {
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	NumCPU    int     `json:"num_cpu"`
	Threads   int     `json:"threads"`
	N         int     `json:"n"`
	Seed      int64   `json:"seed"`
	Precision string  `json:"precision"`
	Fit       fitLegs `json:"fit"`
}

type fitLegs struct {
	Algorithm         string  `json:"algorithm"`
	Dataset           string  `json:"dataset"`
	Dim               int     `json:"dim"`
	N                 int     `json:"n"`
	SerialSec         float64 `json:"serial_seconds"`
	ParallelSec       float64 `json:"parallel_seconds"`
	ParallelSpeedup   float64 `json:"parallel_speedup"`
	LabelsSerialEqual bool    `json:"labels_serial_vs_parallel_identical"`
	F32Sec            float64 `json:"f32_seconds,omitempty"`
	F32LabelAgreement float64 `json:"f32_label_agreement,omitempty"`
}

func writeParallelRecord(path string, rec parallelRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rec); err != nil {
		return err
	}
	return f.Close()
}
