// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§6). Each exported function
// corresponds to one artifact (Table2 ... Table7, Fig1 ... Fig9), prints
// the same rows or series the paper reports, and returns any fatal error.
//
// The harness runs on synthetic stand-ins at configurable cardinality
// (Config.N); the paper's absolute numbers came from 2-5.8M-point datasets
// on a 48-thread Xeon, so only the *shape* of the results — who wins, by
// roughly what factor, where the crossovers fall — is expected to match.
// docs/benchmarks.md describes the machine-readable records the harness
// writes and how to regenerate each one.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/grid"
)

// Config controls the harness.
type Config struct {
	// N is the target cardinality for the real-dataset stand-ins
	// (<= 0 means 20000). The Syn dataset uses 2N, S-sets use 5000
	// as in the original benchmark.
	N int
	// Threads is the worker count for timed runs (<= 0: GOMAXPROCS).
	Threads int
	// Seed drives all dataset generation.
	Seed int64
	// OutDir receives figure images (PPM/SVG); empty disables rendering.
	OutDir string
	// SweepJSON, when non-empty, is where the sweep experiment writes
	// its machine-readable BENCH_param_sweep.json record.
	SweepJSON string
	// Fig9JSON, when non-empty, is where the fig9 experiment writes its
	// machine-readable BENCH_parallel_fit.json record.
	Fig9JSON string
	// DriftJSON, when non-empty, is where the drift experiment writes
	// its machine-readable BENCH_drift.json record.
	DriftJSON string
	// W receives the printed tables; nil means os.Stdout.
	W io.Writer
}

func (c Config) n() int {
	if c.N > 0 {
		return c.N
	}
	return 20000
}

func (c Config) threads() int {
	if c.Threads > 0 {
		return c.Threads
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) w() io.Writer {
	if c.W != nil {
		return c.W
	}
	return os.Stdout
}

func (c Config) outPath(name string) (string, bool) {
	if c.OutDir == "" {
		return "", false
	}
	return filepath.Join(c.OutDir, name), true
}

// realDatasets returns the four real-dataset stand-ins at the configured
// cardinality, in the paper's column order.
func (c Config) realDatasets() []*data.Dataset {
	n := c.n()
	return []*data.Dataset{
		data.AirlineLike(n, c.Seed),
		data.HouseholdLike(n, c.Seed),
		data.PAMAP2Like(n, c.Seed),
		data.SensorLike(n, c.Seed),
	}
}

// params builds core.Params from a dataset's defaults.
func (c Config) params(ds *data.Dataset) core.Params {
	return core.Params{
		DCut: ds.DCut, RhoMin: ds.RhoMin, DeltaMin: ds.DeltaMin,
		Workers: c.threads(), Epsilon: 1.0, Seed: c.Seed,
	}
}

// pointsPerCell is n over the number of occupied cells of Approx-DPC's
// grid (side d_cut/sqrt(d)): how many points one neighbor-cell rule
// search serves on average. Near 1, Approx-DPC runs about one range
// search per point on top of Ex-DPC's density pass.
func pointsPerCell(ds *geom.Dataset, dcut float64) float64 {
	return float64(ds.N) / float64(grid.Build(ds, grid.SideForDCut(dcut, ds.Dim)).NumCells())
}

// run executes one algorithm over a flat dataset and returns its result;
// fatal errors abort the experiment (they indicate a bug, not a
// measurement).
func run(alg core.Algorithm, ds *geom.Dataset, p core.Params) (*core.Result, error) {
	res, err := alg.ClusterDataset(ds, p)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", alg.Name(), err)
	}
	return res, nil
}

func secs(d time.Duration) float64 { return d.Seconds() }

// approxAlgs returns the three approximation algorithms compared in the
// accuracy tables, in the paper's column order.
func approxAlgs() []core.Algorithm {
	return []core.Algorithm{core.LSHDDP{}, core.ApproxDPC{}, core.SApproxDPC{}}
}

// allAlgs returns all seven algorithms in the paper's legend order.
func allAlgs() []core.Algorithm {
	return []core.Algorithm{
		core.Scan{}, core.RtreeScan{}, core.LSHDDP{}, core.CFSFDPA{},
		core.ExDPC{}, core.ApproxDPC{}, core.SApproxDPC{},
	}
}

func header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// writeRecord writes an experiment's machine-readable record as indented
// JSON.
func writeRecord(path string, rec any) error {
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
