// Command dpcbench regenerates the tables and figures of the paper's
// evaluation (§6). Each experiment prints paper-style rows to stdout;
// figure experiments additionally render PPM/SVG images into -outdir.
//
// Usage:
//
//	dpcbench -exp all                     # everything, default sizes
//	dpcbench -exp table2,table5 -n 50000  # selected, larger cardinality
//	dpcbench -exp fig6 -outdir ./figs     # with rendered images
//
// The paper ran 2-5.8M-point datasets on a 48-thread Xeon; the harness
// defaults to 20k-point stand-ins so a full pass finishes in minutes.
// Scale -n up to push toward the paper's regime.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiments to run: all, or comma list of "+strings.Join(bench.Names(), ","))
		n         = flag.Int("n", 20000, "cardinality of the real-dataset stand-ins")
		threads   = flag.Int("threads", 0, "worker count for timed runs, and the top of fig9's thread ladder (0 = all CPUs)")
		seed      = flag.Int64("seed", 1, "dataset generation seed")
		outdir    = flag.String("outdir", "", "directory for figure images (empty: skip rendering)")
		jsonPath  = flag.String("json", "", "write a machine-readable BENCH_*.json record of the run here")
		sweepJSON = flag.String("sweep-json", "", "write the sweep experiment's index-vs-fits record here (BENCH_param_sweep.json)")
		fig9JSON  = flag.String("fig9-json", "", "write the fig9 experiment's time-vs-threads record here (BENCH_parallel_fit.json)")
		driftJSON = flag.String("drift-json", "", "write the drift experiment's overhead and refit-swap record here (BENCH_drift.json)")
	)
	flag.Parse()

	cfg := bench.Config{
		N: *n, Threads: *threads, Seed: *seed, OutDir: *outdir,
		SweepJSON: *sweepJSON, Fig9JSON: *fig9JSON, DriftJSON: *driftJSON,
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "dpcbench:", err)
			os.Exit(1)
		}
	}
	var selected []bench.Experiment
	if *exp == "all" {
		selected = bench.Experiments()
	} else {
		for _, name := range strings.Split(*exp, ",") {
			name = strings.TrimSpace(name)
			e, ok := bench.Lookup(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "dpcbench: unknown experiment %q; have %s\n", name, strings.Join(bench.Names(), ", "))
				os.Exit(1)
			}
			selected = append(selected, e)
		}
	}
	rec := newRecord(cfg)
	for _, e := range selected {
		start := time.Now()
		if err := e.Run(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "dpcbench: %s: %v\n", e.Name, err)
			os.Exit(1)
		}
		rec.Experiments = append(rec.Experiments, experimentRecord{
			Name: e.Name, Title: e.Title, Seconds: time.Since(start).Seconds(),
		})
	}
	if *jsonPath != "" {
		if err := writeRecord(*jsonPath, rec); err != nil {
			fmt.Fprintln(os.Stderr, "dpcbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "dpcbench: wrote %s\n", *jsonPath)
	}
}

// record is the -json output: enough configuration and environment to
// compare before/after numbers of a change across runs of the harness.
type record struct {
	Timestamp   string             `json:"timestamp"`
	GoVersion   string             `json:"go_version"`
	GOOS        string             `json:"goos"`
	GOARCH      string             `json:"goarch"`
	NumCPU      int                `json:"num_cpu"`
	N           int                `json:"n"`
	Threads     int                `json:"threads"`
	Seed        int64              `json:"seed"`
	Experiments []experimentRecord `json:"experiments"`
}

type experimentRecord struct {
	Name    string  `json:"name"`
	Title   string  `json:"title"`
	Seconds float64 `json:"seconds"`
}

func newRecord(cfg bench.Config) *record {
	threads := cfg.Threads
	if threads <= 0 {
		threads = runtime.GOMAXPROCS(0)
	}
	return &record{
		Timestamp: time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		N:         cfg.N,
		Threads:   threads,
		Seed:      cfg.Seed,
	}
}

func writeRecord(path string, rec *record) error {
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
