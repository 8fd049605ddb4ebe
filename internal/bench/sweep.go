package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/service"
)

// sweepScales is the K-point d_cut grid the experiment amortizes one
// index over: scales of the dataset's default cut distance, bracketing
// it the way an interactive tuning session would. The index's build
// cost grows with the square of the grid's maximum (edge count is
// quadratic in d_cut), so the bracket stays near the default rather
// than doubling it.
var sweepScales = []float64{0.5, 0.65, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3}

// ParamSweep measures what the density index buys during parameter
// tuning: clustering one dataset at K d_cut settings as K independent
// fits (the only option before /v1/sweep) versus one POST /v1/sweep
// (one index build amortized over K re-cuts). Labels are verified
// identical per setting — the index is exact, so the speedup is free.
// With Config.SweepJSON set, the run is also written as a
// machine-readable record (BENCH_param_sweep.json).
func (c Config) ParamSweep() error {
	w := c.w()
	header(w, "Parameter sweep: K fresh fits vs one density index re-cut K times")

	d := data.SSet(2, c.n(), c.Seed)
	settings := make([]api.SweepSetting, len(sweepScales))
	for i, s := range sweepScales {
		settings[i] = api.SweepSetting{DCut: d.DCut * s, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin}
	}
	k := len(settings)
	fmt.Fprintf(w, "dataset %s (n=%d), algorithm Ex-DPC, %d settings, d_cut %g..%g, workers=%d\n",
		d.Name, d.Points.N, k, settings[0].DCut, settings[k-1].DCut, c.threads())

	// Baseline: K independent fits through the service, no index resident
	// — each setting pays a full ClusterDataset pass.
	fits := service.New(service.Options{Workers: c.threads(), CacheSize: 2 * k})
	if _, err := fits.PutDataset(d.Name, d.Points); err != nil {
		return err
	}
	baseline := make([]*core.Result, k)
	fitTimes := make([]float64, k)
	runtime.GC()
	stop := make(chan struct{})
	peakC := heapPeak(stop)
	start := time.Now()
	for i, set := range settings {
		p := core.Params{DCut: set.DCut, RhoMin: set.RhoMin, DeltaMin: set.DeltaMin, Seed: c.Seed}
		t0 := time.Now()
		fr, err := fits.Fit(d.Name, "Ex-DPC", p)
		if err != nil {
			return fmt.Errorf("sweep baseline dcut=%g: %w", set.DCut, err)
		}
		fitTimes[i] = secs(time.Since(t0))
		if fr.IndexCut || fr.CacheHit {
			return fmt.Errorf("sweep baseline dcut=%g was not a fresh fit", set.DCut)
		}
		baseline[i] = fr.Model.Result()
	}
	fitTotal := time.Since(start)
	close(stop)
	fitPeak := <-peakC

	// Sweep: a fresh service, one call, one index build.
	swp := service.New(service.Options{Workers: c.threads(), CacheSize: 2 * k})
	if _, err := swp.PutDataset(d.Name, d.Points); err != nil {
		return err
	}
	runtime.GC()
	stop = make(chan struct{})
	peakC = heapPeak(stop)
	start = time.Now()
	resp, err := swp.Sweep(api.SweepRequest{
		Dataset: d.Name, Algorithm: "Ex-DPC", Settings: settings, IncludeLabels: true,
	})
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	sweepTotal := time.Since(start)
	close(stop)
	sweepPeak := <-peakC

	st := swp.Stats()
	if st.IndexBuilds != 1 || st.IndexCuts != int64(k) {
		return fmt.Errorf("sweep paid %d builds / %d cuts, want 1/%d", st.IndexBuilds, st.IndexCuts, k)
	}
	for i := range settings {
		want := baseline[i].Labels
		got := resp.Results[i].Labels
		if len(got) != len(want) {
			return fmt.Errorf("sweep dcut=%g: %d labels vs %d from the fit", settings[i].DCut, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				return fmt.Errorf("sweep dcut=%g: label %d differs (index %d, fit %d)",
					settings[i].DCut, j, got[j], want[j])
			}
		}
	}

	fmt.Fprintf(w, "%-10s %10s %9s %8s\n", "d_cut", "fit", "clusters", "noise")
	for i, set := range settings {
		fmt.Fprintf(w, "%-10g %9.3fs %9d %8d\n",
			set.DCut, fitTimes[i], resp.Results[i].Clusters, resp.Results[i].Noise)
	}
	speedup := secs(fitTotal) / secs(sweepTotal)
	fmt.Fprintf(w, "%d fresh fits:           %8.3fs  peak heap %4d MiB\n",
		k, secs(fitTotal), fitPeak>>20)
	fmt.Fprintf(w, "1 sweep (build+%d cuts): %8.3fs  peak heap %4d MiB  (%.1fx faster, labels identical)\n",
		k, secs(sweepTotal), sweepPeak>>20, speedup)
	maxFit := 0.0
	for _, ft := range fitTimes {
		if ft > maxFit {
			maxFit = ft
		}
	}
	fmt.Fprintf(w, "sweep vs one fit: %.2fx the slowest single fit (%0.3fs) buys all %d settings\n",
		secs(sweepTotal)/maxFit, maxFit, k)

	if c.SweepJSON != "" {
		rec := sweepRecord{
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS, GOARCH: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), Threads: c.threads(),
			N: d.Points.N, Settings: k, Seed: c.Seed,
			Algorithm:      "Ex-DPC",
			FitSeconds:     fitTimes,
			FitsTotalSec:   secs(fitTotal),
			SweepTotalSec:  secs(sweepTotal),
			FitsPeakHeap:   fitPeak,
			SweepPeakHeap:  sweepPeak,
			Speedup:        speedup,
			VsSlowedstFit:  secs(sweepTotal) / maxFit,
			LabelsVerified: true,
		}
		if err := writeRecord(c.SweepJSON, rec); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", c.SweepJSON)
	}
	return nil
}

// sweepRecord is the machine-readable form of one ParamSweep run.
type sweepRecord struct {
	GoVersion      string    `json:"go_version"`
	GOOS           string    `json:"goos"`
	GOARCH         string    `json:"goarch"`
	NumCPU         int       `json:"num_cpu"`
	Threads        int       `json:"threads"`
	N              int       `json:"n"`
	Settings       int       `json:"settings"`
	Seed           int64     `json:"seed"`
	Algorithm      string    `json:"algorithm"`
	FitSeconds     []float64 `json:"fit_seconds"`
	FitsTotalSec   float64   `json:"fits_total_seconds"`
	SweepTotalSec  float64   `json:"sweep_total_seconds"`
	FitsPeakHeap   uint64    `json:"fits_peak_heap_bytes"`
	SweepPeakHeap  uint64    `json:"sweep_peak_heap_bytes"`
	Speedup        float64   `json:"speedup_sweep_vs_fits"`
	VsSlowedstFit  float64   `json:"sweep_vs_slowest_single_fit"`
	LabelsVerified bool      `json:"labels_verified"`
}

// heapPeak samples HeapInuse until stop closes and reports the maximum —
// a peak-RSS proxy for comparing how much resident memory a workload
// forces, which cumulative alloc counters hide.
func heapPeak(stop <-chan struct{}) <-chan uint64 {
	out := make(chan uint64, 1)
	go func() {
		var ms runtime.MemStats
		peak := uint64(0)
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > peak {
				peak = ms.HeapInuse
			}
			select {
			case <-stop:
				out <- peak
				return
			case <-time.After(2 * time.Millisecond):
			}
		}
	}()
	return out
}
