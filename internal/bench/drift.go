package bench

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/drift"
	"repro/internal/service"
)

// Drift measures what the drift trackers cost on the assign hot path —
// the per-point distance observation, quantile-sketch update, and one
// mutex acquisition per batch — by timing identical assign workloads
// with tracking off and on (trips disabled, so the on leg pays pure
// bookkeeping). Both legs take the fastest of several trials, the usual
// defense against scheduler noise on small machines. The second half
// measures the trip-to-swap story end to end: a window slide replaces
// the dataset with a shifted cloud, shifted traffic trips the halo
// threshold, and the experiment clocks how long the background refit
// takes to swap in while counting assign failures (which must be zero —
// the old model serves throughout). With Config.DriftJSON set, the run
// is also written as a machine-readable record (BENCH_drift.json).
func (c Config) Drift() error {
	w := c.w()
	header(w, "Drift tracking: assign overhead and background refit swap")

	const (
		batch  = 2048
		rounds = 256
		trials = 5
	)
	d := data.SSet(2, c.n(), c.Seed)
	n := d.Points.N
	p := core.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin, Seed: c.Seed}
	queries := make([][]float64, batch)
	for i := range queries {
		queries[i] = append([]float64(nil), d.Points.At(i%n)...)
	}
	fmt.Fprintf(w, "dataset %s (n=%d), algorithm Ex-DPC, %d assigns/round x %d rounds, best of %d trials, workers=%d\n",
		d.Name, n, batch, rounds, trials, c.threads())

	// One timed trial: rounds batches against a warm model.
	trial := func(s *service.Service) (float64, error) {
		start := time.Now()
		for r := 0; r < rounds; r++ {
			labels, _, err := s.Assign(d.Name, "Ex-DPC", p, queries)
			if err != nil {
				return 0, err
			}
			if len(labels) != batch {
				return 0, fmt.Errorf("assign returned %d labels", len(labels))
			}
		}
		return secs(time.Since(start)), nil
	}
	leg := func(cfg *drift.Config) (float64, error) {
		s := service.New(service.Options{Workers: c.threads(), Drift: cfg})
		if _, err := s.PutDataset(d.Name, d.Points); err != nil {
			return 0, err
		}
		if _, _, err := s.Assign(d.Name, "Ex-DPC", p, queries[:1]); err != nil { // warm fit
			return 0, err
		}
		best := 0.0
		for t := 0; t < trials; t++ {
			sec, err := trial(s)
			if err != nil {
				return 0, err
			}
			if best == 0 || sec < best {
				best = sec
			}
		}
		return best, nil
	}

	offSec, err := leg(nil)
	if err != nil {
		return fmt.Errorf("drift off leg: %w", err)
	}
	// Trips disabled: the on leg pays observation cost only.
	onSec, err := leg(&drift.Config{ScoreThreshold: 0, HaloThreshold: 0})
	if err != nil {
		return fmt.Errorf("drift on leg: %w", err)
	}
	points := float64(batch * rounds)
	overhead := (onSec - offSec) / offSec * 100
	fmt.Fprintf(w, "tracking off: %8.3fs  %12.0f points/s\n", offSec, points/offSec)
	fmt.Fprintf(w, "tracking on:  %8.3fs  %12.0f points/s  (%+.2f%% overhead)\n", onSec, points/onSec, overhead)

	// Refit swap: slide the window to a shifted cloud and keep assigning
	// shifted points until the background refit swaps in (first batch
	// that labels non-noise again). Halo trips fire fast — the window is
	// small so the swap latency is dominated by the refit itself.
	cfg := &drift.Config{WindowPoints: 512, MinPoints: 512, HaloThreshold: 0.5, Cooldown: time.Hour}
	s := service.New(service.Options{Workers: c.threads(), Drift: cfg, Window: int64(n)})
	if _, err := s.PutDataset(d.Name, d.Points); err != nil {
		return err
	}
	if _, _, err := s.Assign(d.Name, "Ex-DPC", p, queries); err != nil {
		return err
	}
	const shift = 1e9
	shifted := make([][]float64, n)
	shiftedQ := make([][]float64, batch)
	for i := range shifted {
		row := d.Points.At(i)
		r := make([]float64, len(row))
		for j, x := range row {
			r[j] = x + shift
		}
		shifted[i] = r
		if i < batch {
			shiftedQ[i] = r
		}
	}
	if _, err := s.AppendPoints(d.Name, shifted); err != nil {
		return err
	}
	var failures int
	swapStart := time.Now()
	swapSec := -1.0
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		labels, _, err := s.Assign(d.Name, "Ex-DPC", p, shiftedQ)
		if err != nil {
			failures++
			continue
		}
		clustered := 0
		for _, l := range labels {
			if l != core.NoCluster {
				clustered++
			}
		}
		if clustered > 0 { // the refitted model is serving
			swapSec = secs(time.Since(swapStart))
			break
		}
	}
	if swapSec < 0 {
		return fmt.Errorf("refit never swapped in")
	}
	st := s.Stats()
	if st.DriftRefits < 1 || failures > 0 {
		return fmt.Errorf("refit swap: refits=%d failures=%d", st.DriftRefits, failures)
	}
	fmt.Fprintf(w, "refit swap: shifted window tripped after %d observations; old model served %s with 0 failed assigns until the swap\n",
		st.DriftTrips*int64(cfg.WindowPoints), time.Duration(swapSec*float64(time.Second)).Round(time.Millisecond))

	if c.DriftJSON != "" {
		rec := driftRecord{
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS, GOARCH: runtime.GOARCH,
			NumCPU: runtime.NumCPU(), Threads: c.threads(),
			N: n, Batch: batch, Rounds: rounds, Trials: trials, Seed: c.Seed,
			Algorithm:       "Ex-DPC",
			OffSeconds:      offSec,
			OnSeconds:       onSec,
			OffPointsPerSec: points / offSec,
			OnPointsPerSec:  points / onSec,
			OverheadPct:     overhead,
			SwapSeconds:     swapSec,
			SwapFailures:    failures,
			Refits:          st.DriftRefits,
		}
		if err := writeRecord(c.DriftJSON, rec); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", c.DriftJSON)
	}
	return nil
}

// driftRecord is the machine-readable form of one Drift run.
type driftRecord struct {
	GoVersion       string  `json:"go_version"`
	GOOS            string  `json:"goos"`
	GOARCH          string  `json:"goarch"`
	NumCPU          int     `json:"num_cpu"`
	Threads         int     `json:"threads"`
	N               int     `json:"n"`
	Batch           int     `json:"batch"`
	Rounds          int     `json:"rounds"`
	Trials          int     `json:"trials"`
	Seed            int64   `json:"seed"`
	Algorithm       string  `json:"algorithm"`
	OffSeconds      float64 `json:"tracking_off_seconds"`
	OnSeconds       float64 `json:"tracking_on_seconds"`
	OffPointsPerSec float64 `json:"tracking_off_points_per_sec"`
	OnPointsPerSec  float64 `json:"tracking_on_points_per_sec"`
	OverheadPct     float64 `json:"overhead_pct"`
	SwapSeconds     float64 `json:"refit_swap_seconds"`
	SwapFailures    int     `json:"refit_swap_failed_assigns"`
	Refits          int64   `json:"refits"`
}
