package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
)

// Table2 reproduces "Rand index of LSH-DDP, Approx-DPC, and S-Approx-DPC
// on Syn with different noise rate". Ground truth is Ex-DPC at the same
// parameters; eps = 1.0 for S-Approx-DPC, as in the paper.
func (c Config) Table2() error {
	w := c.w()
	header(w, "Table 2: Rand index on Syn vs noise rate (ground truth: Ex-DPC)")
	fmt.Fprintf(w, "%-10s %10s %12s %14s\n", "Noise rate", "LSH-DDP", "Approx-DPC", "S-Approx-DPC")
	for _, rate := range []float64{0.01, 0.02, 0.04, 0.08, 0.16} {
		ds := data.Syn(2*c.n(), rate, c.Seed)
		p := c.params(ds)
		truth, err := run(core.ExDPC{}, ds.Points, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10.2f", rate)
		for _, alg := range approxAlgs() {
			res, err := run(alg, ds.Points, p)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %12.3f", eval.RandIndex(truth.Labels, res.Labels))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Table3 reproduces "Rand index on S1, S2, S3, and S4" (robustness to
// cluster overlap; 15 Gaussian clusters each).
func (c Config) Table3() error {
	w := c.w()
	header(w, "Table 3: Rand index on S1-S4 (ground truth: Ex-DPC)")
	fmt.Fprintf(w, "%-8s %10s %12s %14s\n", "Dataset", "LSH-DDP", "Approx-DPC", "S-Approx-DPC")
	for grade := 1; grade <= 4; grade++ {
		ds := data.SSet(grade, 5000, c.Seed)
		p := c.params(ds)
		truth, err := run(core.ExDPC{}, ds.Points, p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s", ds.Name)
		for _, alg := range approxAlgs() {
			res, err := run(alg, ds.Points, p)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %12.3f", eval.RandIndex(truth.Labels, res.Labels))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Table4 reproduces "Rand index of LSH-DDP and Approx-DPC on real
// datasets" (default d_cut per dataset). Each row also prints the
// ground truth's cluster count and noise share: a ground truth of one
// cluster and mostly noise makes a high Rand index cheap to reach.
func (c Config) Table4() error {
	w := c.w()
	header(w, "Table 4: Rand index on real-dataset stand-ins (ground truth: Ex-DPC)")
	fmt.Fprintf(w, "%-12s %8s %7s %10s %12s\n", "Dataset", "clusters", "noise", "LSH-DDP", "Approx-DPC")
	for _, ds := range c.realDatasets() {
		p := c.params(ds)
		truth, err := run(core.ExDPC{}, ds.Points, p)
		if err != nil {
			return err
		}
		noise := 0
		for _, l := range truth.Labels {
			if l == core.NoCluster {
				noise++
			}
		}
		fmt.Fprintf(w, "%-12s %8d %6.1f%%", ds.Name, truth.NumClusters(), 100*float64(noise)/float64(len(truth.Labels)))
		for _, alg := range []core.Algorithm{core.LSHDDP{}, core.ApproxDPC{}} {
			res, err := run(alg, ds.Points, p)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %12.3f", eval.RandIndex(truth.Labels, res.Labels))
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Table5 reproduces "Running time [sec] vs accuracy (Rand index) of
// S-Approx-DPC" under an epsilon sweep on the Airline and Household
// stand-ins (12 threads in the paper; Config.Threads here).
func (c Config) Table5() error {
	w := c.w()
	header(w, "Table 5: S-Approx-DPC epsilon sweep (time [s] / Rand index)")
	dss := []*data.Dataset{data.AirlineLike(c.n(), c.Seed), data.HouseholdLike(c.n(), c.Seed)}
	fmt.Fprintf(w, "%-6s", "eps")
	for _, ds := range dss {
		fmt.Fprintf(w, " %12s-time %12s-RI", ds.Name, ds.Name)
	}
	fmt.Fprintln(w)
	truths := make([]*core.Result, len(dss))
	for i, ds := range dss {
		t, err := run(core.ExDPC{}, ds.Points, c.params(ds))
		if err != nil {
			return err
		}
		truths[i] = t
	}
	for _, eps := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		fmt.Fprintf(w, "%-6.1f", eps)
		for i, ds := range dss {
			p := c.params(ds)
			p.Epsilon = eps
			res, err := run(core.SApproxDPC{}, ds.Points, p)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %17.3f %15.3f", secs(res.Timing.Total()), eval.RandIndex(truths[i].Labels, res.Labels))
		}
		fmt.Fprintln(w)
	}
	return nil
}
