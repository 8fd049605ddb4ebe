package bench

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/eval"
)

// Others reproduces the §6 paragraph on the competitors dropped from the
// main charts: FastDPeak and DPCG are substantially slower than Ex-DPC
// ("took 8114 and 14390 seconds on Airline"), and CFSFDP-DE's Rand index
// is far below the other approximations ("0.18 on PAMAP2").
func (c Config) Others() error {
	w := c.w()
	header(w, fmt.Sprintf("Others (§6): dropped competitors (n=%d, %d threads)", c.n(), c.threads()))
	air := data.AirlineLike(c.n(), c.Seed)
	pam := data.PAMAP2Like(c.n(), c.Seed)
	fmt.Fprintf(w, "%-12s %14s %18s\n", "Algorithm", "Airline time[s]", "PAMAP2 Rand index")
	truthPam, err := run(core.ExDPC{}, pam.Points, c.params(pam))
	if err != nil {
		return err
	}
	exAir, err := run(core.ExDPC{}, air.Points, c.params(air))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %15.3f %18.3f\n", "Ex-DPC", secs(exAir.Timing.Total()), 1.0)
	for _, alg := range []core.Algorithm{core.FastDPeak{}, core.DPCG{}, core.CFSFDPDE{}} {
		resAir, err := run(alg, air.Points, c.params(air))
		if err != nil {
			return err
		}
		resPam, err := run(alg, pam.Points, c.params(pam))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-12s %15.3f %18.3f\n", alg.Name(),
			secs(resAir.Timing.Total()), eval.RandIndex(truthPam.Labels, resPam.Labels))
	}
	return nil
}
