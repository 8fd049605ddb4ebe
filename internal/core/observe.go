package core

import (
	"math"

	"repro/internal/geom"
)

// CenterDist returns the distance from p to the center point of the
// cluster labeled l, or NaN when l is NoCluster — the quantity a drift
// tracker observes. One O(dim) kernel call; p must have the model's
// dimensionality and l must be a label this model produced.
func (m *Model) CenterDist(p []float64, l int32) float64 {
	if l == NoCluster {
		return math.NaN()
	}
	return math.Sqrt(geom.SqDistToIdx(m.ds, p, m.res.Centers[l]))
}

// ReferenceDists samples the training points' distance to their
// assigned cluster centers — the fit-time distribution a drift tracker
// scores serve-time assigns against. Sampling is strided so the cost is
// O(maxSample * dim) regardless of n (<= 0 samples every point); noise
// points contribute NaN entries, so the caller's reference captures the
// training halo rate too.
func (m *Model) ReferenceDists(maxSample int) []float64 {
	n := m.ds.N
	stride := 1
	if maxSample > 0 && n > maxSample {
		stride = (n + maxSample - 1) / maxSample
	}
	dists := make([]float64, 0, (n+stride-1)/stride)
	for i := 0; i < n; i += stride {
		l := m.res.Labels[i]
		if l == NoCluster {
			dists = append(dists, math.NaN())
			continue
		}
		dists = append(dists, math.Sqrt(geom.SqDistIdx(m.ds, int32(i), m.res.Centers[l])))
	}
	return dists
}
