// Package drift tracks how far the points a served model labels have
// moved from the distribution the model was fitted on, using O(1) state
// and O(1) work per observation so it can live on the assign hot path.
//
// The observed quantity is each query point's distance to the center of
// the cluster it was assigned to (NaN for points labeled noise). At fit
// time the same quantity over the training points is summarized into a
// Reference (exact sample quantiles plus the training halo rate); at
// serve time a Tracker folds every assigned point into P² streaming
// quantile estimators and a halo counter, closing a window every
// Config.WindowPoints observations. Each closed window yields a drift
// score — the relative shift of the window's q50/q90 against the
// reference — and the tracker latches "tripped" when the score or the
// window halo rate crosses its configured threshold. The serving layer
// reacts to a trip by refitting in the background and swapping the
// model atomically; this package only measures.
package drift

import (
	"math"
	"sort"
	"sync"
	"time"
)

// Config holds the drift-detection policy. The zero value is usable:
// every field has a serving-grade default, and a threshold left <= 0
// disables that trip condition (collection still runs).
type Config struct {
	// WindowPoints is the number of observations per window; a window
	// close is when the score is computed and the trip condition
	// evaluated. <= 0 means 4096.
	WindowPoints int
	// MinPoints gates the trip: no window may trip before this many
	// total observations, so a model never refits off a handful of
	// early outliers. <= 0 means 2*WindowPoints.
	MinPoints int64
	// ScoreThreshold trips the tracker when a closed window's drift
	// score — the relative q50/q90 shift against the fit-time
	// reference — reaches it. <= 0 disables the score trip.
	ScoreThreshold float64
	// HaloThreshold trips the tracker when a closed window's halo
	// (noise-label) rate reaches it. <= 0 disables the halo trip.
	HaloThreshold float64
	// Cooldown is the minimum time between background refits of one
	// model. It is read by the serving layer, not the tracker; <= 0
	// means 30s.
	Cooldown time.Duration
}

const (
	// history is how many closed windows Status reports.
	history = 8
	// refSample caps the training points sampled into the fit-time
	// reference.
	refSample = 4096
	// sampleStride strides the quantile-sketch observations: only every
	// k-th assigned point pays the extra center-distance computation and
	// sketch update. Halo (noise) rates are always counted over every
	// point — a label comparison costs nothing — so only the distance
	// quantiles are sampled.
	sampleStride = 16
)

func (c Config) windowPoints() int {
	if c.WindowPoints > 0 {
		return c.WindowPoints
	}
	return 4096
}

func (c Config) minPoints() int64 {
	if c.MinPoints > 0 {
		return c.MinPoints
	}
	return 2 * int64(c.windowPoints())
}

// RefitCooldown returns the effective minimum spacing between
// background refits.
func (c Config) RefitCooldown() time.Duration {
	if c.Cooldown > 0 {
		return c.Cooldown
	}
	return 30 * time.Second
}

// RefSample returns the reference sample cap.
func (c Config) RefSample() int { return refSample }

// SampleStride returns the sketch-sampling stride.
func (c Config) SampleStride() int { return sampleStride }

// Reference is the fit-time summary a tracker scores against: exact
// quantiles of the training points' distance to their assigned centers
// and the training halo (noise) rate.
type Reference struct {
	Q50      float64 `json:"q50"`
	Q90      float64 `json:"q90"`
	HaloRate float64 `json:"halo_rate"`
	// N is how many training points the quantiles were computed from
	// (noise excluded).
	N int `json:"n"`
}

// NewReference summarizes fit-time center distances. dists holds one
// entry per sampled training point (NaN marks a noise point); the
// quantiles are exact nearest-rank over the non-NaN entries.
func NewReference(dists []float64) Reference {
	clean := make([]float64, 0, len(dists))
	halo := 0
	for _, d := range dists {
		if math.IsNaN(d) {
			halo++
			continue
		}
		clean = append(clean, d)
	}
	ref := Reference{N: len(clean)}
	if len(dists) > 0 {
		ref.HaloRate = float64(halo) / float64(len(dists))
	}
	if len(clean) > 0 {
		sort.Float64s(clean)
		ref.Q50 = nearestRank(clean, 0.5)
		ref.Q90 = nearestRank(clean, 0.9)
	}
	return ref
}

// nearestRank returns the q-quantile of a sorted slice by the
// nearest-rank definition (ceil(q*n), 1-based).
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := int(math.Ceil(q * float64(len(sorted))))
	if r < 1 {
		r = 1
	}
	if r > len(sorted) {
		r = len(sorted)
	}
	return sorted[r-1]
}

// Window is the summary of one closed observation window.
type Window struct {
	Count    int64   `json:"count"`
	Halo     int64   `json:"halo"`
	HaloRate float64 `json:"halo_rate"`
	Q50      float64 `json:"q50"`
	Q90      float64 `json:"q90"`
	Score    float64 `json:"score"`
}

// Status is a point-in-time snapshot of a tracker (the /v1/drift body's
// measurement half).
type Status struct {
	// Observed and Halo are lifetime counts since the tracker was
	// created (i.e. since the served model was fitted or last swapped).
	Observed int64 `json:"observed"`
	Halo     int64 `json:"halo"`
	// HaloRate, Q50, Q90, and Score reflect the most recent closed
	// window, or the live partial window before the first close.
	HaloRate float64 `json:"halo_rate"`
	Q50      float64 `json:"q50"`
	Q90      float64 `json:"q90"`
	Score    float64 `json:"score"`
	// Tripped latches once any window crosses a threshold; it resets
	// only when the tracker is replaced after a model swap.
	Tripped   bool      `json:"tripped"`
	Reference Reference `json:"reference"`
	// Windows lists up to the last 8 closed windows, oldest first.
	Windows []Window `json:"windows,omitempty"`
}

// Tracker accumulates assign-path observations for one served model.
// All methods are safe for concurrent use; ObserveSampled takes one lock
// per batch, not per point.
type Tracker struct {
	cfg Config
	ref Reference

	mu       sync.Mutex
	observed int64
	halo     int64

	// Current (partial) window.
	winCount int64
	winHalo  int64
	q50, q90 p2

	windows []Window // closed windows, oldest first, capped at history
	last    Window   // most recent closed window (zero before the first)
	closed  bool     // at least one window has closed
	tripped bool
}

// NewTracker creates a tracker scoring against ref.
func NewTracker(cfg Config, ref Reference) *Tracker {
	t := &Tracker{cfg: cfg, ref: ref}
	t.q50.init(0.5)
	t.q90.init(0.9)
	return t
}

// Config returns the tracker's policy.
func (t *Tracker) Config() Config { return t.cfg }

// Reference returns the fit-time reference the tracker scores against.
func (t *Tracker) Reference() Reference { return t.ref }

// ObserveSampled folds one labeled batch into the tracker in bulk:
// total points were assigned, halo of them were labeled noise, and
// dists holds the center distances of a sampled subset (NaN entries are
// skipped — their noise is already in halo). This is the hot-path form:
// the caller counts halo from labels, which is nearly free, and pays
// the O(dim) distance plus sketch update only every
// Config.SampleStride() points. Counts are exact; only the quantile
// sketch is sampled. It reports whether this batch newly tripped the
// tracker.
func (t *Tracker) ObserveSampled(total, halo int64, dists []float64) (tripped bool) {
	if total <= 0 {
		return false
	}
	win := int64(t.cfg.windowPoints())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.observed += total
	t.halo += halo
	t.winCount += total
	t.winHalo += halo
	for _, d := range dists {
		if !math.IsNaN(d) {
			t.q50.observe(d)
			t.q90.observe(d)
		}
	}
	if t.winCount >= win {
		tripped = t.closeWindowLocked()
	}
	return tripped
}

// closeWindowLocked finalizes the current window, scores it, and
// evaluates the trip condition. It reports whether this close latched a
// new trip.
func (t *Tracker) closeWindowLocked() bool {
	w := Window{
		Count: t.winCount,
		Halo:  t.winHalo,
		Q50:   t.q50.estimate(),
		Q90:   t.q90.estimate(),
	}
	if w.Count > 0 {
		w.HaloRate = float64(w.Halo) / float64(w.Count)
	}
	w.Score = score(w, t.ref)
	t.last, t.closed = w, true
	t.windows = append(t.windows, w)
	if len(t.windows) > history {
		t.windows = t.windows[len(t.windows)-history:]
	}
	t.winCount, t.winHalo = 0, 0
	t.q50.init(0.5)
	t.q90.init(0.9)

	if t.tripped || t.observed < t.cfg.minPoints() {
		return false
	}
	if (t.cfg.ScoreThreshold > 0 && w.Score >= t.cfg.ScoreThreshold) ||
		(t.cfg.HaloThreshold > 0 && w.HaloRate >= t.cfg.HaloThreshold) {
		t.tripped = true
		return true
	}
	return false
}

// score is the drift score of one window against the reference: the
// larger relative shift of its q50/q90. A reference quantile of zero
// (degenerate training set) contributes nothing — the halo threshold
// still covers that regime.
func score(w Window, ref Reference) float64 {
	s := 0.0
	if ref.Q50 > 0 {
		s = math.Abs(w.Q50-ref.Q50) / ref.Q50
	}
	if ref.Q90 > 0 {
		if v := math.Abs(w.Q90-ref.Q90) / ref.Q90; v > s {
			s = v
		}
	}
	return s
}

// Tripped reports whether the tracker has latched a trip.
func (t *Tracker) Tripped() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.tripped
}

// Status snapshots the tracker.
func (t *Tracker) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := Status{
		Observed:  t.observed,
		Halo:      t.halo,
		Tripped:   t.tripped,
		Reference: t.ref,
		Windows:   append([]Window(nil), t.windows...),
	}
	if t.closed {
		st.HaloRate = t.last.HaloRate
		st.Q50 = t.last.Q50
		st.Q90 = t.last.Q90
		st.Score = t.last.Score
	} else if t.winCount > 0 {
		// Before the first window closes, report the live partial window
		// so /v1/drift is informative from the first assign.
		w := Window{
			Count: t.winCount, Halo: t.winHalo,
			Q50: t.q50.estimate(), Q90: t.q90.estimate(),
		}
		w.HaloRate = float64(w.Halo) / float64(w.Count)
		st.HaloRate = w.HaloRate
		st.Q50, st.Q90 = w.Q50, w.Q90
		st.Score = score(w, t.ref)
	}
	return st
}

// p2 is the P² streaming quantile estimator of Jain & Chlamtac (1985):
// five markers tracking the min, the p/2, p, and (1+p)/2 quantiles, and
// the max, adjusted with a piecewise-parabolic prediction per
// observation — O(1) state and O(1) work, no stored samples.
type p2 struct {
	p     float64
	n     int64      // observations so far
	q     [5]float64 // marker heights
	pos   [5]float64 // marker positions (1-based)
	want  [5]float64 // desired positions
	dwant [5]float64 // desired-position increments per observation
}

func (s *p2) init(p float64) {
	*s = p2{p: p}
	s.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	s.dwant = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
}

func (s *p2) observe(x float64) {
	if s.n < 5 {
		s.q[s.n] = x
		s.n++
		if s.n == 5 {
			// Initial markers are the first five observations, sorted.
			q := s.q[:]
			sort.Float64s(q)
			for i := range s.pos {
				s.pos[i] = float64(i + 1)
			}
		}
		return
	}
	// Locate the cell and update the extremes.
	var k int
	switch {
	case x < s.q[0]:
		s.q[0] = x
		k = 0
	case x >= s.q[4]:
		s.q[4] = x
		k = 3
	default:
		for k = 0; k < 3; k++ {
			if x < s.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		s.pos[i]++
	}
	for i := range s.want {
		s.want[i] += s.dwant[i]
	}
	s.n++
	// Adjust the three interior markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := s.want[i] - s.pos[i]
		if (d >= 1 && s.pos[i+1]-s.pos[i] > 1) || (d <= -1 && s.pos[i-1]-s.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			qn := s.parabolic(i, sign)
			if s.q[i-1] < qn && qn < s.q[i+1] {
				s.q[i] = qn
			} else {
				s.q[i] = s.linear(i, sign)
			}
			s.pos[i] += sign
		}
	}
}

// parabolic is the piecewise-parabolic (P²) height prediction for
// moving marker i by sign (+1/-1) positions.
func (s *p2) parabolic(i int, sign float64) float64 {
	return s.q[i] + sign/(s.pos[i+1]-s.pos[i-1])*
		((s.pos[i]-s.pos[i-1]+sign)*(s.q[i+1]-s.q[i])/(s.pos[i+1]-s.pos[i])+
			(s.pos[i+1]-s.pos[i]-sign)*(s.q[i]-s.q[i-1])/(s.pos[i]-s.pos[i-1]))
}

// linear is the fallback height prediction when the parabolic one would
// leave the markers unordered.
func (s *p2) linear(i int, sign float64) float64 {
	j := i + int(sign)
	return s.q[i] + sign*(s.q[j]-s.q[i])/(s.pos[j]-s.pos[i])
}

// estimate returns the current quantile estimate: the center marker
// once five observations are in, the nearest-rank quantile of the
// stored prefix before that (0 with no observations).
func (s *p2) estimate() float64 {
	if s.n >= 5 {
		return s.q[2]
	}
	if s.n == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.q[:s.n]...)
	sort.Float64s(sorted)
	return nearestRank(sorted, s.p)
}
