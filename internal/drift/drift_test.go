package drift

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// TestP2Accuracy checks the streaming estimator against exact sample
// quantiles on uniform and skewed inputs.
func TestP2Accuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		name string
		gen  func() float64
	}{
		{"uniform", func() float64 { return rng.Float64() * 100 }},
		{"exponential", func() float64 { return rng.ExpFloat64() * 10 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 50000
			var s50, s90 p2
			s50.init(0.5)
			s90.init(0.9)
			xs := make([]float64, n)
			for i := range xs {
				x := tc.gen()
				xs[i] = x
				s50.observe(x)
				s90.observe(x)
			}
			sort.Float64s(xs)
			q50, q90 := nearestRank(xs, 0.5), nearestRank(xs, 0.9)
			if rel := math.Abs(s50.estimate()-q50) / q50; rel > 0.05 {
				t.Errorf("q50 estimate %g vs exact %g (rel %g)", s50.estimate(), q50, rel)
			}
			if rel := math.Abs(s90.estimate()-q90) / q90; rel > 0.05 {
				t.Errorf("q90 estimate %g vs exact %g (rel %g)", s90.estimate(), q90, rel)
			}
		})
	}
}

func TestP2SmallSamples(t *testing.T) {
	var s p2
	s.init(0.5)
	if got := s.estimate(); got != 0 {
		t.Errorf("empty estimate = %g, want 0", got)
	}
	s.observe(3)
	if got := s.estimate(); got != 3 {
		t.Errorf("1-sample estimate = %g, want 3", got)
	}
	s.observe(1)
	s.observe(2)
	if got := s.estimate(); got != 2 {
		t.Errorf("3-sample median = %g, want 2", got)
	}
}

func TestNewReference(t *testing.T) {
	nan := math.NaN()
	ref := NewReference([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, nan, nan})
	if ref.N != 10 {
		t.Errorf("N = %d, want 10", ref.N)
	}
	if want := 2.0 / 12.0; math.Abs(ref.HaloRate-want) > 1e-12 {
		t.Errorf("HaloRate = %g, want %g", ref.HaloRate, want)
	}
	if ref.Q50 != 5 {
		t.Errorf("Q50 = %g, want 5", ref.Q50)
	}
	if ref.Q90 != 9 {
		t.Errorf("Q90 = %g, want 9", ref.Q90)
	}
	empty := NewReference(nil)
	if empty.Q50 != 0 || empty.Q90 != 0 || empty.HaloRate != 0 {
		t.Errorf("empty reference = %+v, want zeros", empty)
	}
}

// TestTrackerScoreTrip streams an in-distribution phase followed by a
// shifted phase and checks the trip fires exactly once, after the shift.
func TestTrackerScoreTrip(t *testing.T) {
	ref := NewReference([]float64{1, 1, 1, 2, 2, 2, 3, 3, 3, 3})
	cfg := Config{WindowPoints: 100, MinPoints: 200, ScoreThreshold: 1.0}
	tr := NewTracker(cfg, ref)

	inDist := make([]float64, 100)
	for i := range inDist {
		inDist[i] = 2
	}
	for i := 0; i < history+3; i++ {
		if observeEach(tr, inDist) {
			t.Fatalf("tripped on in-distribution window %d", i)
		}
	}
	st := tr.Status()
	if st.Tripped || st.Score >= 1.0 {
		t.Fatalf("in-distribution status tripped=%v score=%g", st.Tripped, st.Score)
	}
	if len(st.Windows) != history {
		t.Fatalf("history kept %d windows, want %d (capped)", len(st.Windows), history)
	}

	shifted := make([]float64, 100)
	for i := range shifted {
		shifted[i] = 20 // 10x the reference q50
	}
	if !observeEach(tr, shifted) {
		t.Fatal("shifted window did not trip")
	}
	if observeEach(tr, shifted) {
		t.Fatal("trip reported twice (must latch)")
	}
	st = tr.Status()
	if !st.Tripped {
		t.Fatal("Status.Tripped = false after trip")
	}
	if st.Score < 1.0 {
		t.Errorf("post-shift score = %g, want >= 1", st.Score)
	}
}

// TestTrackerHaloTrip drives the halo-rate condition: the score stays
// flat (distances match the reference) but most points become noise.
func TestTrackerHaloTrip(t *testing.T) {
	ref := NewReference([]float64{2, 2, 2, 2})
	cfg := Config{WindowPoints: 50, MinPoints: 50, HaloThreshold: 0.5}
	tr := NewTracker(cfg, ref)
	batch := make([]float64, 50)
	for i := range batch {
		if i%2 == 0 {
			batch[i] = math.NaN()
		} else {
			batch[i] = 2
		}
	}
	if !observeEach(tr, batch) {
		t.Fatal("50% halo window did not trip at threshold 0.5")
	}
	st := tr.Status()
	if st.HaloRate != 0.5 {
		t.Errorf("HaloRate = %g, want 0.5", st.HaloRate)
	}
	if st.Halo != 25 || st.Observed != 50 {
		t.Errorf("counts halo=%d observed=%d, want 25/50", st.Halo, st.Observed)
	}
}

// TestTrackerMinPoints verifies no trip can fire before MinPoints
// observations even when every window is wildly out of distribution.
func TestTrackerMinPoints(t *testing.T) {
	ref := NewReference([]float64{1, 1, 1, 1})
	cfg := Config{WindowPoints: 10, MinPoints: 100, ScoreThreshold: 0.5}
	tr := NewTracker(cfg, ref)
	far := []float64{50, 50, 50, 50, 50, 50, 50, 50, 50, 50}
	for i := 0; i < 9; i++ {
		if observeEach(tr, far) {
			t.Fatalf("tripped at %d observations, MinPoints=100", (i+1)*10)
		}
	}
	if !observeEach(tr, far) {
		t.Fatal("did not trip once past MinPoints")
	}
}

// TestTrackerDisabledThresholds: both thresholds <= 0 means collection
// without trips.
func TestTrackerDisabledThresholds(t *testing.T) {
	tr := NewTracker(Config{WindowPoints: 10, MinPoints: 1}, NewReference([]float64{1}))
	far := []float64{99, 99, 99, 99, 99, 99, 99, 99, 99, 99}
	for i := 0; i < 20; i++ {
		if observeEach(tr, far) {
			t.Fatal("tripped with both thresholds disabled")
		}
	}
	if st := tr.Status(); st.Score < 1 {
		t.Errorf("score = %g, want large (collection must still run)", st.Score)
	}
}

// TestTrackerPartialWindowStatus: before the first window closes the
// status reflects the live partial window.
func TestTrackerPartialWindowStatus(t *testing.T) {
	tr := NewTracker(Config{WindowPoints: 1000}, NewReference([]float64{1, 2, 3}))
	observeEach(tr, []float64{4, 4, 4, 4, math.NaN()})
	st := tr.Status()
	if st.Observed != 5 || st.Halo != 1 {
		t.Fatalf("observed=%d halo=%d, want 5/1", st.Observed, st.Halo)
	}
	if st.Q50 != 4 {
		t.Errorf("partial-window q50 = %g, want 4", st.Q50)
	}
	if st.HaloRate != 0.2 {
		t.Errorf("partial-window halo rate = %g, want 0.2", st.HaloRate)
	}
}

// TestTrackerConcurrent hammers one tracker from many goroutines under
// -race: batches, status reads, and trip checks interleaved.
func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker(
		Config{WindowPoints: 64, MinPoints: 64, ScoreThreshold: 2},
		NewReference([]float64{1, 2, 3, 4, 5}),
	)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			batch := make([]float64, 33)
			for it := 0; it < 50; it++ {
				for i := range batch {
					if rng.Intn(10) == 0 {
						batch[i] = math.NaN()
					} else {
						batch[i] = rng.Float64() * 10
					}
				}
				observeEach(tr, batch)
				_ = tr.Status()
				_ = tr.Tripped()
			}
		}(int64(g))
	}
	wg.Wait()
	st := tr.Status()
	if st.Observed != 8*50*33 {
		t.Errorf("observed = %d, want %d", st.Observed, 8*50*33)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	if c.windowPoints() != 4096 {
		t.Errorf("windowPoints = %d", c.windowPoints())
	}
	if c.minPoints() != 8192 {
		t.Errorf("minPoints = %d", c.minPoints())
	}
	if history != 8 {
		t.Errorf("history = %d", history)
	}
	if c.RefitCooldown() <= 0 {
		t.Errorf("RefitCooldown = %v", c.RefitCooldown())
	}
	if c.RefSample() != 4096 {
		t.Errorf("RefSample = %d", c.RefSample())
	}
	if c.SampleStride() != 16 {
		t.Errorf("SampleStride = %d", c.SampleStride())
	}
}

// observeEach folds dists into tr one point at a time, each a batch of
// one with its own noise count and, unless noise, its distance sampled:
// windows close at exactly the point that fills them. It reports
// whether any point newly tripped the tracker.
func observeEach(tr *Tracker, dists []float64) (tripped bool) {
	for _, d := range dists {
		halo := int64(0)
		if math.IsNaN(d) {
			halo = 1
		}
		if tr.ObserveSampled(1, halo, []float64{d}) {
			tripped = true
		}
	}
	return tripped
}
