package service

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/drift"
	"repro/internal/geom"
)

// driftConfig is a test policy that trips on halo rate quickly and
// never by cooldown (an hour apart — each test sees at most one refit
// per lineage unless it resets the clock itself).
func driftConfig() *drift.Config {
	return &drift.Config{
		WindowPoints:  64,
		MinPoints:     64,
		HaloThreshold: 0.5,
		Cooldown:      time.Hour,
	}
}

// rows extracts dataset rows [lo, hi) as fresh row slices, shifted by
// off on every coordinate — off far beyond the data's extent turns
// every assignment into noise under a model fitted before the shift.
func rows(ds *geom.Dataset, lo, hi int, off float64) [][]float64 {
	out := make([][]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		p := ds.At(i)
		r := make([]float64, len(p))
		for j, x := range p {
			r[j] = x + off
		}
		out = append(out, r)
	}
	return out
}

// noiseCount counts NoCluster labels.
func noiseCount(labels []int32) int {
	n := 0
	for _, l := range labels {
		if l == core.NoCluster {
			n++
		}
	}
	return n
}

// waitFor polls cond for up to 5s — background refits land on their own
// schedule.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestDriftDisabledIsLegacy pins the compatibility contract: without
// Options.Drift the assign path is byte-for-byte the old one — no drift
// state, no stale serving, identical counters. An append is just a new
// version: the next assign fits it.
func TestDriftDisabledIsLegacy(t *testing.T) {
	s := New(Options{Workers: 2})
	d, p := fixture(t, 800)
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	labels, _, err := s.Assign("s2", "Scan", p, rows(d.Points, 0, 100, 0))
	if err != nil || len(labels) != 100 {
		t.Fatalf("assign: %v (%d labels)", err, len(labels))
	}
	if _, err := s.AppendPoints("s2", rows(d.Points, 0, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, fr, err := s.Assign("s2", "Scan", p, rows(d.Points, 0, 100, 0)); err != nil || fr.CacheHit {
		t.Fatalf("assign after append: err=%v cacheHit=%v, want a fit of the new version", err, fr.CacheHit)
	}
	st := s.Stats()
	if st.CacheMisses != 2 {
		t.Errorf("cache misses = %d, want 2 (one fit per version)", st.CacheMisses)
	}
	if st.DriftModels != 0 || st.DriftTrips != 0 || st.DriftStaleServes != 0 {
		t.Fatalf("drift counters moved without drift enabled: %+v", st)
	}
	resp, err := s.Drift("s2", "")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Enabled || len(resp.Models) != 0 {
		t.Fatalf("Drift() = %+v, want disabled and empty", resp)
	}
}

// TestDriftLineageLifecycle: the lineage set belongs to the dataset's
// upload history. More distinct parameter sets than the cap keep
// drift_models within it; an append carries the set to the new
// version; a replacing re-upload and a Reconcile eviction retire it.
func TestDriftLineageLifecycle(t *testing.T) {
	cfg := driftConfig()
	cfg.HaloThreshold = 0 // no trips in this test
	s := New(Options{Workers: 2, Drift: cfg})
	d, p := fixture(t, 400)
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	batch := rows(d.Points, 0, 20, 0)
	limit := s.driftStatesCap()
	for i := 0; i < limit+3; i++ {
		q := p
		q.DeltaMin = p.DeltaMin * (1 + float64(i)/1000)
		if _, _, err := s.Assign("s2", "Ex-DPC", q, batch); err != nil {
			t.Fatal(err)
		}
	}
	models := s.Stats().DriftModels
	if models != limit {
		t.Fatalf("drift_models = %d after %d parameter sets, want the cap %d", models, limit+3, limit)
	}
	if _, err := s.AppendPoints("s2", rows(d.Points, 0, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().DriftModels; got != models {
		t.Fatalf("drift_models = %d after an append, want %d (the slide keeps its lineages)", got, models)
	}
	if _, err := s.PutDataset("s2", data.SSet(2, 400, 2).Points); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().DriftModels; got != 0 {
		t.Fatalf("drift_models = %d after a replacing re-upload, want 0", got)
	}
	if _, _, err := s.Assign("s2", "Ex-DPC", p, batch); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().DriftModels; got != 1 {
		t.Fatalf("drift_models = %d after one assign, want 1", got)
	}
	if rs := s.Reconcile(func(string) bool { return false }); rs.DatasetsEvicted != 1 {
		t.Fatalf("reconcile = %+v, want one eviction", rs)
	}
	if got := s.Stats().DriftModels; got != 0 {
		t.Fatalf("drift_models = %d after a Reconcile eviction, want 0", got)
	}
}

// TestDriftStaleServeAndAdopt covers the version-advance path without a
// trip: after an append the pinned model keeps serving (counted as
// stale serves), and once a model for the new version exists in the
// cache — here via an explicit synchronous fit — the lineage adopts it
// without fitting again.
func TestDriftStaleServeAndAdopt(t *testing.T) {
	cfg := driftConfig()
	cfg.HaloThreshold = 0 // no trips in this test
	s := New(Options{Workers: 2, Drift: cfg})
	d, p := fixture(t, 800)
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Assign("s2", "Scan", p, rows(d.Points, 0, 50, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AppendPoints("s2", rows(d.Points, 0, 10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, fr, err := s.Assign("s2", "Scan", p, rows(d.Points, 0, 50, 0)); err != nil || !fr.CacheHit {
		t.Fatalf("stale serve: err=%v cacheHit=%v", err, fr.CacheHit)
	}
	if st := s.Stats(); st.DriftStaleServes != 1 || st.DriftModels != 1 {
		t.Fatalf("stats after stale serve: staleServes=%d models=%d", st.DriftStaleServes, st.DriftModels)
	}
	resp, err := s.Drift("s2", "Scan")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Models) != 1 || resp.Models[0].Version != 1 {
		t.Fatalf("Drift() before adopt = %+v", resp.Models)
	}
	// A synchronous fit materializes the v2 model; the next assign adopts
	// it from the cache — no new fit, no extra stale serve.
	if _, err := s.Fit("s2", "Scan", p); err != nil {
		t.Fatal(err)
	}
	misses := s.Stats().CacheMisses
	if _, _, err := s.Assign("s2", "Scan", p, rows(d.Points, 0, 50, 0)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CacheMisses != misses || st.DriftStaleServes != 1 {
		t.Fatalf("adopt refitted or stale-served: misses %d->%d staleServes=%d", misses, st.CacheMisses, st.DriftStaleServes)
	}
	if resp, _ = s.Drift("s2", ""); len(resp.Models) != 1 || resp.Models[0].Version != 2 {
		t.Fatalf("Drift() after adopt = %+v", resp.Models)
	}
}

// TestServeFitAppendAfterVersionCheck forces an append between the
// assign path's version check and its action on it. The read must not
// fit at all — neither the checked version (its model was purged) nor
// the appended one — and the lineage must stay pinned at the version
// its model was fitted on, served stale like any version advance.
func TestServeFitAppendAfterVersionCheck(t *testing.T) {
	cfg := driftConfig()
	cfg.HaloThreshold = 0 // no trips in this test
	s := New(Options{Workers: 2, Drift: cfg})
	d, p := fixture(t, 800)
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	_, first, err := s.Assign("s2", "Scan", p, rows(d.Points, 0, 50, 0))
	if err != nil {
		t.Fatal(err)
	}
	appended := false
	s.versionChecked = func() {
		if appended {
			return
		}
		appended = true
		if _, err := s.AppendPoints("s2", rows(d.Points, 0, 10, 0)); err != nil {
			t.Error(err)
		}
	}
	misses := s.Stats().CacheMisses
	_, fr, err := s.Assign("s2", "Scan", p, rows(d.Points, 0, 50, 0))
	s.versionChecked = nil
	if err != nil {
		t.Fatal(err)
	}
	if !appended {
		t.Fatal("seam never fired")
	}
	st := s.Stats()
	if st.CacheMisses != misses {
		t.Errorf("read path fitted: cache misses %d -> %d", misses, st.CacheMisses)
	}
	if fr.Model != first.Model || !fr.CacheHit || st.DriftStaleServes != 1 {
		t.Errorf("raced read served model %p (pinned %p), cacheHit=%v, staleServes=%d",
			fr.Model, first.Model, fr.CacheHit, st.DriftStaleServes)
	}
	resp, err := s.Drift("s2", "Scan")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Models) != 1 || resp.Models[0].Version != 1 {
		t.Fatalf("servedVersion after raced read = %+v, want version 1", resp.Models)
	}
}

// TestDriftTripRefitSwap is the tentpole acceptance scenario: a window
// slide replaces the dataset with a shifted cloud, serve traffic on the
// old model trips the halo threshold, a background refit runs while
// every assign keeps succeeding on the old model, and the refitted
// model swaps in atomically — after which the shifted points label
// cleanly.
func TestDriftTripRefitSwap(t *testing.T) {
	const shift = 1e7
	s := New(Options{Workers: 2, Drift: driftConfig(), Window: 800})
	d, p := fixture(t, 800)
	n := d.Points.N
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	// Warm traffic on v1: clean assigns, no trip.
	labels, _, err := s.Assign("s2", "Scan", p, rows(d.Points, 0, 100, 0))
	if err != nil {
		t.Fatal(err)
	}
	if noiseCount(labels) == len(labels) {
		t.Fatal("v1 traffic labeled all-noise; fixture params are wrong")
	}
	// Slide the whole window to the shifted cloud: same structure,
	// different place. Version advances, models are purged, drift pins
	// keep the old model serving.
	resp, err := s.AppendPoints("s2", rows(d.Points, 0, n, shift))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Version != 2 || resp.Appended != n || resp.Expired != n || resp.N != n {
		t.Fatalf("append = %+v", resp)
	}
	// Shifted traffic: stale-served by the v1 model (all noise), which
	// must trip the tracker and kick the background refit. Every assign
	// must succeed while the refit is in flight.
	for i := 0; i < 4; i++ {
		labels, fr, err := s.Assign("s2", "Scan", p, rows(d.Points, 0, 100, shift))
		if err != nil || len(labels) != 100 {
			t.Fatalf("assign during refit window: %v (%d labels)", err, len(labels))
		}
		if fr.Model == nil {
			t.Fatal("assign served no model")
		}
	}
	if st := s.Stats(); st.DriftTrips == 0 {
		t.Fatalf("tracker never tripped: %+v", st)
	}
	waitFor(t, "background refit", func() bool { return s.Stats().DriftRefits >= 1 })
	// The swapped model was fitted on the shifted cloud: shifted points
	// now label cleanly, and the lineage reports the new version with a
	// fresh (untripped) tracker.
	waitFor(t, "post-swap clean labels", func() bool {
		labels, _, err := s.Assign("s2", "Scan", p, rows(d.Points, 0, 100, shift))
		return err == nil && noiseCount(labels) < len(labels)
	})
	dr, err := s.Drift("s2", "Scan")
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Models) != 1 || dr.Models[0].Version != 2 || dr.Models[0].Refitting {
		t.Fatalf("Drift() after swap = %+v", dr.Models)
	}
	if dr.Models[0].Status != nil && dr.Models[0].Status.Tripped {
		t.Fatalf("tracker not reset after swap: %+v", dr.Models[0].Status)
	}
	if st := s.Stats(); st.DriftRefits != 1 {
		t.Fatalf("refits = %d, want exactly 1 (single-flight + cooldown)", st.DriftRefits)
	}
}

// TestDriftReplicaNeverRefits pins the ring contract: a non-primary
// instance never starts a background refit — even with a tripped
// tracker — and swaps models only when the primary's refit arrives by
// snapshot shipping, which the lineage adopts from the cache without
// fitting.
func TestDriftReplicaNeverRefits(t *testing.T) {
	const shift = 1e7
	d, p := fixture(t, 800)
	n := d.Points.N

	primary := New(Options{Workers: 2, Drift: driftConfig(), Window: 800})
	replica := New(Options{Workers: 2, Drift: driftConfig(), Window: 800})
	replica.SetDriftHooks(func(string) bool { return false }, nil)

	if _, err := primary.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Fit("s2", "Scan", p); err != nil {
		t.Fatal(err)
	}
	// Warm assign traffic pins the v1 lineage on the primary, so the
	// later version advance stale-serves (and can trip) instead of
	// silently fitting v2 on first touch.
	if _, _, err := primary.Assign("s2", "Scan", p, rows(d.Points, 0, 20, 0)); err != nil {
		t.Fatal(err)
	}
	// Ship dataset + model v1 to the replica (what an upload + fit on the
	// primary does through the router).
	for _, raw := range primary.ReplicationSnapshots("s2") {
		if _, err := replica.InstallSnapshot(raw); err != nil {
			t.Fatal(err)
		}
	}
	misses := replica.Stats().CacheMisses
	if misses != 0 {
		t.Fatalf("replica paid %d misses before any traffic", misses)
	}
	// Replica serves reads off the shipped model without fitting.
	if _, fr, err := replica.Assign("s2", "Scan", p, rows(d.Points, 0, 50, 0)); err != nil || !fr.CacheHit {
		t.Fatalf("replica assign: err=%v cacheHit=%v", err, fr.CacheHit)
	}
	if replica.Stats().CacheMisses != 0 {
		t.Fatal("replica assign paid a fit")
	}

	// The window slides on the primary; the new dataset version ships.
	if _, err := primary.AppendPoints("s2", rows(d.Points, 0, n, shift)); err != nil {
		t.Fatal(err)
	}
	for _, raw := range primary.ReplicationSnapshots("s2") {
		if _, err := replica.InstallSnapshot(raw); err != nil {
			t.Fatal(err)
		}
	}
	// Shifted traffic on the replica trips its tracker — but the primary
	// gate must keep it from refitting, stale-serving instead.
	for i := 0; i < 4; i++ {
		if _, _, err := replica.Assign("s2", "Scan", p, rows(d.Points, 0, 100, shift)); err != nil {
			t.Fatal(err)
		}
	}
	st := replica.Stats()
	if st.DriftTrips == 0 {
		t.Fatal("replica tracker never tripped")
	}
	if st.DriftStaleServes == 0 {
		t.Fatal("replica did not stale-serve across the version advance")
	}
	time.Sleep(50 * time.Millisecond) // a wrongly-kicked refit would land here
	if st := replica.Stats(); st.DriftRefits != 0 || st.CacheMisses != 0 {
		t.Fatalf("replica refitted: refits=%d misses=%d", st.DriftRefits, st.CacheMisses)
	}

	// The primary refits (kicked by its own traffic) and ships; the
	// replica adopts the v2 model with zero fits.
	for i := 0; i < 4; i++ {
		if _, _, err := primary.Assign("s2", "Scan", p, rows(d.Points, 0, 100, shift)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "primary refit", func() bool { return primary.Stats().DriftRefits >= 1 })
	for _, raw := range primary.ReplicationSnapshots("s2") {
		if _, err := replica.InstallSnapshot(raw); err != nil {
			t.Fatal(err)
		}
	}
	if _, fr, err := replica.Assign("s2", "Scan", p, rows(d.Points, 0, 50, shift)); err != nil || !fr.CacheHit {
		t.Fatalf("replica post-ship assign: err=%v cacheHit=%v", err, fr.CacheHit)
	}
	dr, err := replica.Drift("s2", "Scan")
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Models) != 1 || dr.Models[0].Version != 2 {
		t.Fatalf("replica Drift() = %+v", dr.Models)
	}
	if st := replica.Stats(); st.DriftRefits != 0 || st.CacheMisses != 0 || st.ModelsReplicated == 0 {
		t.Fatalf("replica end state: refits=%d misses=%d replicated=%d", st.DriftRefits, st.CacheMisses, st.ModelsReplicated)
	}
}

// TestAppendPointsWindow covers the sliding-window arithmetic edges:
// growth below the window, expiry at the window, an append larger than
// the whole window (its own head expires too), and the unbounded
// window=0 mode.
func TestAppendPointsWindow(t *testing.T) {
	d, _ := fixture(t, 800)
	n := d.Points.N

	t.Run("bounded", func(t *testing.T) {
		s := New(Options{Workers: 2, Window: int64(n + 50)})
		if _, err := s.PutDataset("s2", d.Points); err != nil {
			t.Fatal(err)
		}
		// Below the window: pure growth.
		resp, err := s.AppendPoints("s2", rows(d.Points, 0, 30, 0))
		if err != nil {
			t.Fatal(err)
		}
		if resp.N != n+30 || resp.Expired != 0 || resp.Appended != 30 || resp.Version != 2 {
			t.Fatalf("growth append = %+v", resp)
		}
		// Past the window: the oldest rows expire.
		resp, err = s.AppendPoints("s2", rows(d.Points, 0, 40, 0))
		if err != nil {
			t.Fatal(err)
		}
		if resp.N != n+50 || resp.Expired != 20 || resp.Appended != 40 || resp.Version != 3 {
			t.Fatalf("expiring append = %+v", resp)
		}
		// An append larger than the window: every old row AND the append's
		// own head expire; the window is exactly the append's tail.
		big := rows(d.Points, 0, n, 0)
		big = append(big, rows(d.Points, 0, n, 0)...)
		resp, err = s.AppendPoints("s2", big)
		if err != nil {
			t.Fatal(err)
		}
		if resp.N != n+50 || resp.Appended != n+50 || resp.Expired != (n+50)+(2*n-(n+50)) || resp.Version != 4 {
			t.Fatalf("oversized append = %+v", resp)
		}
		st := s.Stats()
		if st.PointsAppended == 0 || st.PointsExpired == 0 {
			t.Fatalf("append counters: %+v", st)
		}
	})

	t.Run("unbounded", func(t *testing.T) {
		s := New(Options{Workers: 2})
		if _, err := s.PutDataset("s2", d.Points); err != nil {
			t.Fatal(err)
		}
		resp, err := s.AppendPoints("s2", rows(d.Points, 0, 100, 0))
		if err != nil {
			t.Fatal(err)
		}
		if resp.N != n+100 || resp.Expired != 0 {
			t.Fatalf("unbounded append = %+v", resp)
		}
	})

	t.Run("validation", func(t *testing.T) {
		s := New(Options{Workers: 2})
		if _, err := s.PutDataset("s2", d.Points); err != nil {
			t.Fatal(err)
		}
		if _, err := s.AppendPoints("nope", rows(d.Points, 0, 1, 0)); err == nil {
			t.Error("unknown dataset accepted")
		}
		if _, err := s.AppendPoints("s2", nil); err == nil {
			t.Error("empty append accepted")
		}
		if _, err := s.AppendPoints("s2", [][]float64{{1, 2, 3}}); err == nil {
			t.Error("wrong dimension accepted")
		}
		bad := [][]float64{{1, 2}}
		bad[0][1] = bad[0][1] / 0 // +Inf
		if _, err := s.AppendPoints("s2", bad); err == nil {
			t.Error("Inf coordinate accepted")
		}
	})
}

// TestAppendMaintainsIndex requires a resident density index to survive
// an append incrementally — the new version is published already
// indexed, so its first covered fits are re-cuts and no build is paid —
// and re-cuts of the updated index to match a fresh fit on the new
// window, the index's usual byte-identity bar. An append with no ready
// index publishes a version without one, and the next decision graph
// builds it once.
func TestAppendMaintainsIndex(t *testing.T) {
	d, p := fixture(t, 800)
	s := New(Options{Workers: 2, Window: int64(d.Points.N)})
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	resp, err := s.AppendPoints("s2", rows(d.Points, 0, 20, 2))
	if err != nil {
		t.Fatal(err)
	}
	if resp.IndexUpdated {
		t.Fatalf("append with no index claims an update: %+v", resp)
	}
	if g, err := s.DecisionGraph("s2", p.DCut, 0); err != nil || g.IndexReused {
		t.Fatalf("decision graph after an unindexed append: reused=%v, err %v", g != nil && g.IndexReused, err)
	}
	if st := s.Stats(); st.IndexBuilds != 1 || st.IndexUpdates != 0 {
		t.Fatalf("builds=%d updates=%d, want 1/0", st.IndexBuilds, st.IndexUpdates)
	}
	resp, err = s.AppendPoints("s2", rows(d.Points, 0, 50, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IndexUpdated {
		t.Fatalf("index not maintained incrementally: %+v", resp)
	}
	if st := s.Stats(); st.IndexUpdates != 1 {
		t.Fatalf("IndexUpdates = %d", st.IndexUpdates)
	}
	if fr, err := s.Fit("s2", "Ex-DPC", p); err != nil || !fr.IndexCut {
		t.Fatalf("first Ex-DPC fit of the appended version: IndexCut=%v, err %v", fr.IndexCut, err)
	}
	// A fit served by an index re-cut must agree with a fresh fit of the
	// same algorithm on the appended window.
	fr, err := s.Fit("s2", "Scan", p)
	if err != nil {
		t.Fatal(err)
	}
	nds, ok := s.Dataset("s2")
	if !ok {
		t.Fatal("dataset vanished")
	}
	alg, ok := core.AlgorithmByName("Scan")
	if !ok {
		t.Fatal("Scan not registered")
	}
	fresh := p
	fresh.Workers = 2
	want, err := alg.ClusterDataset(nds, fresh)
	if err != nil {
		t.Fatal(err)
	}
	got := fr.Model.Result().Labels
	if len(got) != len(want.Labels) {
		t.Fatalf("label lengths differ: %d vs %d", len(got), len(want.Labels))
	}
	for i := range got {
		if got[i] != want.Labels[i] {
			t.Fatalf("label[%d] = %d, want %d (index update diverged from fresh fit)", i, got[i], want.Labels[i])
		}
	}
	if !fr.IndexCut {
		t.Error("Scan fit of the appended version was not an index re-cut")
	}
	if st := s.Stats(); st.IndexBuilds != 1 || st.CacheMisses != 0 {
		t.Errorf("builds=%d fits=%d after the indexed append, want 1/0", st.IndexBuilds, st.CacheMisses)
	}
}

// TestAppendDuringStream pins the capture semantics: a stream that
// started before a window slide finishes on the model it started with —
// every chunk labeled, no error — even though the version advanced and
// the cache purged mid-stream.
func TestAppendDuringStream(t *testing.T) {
	s := New(Options{Workers: 2, Drift: driftConfig(), Window: 800})
	d, p := fixture(t, 800)
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Assign("s2", "Scan", p, rows(d.Points, 0, 10, 0)); err != nil {
		t.Fatal(err)
	}

	const total = 400
	fed := 0
	appended := false
	next := func() ([]float64, error) {
		if fed == total/2 && !appended {
			appended = true
			if _, err := s.AppendPoints("s2", rows(d.Points, 0, 100, 3)); err != nil {
				return nil, fmt.Errorf("mid-stream append: %w", err)
			}
		}
		if fed >= total {
			return nil, io.EOF
		}
		p := d.Points.At(fed % d.Points.N)
		fed++
		return append([]float64(nil), p...), nil
	}
	var got int
	sum, err := s.AssignStream("s2", "Scan", p, next, func(labels []int32) error {
		got += len(labels)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got != total || sum.Points != total {
		t.Fatalf("stream labeled %d/%d points (summary %+v)", got, total, sum)
	}
}

// TestDriftConcurrentRace exercises the whole drift surface at once —
// batch assigns, streams, window appends, decision graphs (building the
// index slot that appends carry forward and fits re-cut), drift reads,
// stats — so the race detector can see the hot path and the refit
// machinery colliding.
func TestDriftConcurrentRace(t *testing.T) {
	cfg := driftConfig()
	cfg.Cooldown = time.Millisecond // allow repeated refits
	s := New(Options{Workers: 2, Drift: cfg, Window: 800})
	d, p := fixture(t, 800)
	n := d.Points.N
	if _, err := s.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Assign("s2", "Scan", p, rows(d.Points, 0, 50, 0)); err != nil {
		t.Fatal(err)
	}

	var (
		wg    sync.WaitGroup
		stop  atomic.Bool
		fails atomic.Int64
	)
	record := func(err error) {
		if err != nil {
			fails.Add(1)
			t.Error(err)
		}
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(shift float64) {
			defer wg.Done()
			for !stop.Load() {
				labels, _, err := s.Assign("s2", "Scan", p, rows(d.Points, 0, 80, shift))
				record(err)
				if err == nil && len(labels) != 80 {
					fails.Add(1)
					t.Errorf("assign returned %d labels", len(labels))
				}
			}
		}(float64(g) * 1e7)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			fed := 0
			_, err := s.AssignStream("s2", "Scan", p, func() ([]float64, error) {
				if fed >= 100 {
					return nil, io.EOF
				}
				q := d.Points.At(fed)
				fed++
				return append([]float64(nil), q...), nil
			}, func([]int32) error { return nil })
			record(err)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_, err := s.AppendPoints("s2", rows(d.Points, 0, 50, 1e7))
			record(err)
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_, err := s.DecisionGraph("s2", p.DCut, 10)
			record(err)
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			_, err := s.Drift("s2", "")
			record(err)
			_ = s.Stats()
		}
	}()

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if fails.Load() > 0 {
		t.Fatalf("%d operations failed under concurrency", fails.Load())
	}
	_ = n
}

// TestDriftReplicaReplacementFitsFresh: a shipped re-upload of different
// points starts a new upload history, not a slide of the old one. The
// replica must retire the lineage it pinned on the replaced points and
// label against a fit of the new ones — the primary's answer — instead
// of stale-serving the replaced model.
func TestDriftReplicaReplacementFitsFresh(t *testing.T) {
	d, p := fixture(t, 800)
	b := data.SSet(2, 800, 2).Points
	primary := New(Options{Workers: 2, Drift: driftConfig()})
	replica := New(Options{Workers: 2, Drift: driftConfig()})
	replica.SetDriftHooks(func(string) bool { return false }, nil)
	ship := func() {
		t.Helper()
		for _, raw := range primary.ReplicationSnapshots("s2") {
			if _, err := replica.InstallSnapshot(raw); err != nil {
				t.Fatal(err)
			}
		}
	}

	if _, err := primary.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	if _, err := primary.Fit("s2", "Scan", p); err != nil {
		t.Fatal(err)
	}
	ship()
	batch := rows(b, 0, 200, 0)
	if _, _, err := replica.Assign("s2", "Scan", p, batch); err != nil {
		t.Fatal(err)
	}

	if info, err := primary.PutDataset("s2", b); err != nil || info.N != b.N {
		t.Fatalf("re-upload: %+v, %v", info, err)
	}
	ship()
	stale := replica.Stats().DriftStaleServes
	want, _, err := primary.Assign("s2", "Scan", p, batch)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := replica.Assign("s2", "Scan", p, batch)
	if err != nil {
		t.Fatal(err)
	}
	alg, _ := core.AlgorithmByName("Scan")
	fresh, err := core.Fit(alg, b, primary.normalize("Scan", p))
	if err != nil {
		t.Fatal(err)
	}
	freshLabels, err := fresh.AssignAll(batch, 2)
	if err != nil {
		t.Fatal(err)
	}
	labelsEqual(t, "primary vs fresh fit of the re-upload", want, freshLabels)
	labelsEqual(t, "replica vs primary", got, want)
	if st := replica.Stats(); st.DriftStaleServes != stale {
		t.Errorf("replica stale-served the replaced model: drift_stale_serves %d -> %d", stale, st.DriftStaleServes)
	}
	dr, err := replica.Drift("s2", "Scan")
	if err != nil {
		t.Fatal(err)
	}
	if len(dr.Models) != 1 || dr.Models[0].Version != 2 {
		t.Fatalf("replica Drift() after the shipped re-upload = %+v, want one lineage at v2", dr.Models)
	}
}
