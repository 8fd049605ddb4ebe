package service

import (
	"bytes"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/api"
	"repro/internal/data"
)

// ownerAndStranger returns one shard index that owns name as primary and
// one that does not.
func ownerAndStranger(t *testing.T, h *ringHarness, name string) (owner, stranger int) {
	t.Helper()
	owner, stranger = -1, -1
	for i, rt := range h.routers {
		if rt.Owns(name) {
			owner = i
		} else if stranger == -1 {
			stranger = i
		}
	}
	if owner == -1 || stranger == -1 {
		t.Skipf("dataset %q has no distinct owner/stranger pair this run", name)
	}
	return owner, stranger
}

// TestDecisionGraphHTTPRoundTrip: the JSON wire form must survive the
// client round trip bit-for-bit — including the density peaks' infinite
// delta, which JSON numbers cannot express (the codec maps it to null).
func TestDecisionGraphHTTPRoundTrip(t *testing.T) {
	svc := New(Options{Workers: 2})
	d := data.SSet(2, 500, 9)
	if _, err := svc.PutDataset("s2", d.Points); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(svc))
	defer ts.Close()
	c := NewClient(ts.URL, testClientOptions())

	got, err := c.DecisionGraph("s2", d.DCut, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := svc.DecisionGraph("s2", d.DCut, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Points) != len(want.Points) {
		t.Fatalf("%d points over HTTP, %d in process", len(got.Points), len(want.Points))
	}
	peaks := 0
	for i := range want.Points {
		a, b := got.Points[i], want.Points[i]
		if a.ID != b.ID ||
			math.Float64bits(a.Rho) != math.Float64bits(b.Rho) ||
			math.Float64bits(a.Delta) != math.Float64bits(b.Delta) {
			t.Fatalf("point %d: HTTP %+v, in-process %+v", i, a, b)
		}
		if math.IsInf(b.Delta, 1) {
			peaks++
		}
	}
	if peaks == 0 {
		t.Fatal("no infinite-delta peak in the graph; the null mapping went untested")
	}

	// Errors arrive as the typed envelope.
	if _, err := c.DecisionGraph("nope", d.DCut, 0); err == nil {
		t.Error("unknown dataset succeeded over HTTP")
	} else if ae := (&api.APIError{}); !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Errorf("unknown dataset error = %v, want a 404 APIError", err)
	}
}

// TestRingDecisionGraphRoutesToPrimary: a decision-graph request sent to
// a non-owner must be answered by the dataset's primary — identical to
// asking the primary directly — and the index must exist on exactly one
// shard.
func TestRingDecisionGraphRoutesToPrimary(t *testing.T) {
	corpus := testCorpus(t, 3)
	h := startRing(t, 3, nil)
	for _, e := range corpus {
		h.uploadCSV(0, e.name, e.csv)
	}
	e := corpus[0]
	owner, stranger := ownerAndStranger(t, h, e.name)

	viaStranger, err := h.clients[stranger].DecisionGraph(e.name, e.params.DCut, 25)
	if err != nil {
		t.Fatalf("decision graph via non-owner: %v", err)
	}
	viaOwner, err := h.clients[owner].DecisionGraph(e.name, e.params.DCut, 25)
	if err != nil {
		t.Fatalf("decision graph via owner: %v", err)
	}
	if viaStranger.N != viaOwner.N || len(viaStranger.Points) != len(viaOwner.Points) {
		t.Fatalf("relayed graph shape N=%d/%d points=%d/%d",
			viaStranger.N, viaOwner.N, len(viaStranger.Points), len(viaOwner.Points))
	}
	for i := range viaOwner.Points {
		a, b := viaStranger.Points[i], viaOwner.Points[i]
		if a.ID != b.ID ||
			math.Float64bits(a.Rho) != math.Float64bits(b.Rho) ||
			math.Float64bits(a.Delta) != math.Float64bits(b.Delta) {
			t.Fatalf("point %d differs across routes: %+v vs %+v", i, a, b)
		}
	}
	// The first call built the index on the primary; the relayed call must
	// not have built one anywhere else.
	builds := int64(0)
	for i, svc := range h.svcs {
		st := svc.Stats()
		if i != owner && st.IndexBuilds != 0 {
			t.Errorf("shard %d (non-owner) built %d indexes", i, st.IndexBuilds)
		}
		builds += st.IndexBuilds
	}
	if builds != 1 {
		t.Errorf("%d index builds across the ring, want 1", builds)
	}
	if !viaOwner.IndexReused {
		t.Error("owner's second request did not reuse the index")
	}
}

// TestRingSweepRoutesToPrimary: sweeps relay the same way, and a sweep
// through a non-owner costs the ring exactly one index build plus one
// cut per setting — all on the primary.
func TestRingSweepRoutesToPrimary(t *testing.T) {
	corpus := testCorpus(t, 3)
	h := startRing(t, 3, nil)
	for _, e := range corpus {
		h.uploadCSV(0, e.name, e.csv)
	}
	e := corpus[0]
	owner, stranger := ownerAndStranger(t, h, e.name)

	req := api.SweepRequest{Dataset: e.name, IncludeLabels: true}
	for _, scale := range []float64{0.6, 0.8, 1.0, 1.2} {
		req.Settings = append(req.Settings, api.SweepSetting{
			DCut: e.params.DCut * scale, RhoMin: e.params.RhoMin, DeltaMin: e.params.DeltaMin,
		})
	}
	got, err := h.clients[stranger].Sweep(req)
	if err != nil {
		t.Fatalf("sweep via non-owner: %v", err)
	}
	if len(got.Results) != len(req.Settings) {
		t.Fatalf("%d results for %d settings", len(got.Results), len(req.Settings))
	}

	// Single-node reference over the same CSV: labels must agree exactly.
	single := New(Options{Workers: 1, CacheSize: 16})
	singleSrv := httptest.NewServer(NewHandler(single))
	defer singleSrv.Close()
	singleC := NewClient(singleSrv.URL, testClientOptions())
	if _, err := singleC.PutDataset(e.name, "csv", e.csv); err != nil {
		t.Fatal(err)
	}
	want, err := singleC.Sweep(req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Results {
		labelsEqual(t, "relayed sweep labels", got.Results[i].Labels, want.Results[i].Labels)
		if got.Results[i].Clusters != want.Results[i].Clusters || got.Results[i].Noise != want.Results[i].Noise {
			t.Errorf("setting %d: clusters/noise %d/%d, single-node %d/%d", i,
				got.Results[i].Clusters, got.Results[i].Noise, want.Results[i].Clusters, want.Results[i].Noise)
		}
	}

	for i, svc := range h.svcs {
		st := svc.Stats()
		if i == owner {
			if st.IndexBuilds != 1 || st.IndexCuts != int64(len(req.Settings)) {
				t.Errorf("owner: builds=%d cuts=%d, want 1/%d", st.IndexBuilds, st.IndexCuts, len(req.Settings))
			}
			if st.ModelsCached != 0 {
				t.Errorf("owner cached %d models from a sweep", st.ModelsCached)
			}
		} else if st.IndexBuilds != 0 || st.IndexCuts != 0 {
			t.Errorf("shard %d (non-owner): builds=%d cuts=%d, want 0/0", i, st.IndexBuilds, st.IndexCuts)
		}
	}

	// Validation errors surface through the relay as typed APIErrors.
	if _, err := h.clients[stranger].Sweep(api.SweepRequest{Dataset: e.name}); err == nil {
		t.Error("empty sweep accepted through the relay")
	}
}

// TestReplicaRebuildsIndexOnDemand: a density index never ships. The
// primary's decision graph builds an index there and sends the replica
// nothing; the replica's own decision graph rebuilds it from the
// replicated dataset and answers bit-for-bit what the primary did.
func TestReplicaRebuildsIndexOnDemand(t *testing.T) {
	h := startRingRF(t, 2, 2, nil)
	d := data.SSet(2, 400, 7)
	var csv bytes.Buffer
	if err := data.SaveCSV(&csv, d.Points); err != nil {
		t.Fatal(err)
	}
	const name = "pts"
	h.uploadCSV(0, name, csv.Bytes())
	primary := 0
	if owners := h.routers[0].owners(name); owners[0] != h.addrs[0] {
		primary = 1
	}
	replica := 1 - primary

	shipped := h.routers[primary].replicated.Load()
	if _, err := h.clients[primary].DecisionGraph(name, d.DCut, 10); err != nil {
		t.Fatal(err)
	}
	if n := h.routers[primary].replicated.Load() - shipped; n != 0 {
		t.Errorf("the primary's index build shipped %d images", n)
	}
	rs := h.svcs[replica]
	if _, ok := rs.residentIndex(name, 1, d.DCut); ok {
		t.Fatal("replica holds an index it never built")
	}
	gotP, err := h.svcs[primary].DecisionGraph(name, d.DCut, 10)
	if err != nil {
		t.Fatal(err)
	}
	gotR, err := rs.DecisionGraph(name, d.DCut, 10)
	if err != nil {
		t.Fatal(err)
	}
	if gotR.IndexReused {
		t.Error("replica's first decision graph claims a reused index")
	}
	if len(gotR.Points) != len(gotP.Points) {
		t.Fatalf("replica graph has %d points, primary %d", len(gotR.Points), len(gotP.Points))
	}
	for i := range gotP.Points {
		if gotP.Points[i] != gotR.Points[i] {
			t.Fatalf("graph point %d differs: primary %+v, replica %+v", i, gotP.Points[i], gotR.Points[i])
		}
	}
	for i, svc := range h.svcs {
		if st := svc.Stats(); st.IndexBuilds != 1 {
			t.Errorf("shard %d paid %d index builds, want 1", i, st.IndexBuilds)
		}
	}
}
