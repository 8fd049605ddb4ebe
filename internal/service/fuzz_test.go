package service

import (
	"testing"

	"repro/internal/core"
	"repro/internal/data"
)

// FuzzInstallSnapshot feeds arbitrary bytes to InstallSnapshot on a
// service with a resident dataset: the body of POST
// /v1/replica/snapshot, decoded and then run through the same per-kind
// installers a restart or a rebalance runs on its own snapshot files.
// It must never panic, and an image it rejects (an error, or a no-op
// install) must leave the dataset version and every Stats counter
// unchanged.
func FuzzInstallSnapshot(f *testing.F) {
	d := data.SSet(2, 80, 1)
	p := core.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin}

	// Valid images of the resident dataset, its index and a model: the
	// dataset re-ship is a no-op, the index and model install.
	primary := New(Options{Workers: 1})
	if _, err := primary.PutDataset("ds", d.Points); err != nil {
		f.Fatal(err)
	}
	if _, err := primary.DecisionGraph("ds", d.DCut, 5); err != nil {
		f.Fatal(err)
	}
	if _, err := primary.Fit("ds", "Approx-DPC", p); err != nil {
		f.Fatal(err)
	}
	snaps := primary.ReplicationSnapshots("ds")
	for _, raw := range snaps {
		f.Add(raw)
	}
	// Stale images: a newer version of the dataset (it installs), and
	// that version's model and index, which the resident v1 refuses.
	other := data.SSet(2, 90, 2)
	if _, err := primary.PutDataset("ds", other.Points); err != nil {
		f.Fatal(err)
	}
	if _, err := primary.DecisionGraph("ds", other.DCut, 5); err != nil {
		f.Fatal(err)
	}
	if _, err := primary.Fit("ds", "Ex-DPC", p); err != nil {
		f.Fatal(err)
	}
	for _, raw := range primary.ReplicationSnapshots("ds") {
		f.Add(raw)
	}
	f.Add(snaps[0][:len(snaps[0])/2])
	f.Add([]byte("not a snapshot"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		s := New(Options{Workers: 1})
		if _, err := s.PutDataset("ds", d.Points); err != nil {
			t.Fatal(err)
		}
		before := s.Stats()
		res, err := s.InstallSnapshot(raw)
		if err == nil && res.Installed {
			return
		}
		if after := s.Stats(); after != before {
			t.Errorf("rejected image (%+v, %v) moved Stats:\n before %+v\n after  %+v", res, err, before, after)
		}
		s.mu.RLock()
		v := s.datasets["ds"].version
		s.mu.RUnlock()
		if v != 1 {
			t.Errorf("rejected image (%+v, %v) moved the dataset to v%d", res, err, v)
		}
	})
}
