package service

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/persist"
)

// snapHeaderSize is the length of the persist snapshot container header:
// magic, format version, kind, reserved byte, payload length, CRC-32.
const snapHeaderSize = 20

// reframe puts payload behind a copy of seed's container header, with
// the given kind byte and the payload's true length and CRC-32: the
// framing persist.DecodeSnapshot checks before any payload decoder runs.
func reframe(seed []byte, kind byte, payload []byte) []byte {
	out := append(seed[:snapHeaderSize:snapHeaderSize], payload...)
	out[6] = kind
	binary.LittleEndian.PutUint64(out[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[16:], crc32.ChecksumIEEE(payload))
	return out
}

// legacyIndexImage is a well-framed kind-3 snapshot, the density-index
// image older versions wrote to indexes/ and shipped to replicas.
func legacyIndexImage(seed []byte) []byte {
	return reframe(seed, 3, []byte("density index rows"))
}

// FuzzInstallSnapshot feeds arbitrary bytes to InstallSnapshot on a
// service with a resident dataset and one resident model of it (the
// seed's v1 Ex-DPC image): the body of POST /v1/replica/snapshot,
// decoded and then run through the same per-kind installers a restart or
// a rebalance runs on its own snapshot files. It must never panic, an
// image it rejects (an error, or a no-op install) must leave the dataset
// version and every Stats counter unchanged, and an install that lands a
// newer dataset version must leave no model cached. A mutated image almost never passes the CRC-32, so each
// input is also installed re-framed — its payload behind a valid
// header, length and checksum — which lets mutations reach the payload
// decoders and the installers' version and fingerprint checks.
func FuzzInstallSnapshot(f *testing.F) {
	d := data.SSet(2, 80, 1)
	p := core.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin}

	// Valid images of the resident dataset and two models: the dataset
	// re-ship and the resident Ex-DPC model (snaps[1], the most recently
	// fitted) are no-ops, the Approx-DPC model installs.
	primary := New(Options{Workers: 1})
	if _, err := primary.PutDataset("ds", d.Points); err != nil {
		f.Fatal(err)
	}
	for _, alg := range []string{"Approx-DPC", "Ex-DPC"} {
		if _, err := primary.Fit("ds", alg, p); err != nil {
			f.Fatal(err)
		}
	}
	snaps := primary.ReplicationSnapshots("ds")
	if sn, err := persist.DecodeSnapshot(snaps[1]); err != nil || sn.(*persist.ModelSnapshot).Key.Algorithm != "Ex-DPC" {
		f.Fatalf("snaps[1] is not the Ex-DPC model image: %v", err)
	}
	for _, raw := range snaps {
		f.Add(raw)
	}
	// Stale images: a newer version of the dataset (it installs), and
	// that version's model, which the resident v1 refuses.
	other := data.SSet(2, 90, 2)
	if _, err := primary.PutDataset("ds", other.Points); err != nil {
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
	f.Add(legacyIndexImage(snaps[0]))
	// An f32 (kind-4) image of a newer version: it installs.
	f.Add(persist.EncodeDataset("ds", 3, 3, d.Points.ToFloat32()))
	// A slide of the resident upload (v2 at epoch 1, a format-2 field): it
	// installs and continues the resident history.
	slid := New(Options{Workers: 1})
	if _, err := slid.PutDataset("ds", d.Points); err != nil {
		f.Fatal(err)
	}
	if _, err := slid.AppendPoints("ds", rows(d.Points, 0, 5, 0)); err != nil {
		f.Fatal(err)
	}
	f.Add(slid.ReplicationSnapshots("ds")[0])

	install := func(t *testing.T, raw []byte) {
		s := New(Options{Workers: 1})
		if _, err := s.PutDataset("ds", d.Points); err != nil {
			t.Fatal(err)
		}
		if res, err := s.InstallSnapshot(snaps[1]); err != nil || !res.Installed {
			t.Fatalf("resident model install: %+v, %v", res, err)
		}
		before := s.Stats()
		res, err := s.InstallSnapshot(raw)
		s.mu.RLock()
		v := s.datasets["ds"].version
		s.mu.RUnlock()
		if err == nil && res.Installed {
			if cached := s.Stats().ModelsCached; v > 1 && cached != 0 {
				t.Errorf("install of %s v%d left %d models of the replaced version cached", res.Kind, v, cached)
			}
			return
		}
		if after := s.Stats(); after != before {
			t.Errorf("rejected image (%+v, %v) moved Stats:\n before %+v\n after  %+v", res, err, before, after)
		}
		if v != 1 {
			t.Errorf("rejected image (%+v, %v) moved the dataset to v%d", res, err, v)
		}
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		install(t, raw)
		if len(raw) >= snapHeaderSize {
			install(t, reframe(snaps[0], raw[6], raw[snapHeaderSize:]))
		}
	})
}
