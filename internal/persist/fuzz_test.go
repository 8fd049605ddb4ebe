package persist

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

// FuzzDecodeSnapshot guards the snapshot restore path the same way
// FuzzLoadCSV/FuzzLoadBinary guard uploads: arbitrary file images must
// decode or error, never panic or allocate past the input size, and an
// accepted snapshot must be internally consistent and re-encode to the
// exact bytes it was decoded from (the codec is canonical; a format-1
// image is compared in format 1, see asFormat1). The committed corpus
// holds format-1 images, so the legacy decode runs too. A mutated
// image almost never passes the CRC-32, so each input is also decoded
// re-framed: its payload behind a valid header, length and checksum,
// which lets mutations reach the payload decoders.
func FuzzDecodeSnapshot(f *testing.F) {
	ds := geom.MustFromRows([][]float64{{1, 2}, {3, 4}, {5.5, -6.5}})
	res := &core.Result{
		Rho:     []float64{3.1, 2.2, 1.3},
		Delta:   []float64{math.Inf(1), 0.5, 0.25},
		Dep:     []int32{-1, 0, 0},
		Labels:  []int32{0, 0, -1},
		Centers: []int32{0},
	}
	key := ModelKey{Dataset: "s2", Version: 2, Algorithm: "Ex-DPC",
		Params: core.Params{DCut: 0.5, RhoMin: 1, DeltaMin: 2, Seed: 7}}
	goodDS := EncodeDataset("s2", 2, 2, ds)
	goodModel := EncodeModel(key, ds.Fingerprint(), time.Millisecond, res)

	f.Add(goodDS)
	f.Add(goodModel)
	f.Add(goodDS[:len(goodDS)-4])                               // truncated payload
	f.Add(goodDS[:headerSize])                                  // header only
	f.Add(append([]byte(nil), goodModel[:len(goodModel)-1]...)) // short one byte
	corrupt := append([]byte(nil), goodModel...)
	corrupt[headerSize+8] ^= 0x80
	f.Add(corrupt) // CRC mismatch
	f.Add([]byte("DPS1 but not really a snapshot file"))
	f.Add([]byte{})
	f.Add(EncodeDataset("s2", 2, 2, ds.ToFloat32())) // kind 4
	f.Add(EncodeDataset("s2", 5, 3, ds))             // an appended version: epoch 3 < version 5

	f.Fuzz(func(t *testing.T, raw []byte) {
		checkDecode(t, raw)
		if len(raw) >= headerSize {
			checkDecode(t, encodeSnapshot(raw[6], raw[headerSize:]))
		}
	})
}

// checkDecode decodes one image and, if it is accepted, checks it is
// consistent and canonical.
func checkDecode(t *testing.T, raw []byte) {
	v, err := DecodeSnapshot(raw)
	if err != nil {
		return
	}
	switch snap := v.(type) {
	case *DatasetSnapshot:
		p := snap.Points
		// One of the two coordinate slabs is set, by precision.
		if p.N*p.Dim != len(p.Coords)+len(p.Coords32) || p.N == 0 || p.Dim == 0 {
			t.Fatalf("inconsistent dataset: N=%d Dim=%d coords=%d+%d", p.N, p.Dim, len(p.Coords), len(p.Coords32))
		}
		if snap.Epoch > snap.Version {
			t.Fatalf("epoch %d past version %d", snap.Epoch, snap.Version)
		}
		re := EncodeDataset(snap.Name, snap.Version, snap.Epoch, p)
		if formatOf(raw) == 1 {
			re = asFormat1(t, re)
		}
		if !bytes.Equal(re, raw) {
			t.Fatal("accepted dataset snapshot did not re-encode canonically")
		}
	case *ModelSnapshot:
		r := snap.Result
		n := len(r.Rho)
		if len(r.Delta) != n || len(r.Dep) != n || len(r.Labels) != n {
			t.Fatalf("ragged result arrays: %d/%d/%d/%d", n, len(r.Delta), len(r.Dep), len(r.Labels))
		}
		if len(r.Centers) > n {
			t.Fatalf("%d centers for %d points", len(r.Centers), n)
		}
		re := EncodeModel(snap.Key, snap.DatasetFingerprint, snap.FitTime, r)
		if formatOf(raw) == 1 {
			re = asFormat1(t, re)
		}
		if !bytes.Equal(re, raw) {
			t.Fatal("accepted model snapshot did not re-encode canonically")
		}
	default:
		t.Fatalf("DecodeSnapshot returned %T", v)
	}
}

// formatOf reads an image's container format version.
func formatOf(raw []byte) uint16 { return binary.LittleEndian.Uint16(raw[4:]) }

// asFormat1 rewrites a current image in format 1, the layout before
// dataset payloads carried an epoch: the header's format version is 1,
// and a dataset payload drops the epoch after its version. A model
// payload is unchanged.
func asFormat1(t *testing.T, img []byte) []byte {
	t.Helper()
	_, kind, payload, err := decodeHeader(img)
	if err != nil {
		t.Fatal(err)
	}
	if kind != kindModel {
		epochAt := 4 + int(binary.LittleEndian.Uint32(payload)) + 8
		payload = append(payload[:epochAt:epochAt], payload[epochAt+8:]...)
	}
	out := encodeSnapshot(kind, payload)
	binary.LittleEndian.PutUint16(out[4:], 1)
	return out
}
