package persist

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

func testDataset(t *testing.T) *geom.Dataset {
	t.Helper()
	return geom.MustFromRows([][]float64{{1, 2}, {3, 4}, {-5e300, 6.25}, {0, -0}})
}

func testResult(n int) *core.Result {
	res := &core.Result{
		Rho:     make([]float64, n),
		Delta:   make([]float64, n),
		Dep:     make([]int32, n),
		Labels:  make([]int32, n),
		Centers: []int32{0},
	}
	for i := 0; i < n; i++ {
		res.Rho[i] = float64(i) + 0.5
		res.Delta[i] = float64(n - i)
		res.Dep[i] = int32(i) - 1 // first point gets NoDependent
		res.Labels[i] = 0
	}
	res.Delta[0] = math.Inf(1)
	res.Timing.Build = 1 * time.Millisecond
	res.Timing.Rho = 2 * time.Millisecond
	res.Timing.Delta = 3 * time.Millisecond
	res.Timing.Label = 4 * time.Millisecond
	return res
}

func TestDatasetSnapshotRoundTrip(t *testing.T) {
	ds := testDataset(t)
	raw := EncodeDataset("s2 set", 7, 4, ds)
	v, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := v.(*DatasetSnapshot)
	if !ok {
		t.Fatalf("decoded %T, want *DatasetSnapshot", v)
	}
	if snap.Name != "s2 set" || snap.Version != 7 || snap.Epoch != 4 {
		t.Errorf("identity = %q v%d epoch %d", snap.Name, snap.Version, snap.Epoch)
	}
	if snap.Points.N != ds.N || snap.Points.Dim != ds.Dim {
		t.Fatalf("shape = (%d,%d), want (%d,%d)", snap.Points.N, snap.Points.Dim, ds.N, ds.Dim)
	}
	for i, x := range ds.Coords {
		if math.Float64bits(snap.Points.Coords[i]) != math.Float64bits(x) {
			t.Fatalf("coord %d changed bits: %v -> %v", i, x, snap.Points.Coords[i])
		}
	}
	if snap.Points.Fingerprint() != ds.Fingerprint() {
		t.Error("fingerprint changed across round trip")
	}
}

func TestModelSnapshotRoundTrip(t *testing.T) {
	ds := testDataset(t)
	res := testResult(ds.N)
	key := ModelKey{
		Dataset: "s2", Version: 3, Algorithm: "Ex-DPC",
		Params: core.Params{DCut: 0.5, RhoMin: 1, DeltaMin: 2, Seed: 9},
	}
	raw := EncodeModel(key, ds.Fingerprint(), 123*time.Millisecond, res)
	v, err := DecodeSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := v.(*ModelSnapshot)
	if !ok {
		t.Fatalf("decoded %T, want *ModelSnapshot", v)
	}
	if snap.Key != key {
		t.Errorf("key = %+v, want %+v", snap.Key, key)
	}
	if snap.DatasetFingerprint != ds.Fingerprint() || snap.FitTime != 123*time.Millisecond {
		t.Errorf("fingerprint/fitTime = %#x/%v", snap.DatasetFingerprint, snap.FitTime)
	}
	got := snap.Result
	if got.Timing != res.Timing {
		t.Errorf("timing = %+v, want %+v", got.Timing, res.Timing)
	}
	if len(got.Rho) != ds.N || len(got.Centers) != 1 {
		t.Fatalf("array lengths %d/%d", len(got.Rho), len(got.Centers))
	}
	for i := range res.Rho {
		if math.Float64bits(got.Rho[i]) != math.Float64bits(res.Rho[i]) ||
			math.Float64bits(got.Delta[i]) != math.Float64bits(res.Delta[i]) ||
			got.Dep[i] != res.Dep[i] || got.Labels[i] != res.Labels[i] {
			t.Fatalf("arrays diverge at %d", i)
		}
	}
	if !math.IsInf(got.Delta[0], 1) {
		t.Error("+Inf delta did not survive the round trip")
	}
}

// TestDecodeSnapshotHostileInputs is the LoadBinary-style hardening pin:
// every declared size — the container payload length, string lengths,
// point and center counts — must be rejected against the bytes actually
// present before anything is allocated, and damage must always surface
// as an error, never a panic.
func TestDecodeSnapshotHostileInputs(t *testing.T) {
	ds := testDataset(t)
	good := EncodeDataset("s2", 1, 1, ds)
	goodModel := EncodeModel(ModelKey{Dataset: "s2", Version: 1, Algorithm: "Ex-DPC",
		Params: core.Params{DCut: 0.5, RhoMin: 1, DeltaMin: 2}},
		ds.Fingerprint(), time.Millisecond, testResult(ds.N))

	mutate := func(raw []byte, f func([]byte)) []byte {
		out := append([]byte(nil), raw...)
		f(out)
		return out
	}
	cases := map[string][]byte{
		"empty":            {},
		"short header":     good[:headerSize-1],
		"bad magic":        mutate(good, func(b []byte) { b[0] ^= 0xff }),
		"future version":   mutate(good, func(b []byte) { binary.LittleEndian.PutUint16(b[4:], 99) }),
		"unknown kind":     mutate(good, func(b []byte) { b[6] = 42 }),
		"truncated file":   good[:len(good)-3],
		"payload too long": mutate(good, func(b []byte) { binary.LittleEndian.PutUint64(b[8:], 1<<40) }),
		"payload shrunk":   mutate(good, func(b []byte) { binary.LittleEndian.PutUint64(b[8:], 4) }),
		"payload bit flip": mutate(good, func(b []byte) { b[len(b)-1] ^= 1 }),
		"crc flip":         mutate(good, func(b []byte) { b[16] ^= 1 }),
		"model truncated":  goodModel[:len(goodModel)-5],
		"model bit flip":   mutate(goodModel, func(b []byte) { b[headerSize+2] ^= 1 }),
	}
	for name, raw := range cases {
		if _, err := DecodeSnapshot(raw); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestDecodePayloadOverflows crafts CRC-valid payloads whose internal
// counts overstate the data present; the decoders must reject them
// before allocating.
func TestDecodePayloadOverflows(t *testing.T) {
	datasetPayload := func(f func(e *encoder)) []byte {
		var e encoder
		f(&e)
		return encodeSnapshot(kindDataset, e.buf)
	}
	modelPayload := func(f func(e *encoder)) []byte {
		var e encoder
		f(&e)
		return encodeSnapshot(kindModel, e.buf)
	}
	cases := map[string][]byte{
		"dataset: huge n": datasetPayload(func(e *encoder) {
			e.str("x")
			e.u64(1)             // version
			e.u64(1)             // epoch
			e.u64(1 << 60)       // n
			e.u32(2)             // dim
			e.u64(0)             // fingerprint
			e.f64s([]float64{1}) // far fewer coords than declared
		}),
		"dataset: huge dim": datasetPayload(func(e *encoder) {
			e.str("x")
			e.u64(1)
			e.u64(1)
			e.u64(1)
			e.u32(1 << 24)
			e.u64(0)
		}),
		"dataset: n*dim overflows": datasetPayload(func(e *encoder) {
			e.str("x")
			e.u64(1)
			e.u64(1)
			e.u64(math.MaxUint64 / 2)
			e.u32(1 << 20)
			e.u64(0)
		}),
		"dataset: epoch past version": datasetPayload(func(e *encoder) {
			e.str("x")
			e.u64(1) // version
			e.u64(2) // epoch
			e.u64(1)
			e.u32(1)
			e.u64(geom.MustFromRows([][]float64{{1}}).Fingerprint())
			e.f64s([]float64{1})
		}),
		"dataset: huge name length": datasetPayload(func(e *encoder) {
			e.u32(math.MaxUint32) // name length with no bytes behind it
		}),
		"model: huge point count": modelPayload(func(e *encoder) {
			e.str("x")
			e.u64(1)
			e.u64(0)
			e.str("Ex-DPC")
			for i := 0; i < 5; i++ {
				e.f64(1)
			}
			for i := 0; i < 5; i++ {
				e.i64(0)
			}
			e.u64(1 << 50) // n
			e.u64(0)       // centers
		}),
		"model: centers exceed points": modelPayload(func(e *encoder) {
			e.str("x")
			e.u64(1)
			e.u64(0)
			e.str("Ex-DPC")
			for i := 0; i < 5; i++ {
				e.f64(1)
			}
			for i := 0; i < 5; i++ {
				e.i64(0)
			}
			e.u64(0)
			e.u64(1 << 40)
		}),
	}
	for name, raw := range cases {
		v, err := DecodeSnapshot(raw)
		if err == nil {
			t.Errorf("%s: accepted as %T", name, v)
		} else if !strings.Contains(err.Error(), "persist:") {
			t.Errorf("%s: unexpected error shape: %v", name, err)
		}
	}
}

// TestDecodeFormat1Dataset: a dataset image written before snapshots
// carried an epoch — the committed format-1 fuzz seed — still decodes,
// as the start of its own upload history (Epoch = Version), so an
// existing data directory keeps restoring.
func TestDecodeFormat1Dataset(t *testing.T) {
	corpus, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeSnapshot", "seed-dataset"))
	if err != nil {
		t.Fatal(err)
	}
	_, lit, _ := strings.Cut(strings.TrimSpace(string(corpus)), "\n")
	img, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	if f := formatOf([]byte(img)); f != 1 {
		t.Fatalf("seed is format %d, want 1", f)
	}
	v, err := DecodeSnapshot([]byte(img))
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := v.(*DatasetSnapshot)
	if !ok {
		t.Fatalf("decoded %T, want *DatasetSnapshot", v)
	}
	if snap.Version == 0 || snap.Epoch != snap.Version {
		t.Fatalf("format-1 dataset decoded as v%d epoch %d, want epoch = version", snap.Version, snap.Epoch)
	}
}
