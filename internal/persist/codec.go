// Package persist is the durability layer behind dpcd: a versioned,
// checksummed binary codec for dataset and fitted-model snapshots, plus a
// manifest-driven Store (store.go) that writes them with atomic
// write-rename and survives corrupt or truncated files by skipping them.
//
// On-disk container, little-endian:
//
//	magic      uint32  "DPS1"
//	version    uint16  format version (currently 2; 1 is still read)
//	kind       uint8   1 = dataset, 2 = model, 4 = f32 dataset (3, a
//	                   density index in older versions, is refused as
//	                   unknown: the index is rebuilt from its dataset)
//	reserved   uint8
//	payloadLen uint64  must equal the bytes that follow the header
//	crc        uint32  IEEE CRC-32 of the payload
//	payload    ...
//
// A dataset payload holds the name, the version, the epoch, n, dim, the
// fingerprint and the coordinates. The epoch, new in format 2, is the
// version of the upload the dataset version descends from: an upload's
// own version, copied by every append, so a replica can tell a shipped
// slide of its upload history from a replacement. A format-1 dataset
// payload has no epoch and decodes with Epoch = Version; model payloads
// are the same in both formats.
//
// Every length declared inside a snapshot — the payload length, string
// lengths, array element counts — is validated against the bytes actually
// present before anything is allocated, the same hostile-header hardening
// LoadBinary applies to uploads. A model snapshot stores the fitted
// Result, the identifying (dataset, version, algorithm, params) key, and
// the training dataset's fingerprint; the kd-tree assignment index is
// deliberately not serialized and is rebuilt on load by core.Restore.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

const (
	snapMagic   = uint32(0x31535044) // "DPS1" on disk
	snapVersion = uint16(2)

	kindDataset = byte(1)
	kindModel   = byte(2)
	// kindDataset32 is an f32-precision dataset: same layout as
	// kindDataset but coordinates stored as float32 bit patterns, so a
	// replica installs exactly the bytes (and fingerprint) the primary
	// serves. Readers predating the precision mode reject it by kind
	// byte instead of misreading the coordinates.
	kindDataset32 = byte(4)

	headerSize = 20

	// maxNameLen bounds dataset and algorithm name strings; anything
	// longer is a corrupt length field, not a name.
	maxNameLen = 1 << 12
	// maxSnapshotDim mirrors data.LoadBinary's dimensionality cap.
	maxSnapshotDim = 1 << 20
)

// ModelKey identifies one persisted model: the cache-key tuple of the
// serving layer with Workers zeroed, because thread count is host policy
// and must not pin a snapshot to the machine that wrote it.
type ModelKey struct {
	Dataset   string
	Version   uint64
	Algorithm string
	Params    core.Params
}

// Hash derives the stable 64-bit identity used for snapshot filenames.
// It must never change across releases: the sharding layer assumes a
// shard that inherits a data directory (or re-inherits keys after a ring
// membership change) finds the same filenames the original writer
// produced. Golden values are pinned in store_test.go.
//
// Params fields are written individually, tagged, and only when nonzero
// — never via %v of the whole struct — so a future Params field (zero
// for every already-persisted model) extends the key space without
// remapping a single existing snapshot. The manifest, not the name, is
// authoritative, so a (practically impossible) collision would only
// overwrite a reconstructible snapshot.
func (k ModelKey) Hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%s|", k.Dataset, k.Version, k.Algorithm)
	f := func(tag string, v float64) {
		if v != 0 {
			fmt.Fprintf(h, "%s=%g|", tag, v)
		}
	}
	f("dcut", k.Params.DCut)
	f("rhomin", k.Params.RhoMin)
	f("deltamin", k.Params.DeltaMin)
	f("epsilon", k.Params.Epsilon)
	if k.Params.Seed != 0 {
		fmt.Fprintf(h, "seed=%d|", k.Params.Seed)
	}
	// Workers is zeroed by SaveModel before hashing; it is still written
	// when set so the hash keys the full struct, like every other field.
	if k.Params.Workers != 0 {
		fmt.Fprintf(h, "workers=%d|", k.Params.Workers)
	}
	return h.Sum64()
}

// DatasetSnapshot is the decoded form of one dataset snapshot.
type DatasetSnapshot struct {
	Name    string
	Version uint64
	// Epoch is the version of the upload Version descends from (Version
	// itself for an upload, the upload's version for an append).
	Epoch  uint64
	Points *geom.Dataset
	// Fingerprint is Points.Fingerprint(), verified during decode and
	// kept so restoring k models on one dataset doesn't recompute the
	// O(n*dim) hash k times.
	Fingerprint uint64
}

// ModelSnapshot is the decoded form of one model snapshot. The Result is
// everything the fit computed; the Model proper is rebuilt against the
// restored dataset with core.Restore.
type ModelSnapshot struct {
	Key ModelKey
	// DatasetFingerprint is geom.Dataset.Fingerprint of the training
	// points, so a model is never rebuilt against different data.
	DatasetFingerprint uint64
	FitTime            time.Duration
	Result             *core.Result
}

// encoder accumulates a little-endian payload.
type encoder struct{ buf []byte }

func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}
func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}
func (e *encoder) f64s(vs []float64) {
	for _, v := range vs {
		e.f64(v)
	}
}

func (e *encoder) f32s(vs []float32) {
	for _, v := range vs {
		e.u32(math.Float32bits(v))
	}
}
func (e *encoder) i32s(vs []int32) {
	for _, v := range vs {
		e.u32(uint32(v))
	}
}

// decoder walks a payload with a sticky error; every read is
// bounds-checked against the bytes remaining, and the element-count
// readers reject counts whose total size exceeds what is present before
// allocating anything.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *decoder) need(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b) < n {
		d.fail("persist: truncated payload: need %d bytes, have %d", n, len(d.b))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *decoder) u32() uint32 {
	b := d.need(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.need(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }
func (d *decoder) str() string {
	n := d.u32()
	if d.err == nil && n > maxNameLen {
		d.fail("persist: string length %d exceeds limit %d", n, maxNameLen)
	}
	return string(d.need(int(n)))
}

func (d *decoder) f32s(n int) []float32 {
	if d.err != nil {
		return nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(d.u32())
	}
	return out
}

func (d *decoder) f64s(n int) []float64 {
	if d.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *decoder) i32s(n int) []int32 {
	if d.err != nil {
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(d.u32())
	}
	return out
}

func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("persist: %d trailing bytes after payload", len(d.b))
	}
	return nil
}

// encodeSnapshot wraps a payload in the checksummed container.
func encodeSnapshot(kind byte, payload []byte) []byte {
	out := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(out[0:], snapMagic)
	binary.LittleEndian.PutUint16(out[4:], snapVersion)
	out[6] = kind
	out[7] = 0
	binary.LittleEndian.PutUint64(out[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(out[16:], crc32.ChecksumIEEE(payload))
	copy(out[headerSize:], payload)
	return out
}

// decodeHeader validates the container and returns the format version,
// the kind and the payload. The declared payload length must match the
// bytes present exactly — checked before the payload is touched, so a
// forged multi-gigabyte length costs nothing — and the CRC must match.
func decodeHeader(raw []byte) (format uint16, kind byte, payload []byte, err error) {
	if len(raw) < headerSize {
		return 0, 0, nil, fmt.Errorf("persist: %d-byte file is shorter than the %d-byte header", len(raw), headerSize)
	}
	if m := binary.LittleEndian.Uint32(raw[0:]); m != snapMagic {
		return 0, 0, nil, fmt.Errorf("persist: bad magic %#x", m)
	}
	format = binary.LittleEndian.Uint16(raw[4:])
	if format < 1 || format > snapVersion {
		return 0, 0, nil, fmt.Errorf("persist: unsupported format version %d (want 1..%d)", format, snapVersion)
	}
	kind = raw[6]
	if kind != kindDataset && kind != kindModel && kind != kindDataset32 {
		return 0, 0, nil, fmt.Errorf("persist: unknown snapshot kind %d", kind)
	}
	if raw[7] != 0 {
		return 0, 0, nil, fmt.Errorf("persist: nonzero reserved header byte %d", raw[7])
	}
	declared := binary.LittleEndian.Uint64(raw[8:])
	if declared != uint64(len(raw)-headerSize) {
		return 0, 0, nil, fmt.Errorf("persist: declared payload of %d bytes, file holds %d", declared, len(raw)-headerSize)
	}
	payload = raw[headerSize:]
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(raw[16:]); got != want {
		return 0, 0, nil, fmt.Errorf("persist: payload checksum %#x, want %#x", got, want)
	}
	return format, kind, payload, nil
}

// DecodeSnapshot decodes one snapshot file image into a
// *DatasetSnapshot or *ModelSnapshot. It is total:
// corrupt, truncated, or hostile inputs return an error without
// panicking or allocating beyond the input size.
func DecodeSnapshot(raw []byte) (any, error) {
	format, kind, payload, err := decodeHeader(raw)
	if err != nil {
		return nil, err
	}
	if kind == kindModel {
		return decodeModel(payload)
	}
	return decodeDataset(payload, kind == kindDataset32, format)
}

// EncodeDataset produces the canonical snapshot file image for one
// dataset version of the upload history that began at version epoch;
// DecodeSnapshot inverts it exactly. An f32-precision dataset is written
// as a kind-4 snapshot with float32 coordinates.
func EncodeDataset(name string, version, epoch uint64, ds *geom.Dataset) []byte {
	var e encoder
	e.str(name)
	e.u64(version)
	e.u64(epoch)
	e.u64(uint64(ds.N))
	e.u32(uint32(ds.Dim))
	e.u64(ds.Fingerprint())
	if ds.Float32() {
		e.f32s(ds.Coords32)
		return encodeSnapshot(kindDataset32, e.buf)
	}
	e.f64s(ds.Coords)
	return encodeSnapshot(kindDataset, e.buf)
}

// decodeDataset decodes a dataset payload of the given format; f32
// (kind 4) coordinates are float32 bit patterns, kind 1's are float64.
func decodeDataset(payload []byte, f32 bool, format uint16) (*DatasetSnapshot, error) {
	width := uint64(8)
	if f32 {
		width = 4
	}
	d := &decoder{b: payload}
	name := d.str()
	version := d.u64()
	epoch := version
	if format >= 2 {
		epoch = d.u64()
	}
	n := d.u64()
	dim := d.u32()
	fp := d.u64()
	if d.err == nil {
		if name == "" {
			d.fail("persist: empty dataset name")
		}
		if epoch > version {
			d.fail("persist: epoch %d is past version %d", epoch, version)
		}
		if n == 0 || dim == 0 {
			d.fail("persist: empty dataset snapshot (n=%d dim=%d)", n, dim)
		}
		if dim > maxSnapshotDim {
			d.fail("persist: implausible dimensionality %d (max %d)", dim, maxSnapshotDim)
		}
		if d.err == nil && n > uint64(len(d.b))/width/uint64(dim) {
			d.fail("persist: declared %dx%d coordinates exceed %d remaining bytes", n, dim, len(d.b))
		}
	}
	ds := &geom.Dataset{N: int(n), Dim: int(dim)}
	if f32 {
		ds.Coords32 = d.f32s(ds.N * ds.Dim)
	} else {
		ds.Coords = d.f64s(ds.N * ds.Dim)
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	if got := ds.Fingerprint(); got != fp {
		return nil, fmt.Errorf("persist: dataset fingerprint %#x, snapshot claims %#x", got, fp)
	}
	return &DatasetSnapshot{Name: name, Version: version, Epoch: epoch, Points: ds, Fingerprint: fp}, nil
}

// EncodeModel produces the canonical snapshot file image for one fitted
// model: its identity key, the fingerprint of the dataset it was fitted
// on, the original fit cost, and the full Result. The kd-tree is not
// serialized; core.Restore rebuilds it on load.
func EncodeModel(k ModelKey, datasetFingerprint uint64, fitTime time.Duration, res *core.Result) []byte {
	var e encoder
	e.str(k.Dataset)
	e.u64(k.Version)
	e.u64(datasetFingerprint)
	e.str(k.Algorithm)
	e.f64(k.Params.DCut)
	e.f64(k.Params.RhoMin)
	e.f64(k.Params.DeltaMin)
	e.f64(k.Params.Epsilon)
	e.i64(k.Params.Seed)
	e.i64(int64(fitTime))
	e.i64(int64(res.Timing.Build))
	e.i64(int64(res.Timing.Rho))
	e.i64(int64(res.Timing.Delta))
	e.i64(int64(res.Timing.Label))
	e.u64(uint64(len(res.Rho)))
	e.u64(uint64(len(res.Centers)))
	e.f64s(res.Rho)
	e.f64s(res.Delta)
	e.i32s(res.Dep)
	e.i32s(res.Labels)
	e.i32s(res.Centers)
	return encodeSnapshot(kindModel, e.buf)
}

func decodeModel(payload []byte) (*ModelSnapshot, error) {
	d := &decoder{b: payload}
	snap := &ModelSnapshot{}
	snap.Key.Dataset = d.str()
	snap.Key.Version = d.u64()
	snap.DatasetFingerprint = d.u64()
	snap.Key.Algorithm = d.str()
	snap.Key.Params.DCut = d.f64()
	snap.Key.Params.RhoMin = d.f64()
	snap.Key.Params.DeltaMin = d.f64()
	snap.Key.Params.Epsilon = d.f64()
	snap.Key.Params.Seed = d.i64()
	snap.FitTime = time.Duration(d.i64())
	res := &core.Result{}
	res.Timing.Build = time.Duration(d.i64())
	res.Timing.Rho = time.Duration(d.i64())
	res.Timing.Delta = time.Duration(d.i64())
	res.Timing.Label = time.Duration(d.i64())
	n := d.u64()
	nc := d.u64()
	// Each point costs 8+8+4+4 bytes (rho, delta, dep, label) plus 4 per
	// center; reject the declared counts against the bytes present before
	// allocating any of the five arrays.
	if d.err == nil && n > uint64(len(d.b))/24 {
		d.fail("persist: declared %d points exceed %d remaining bytes", n, len(d.b))
	}
	if d.err == nil && (nc > n || nc > uint64(len(d.b))/4) {
		d.fail("persist: declared %d centers for %d points in %d bytes", nc, n, len(d.b))
	}
	res.Rho = d.f64s(int(n))
	res.Delta = d.f64s(int(n))
	res.Dep = d.i32s(int(n))
	res.Labels = d.i32s(int(n))
	res.Centers = d.i32s(int(nc))
	if err := d.done(); err != nil {
		return nil, err
	}
	if snap.Key.Dataset == "" || snap.Key.Algorithm == "" {
		return nil, fmt.Errorf("persist: model snapshot with empty dataset or algorithm name")
	}
	snap.Result = res
	return snap, nil
}
