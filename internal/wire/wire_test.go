package wire

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{
		Dataset: "s2", Algorithm: "Ex-DPC",
		DCut: 2500, RhoMin: 5, DeltaMin: 12000, Epsilon: 0.5, Seed: -3,
	}
	raw := AppendHeader(nil, h)
	f, rest, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d leftover bytes", len(rest))
	}
	if f.Kind != KindHeader || f.Header != h {
		t.Fatalf("decoded %+v, want %+v", f.Header, h)
	}
}

func TestPointsRoundTrip(t *testing.T) {
	coords := []float64{1.5, -2.25, math.Pi, 0, 1e300, -1e-300}
	raw := AppendPointsRows(nil, [][]float64{coords[0:2], coords[2:4], coords[4:6]}, false)
	f, _, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindPoints || f.N != 3 || f.Dim != 2 || f.Float32 {
		t.Fatalf("frame = %+v", f)
	}
	for i, v := range coords {
		if f.Coords[i] != v {
			t.Fatalf("coord %d: %v != %v", i, f.Coords[i], v)
		}
	}
	if row := f.Row(1); row[0] != math.Pi || row[1] != 0 {
		t.Fatalf("Row(1) = %v", row)
	}
}

// Float32 frames halve the bytes; decoding must widen losslessly (every
// float32 is exactly representable as a float64).
func TestPointsFloat32(t *testing.T) {
	coords := []float64{1.5, -2.25, 100, 0.1}
	rows := [][]float64{coords[0:2], coords[2:4]}
	raw64 := AppendPointsRows(nil, rows, false)
	raw32 := AppendPointsRows(nil, rows, true)
	if want := len(raw64) - 8 - len(coords)*4; len(raw32)-8 != want {
		t.Fatalf("float32 frame is %d bytes, want %d", len(raw32), want+8)
	}
	f, _, err := DecodeFrame(raw32)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Float32 {
		t.Fatal("Float32 flag lost")
	}
	for i, v := range coords {
		if want := float64(float32(v)); f.Coords[i] != want {
			t.Fatalf("coord %d: %v, want widened %v", i, f.Coords[i], want)
		}
	}
	// 0.1 is not float32-representable: the round trip must show the
	// documented narrowing, not silently equal the original.
	if f.Coords[3] == 0.1 {
		t.Fatal("0.1 survived a float32 round trip; the test premise is wrong")
	}
}

func TestLabelsSummaryErrorRoundTrip(t *testing.T) {
	labels := []int32{0, -1, 5, 1 << 30}
	sum := Summary{Points: 1 << 40, Chunks: 3, Clusters: 7, CacheHit: true}
	var raw []byte
	raw = AppendLabels(raw, labels)
	raw = AppendSummary(raw, sum)
	raw = AppendError(raw, "boom")

	f, rest, err := DecodeFrame(raw)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindLabels || len(f.Labels) != len(labels) {
		t.Fatalf("labels frame = %+v", f)
	}
	for i := range labels {
		if f.Labels[i] != labels[i] {
			t.Fatalf("label %d: %d != %d", i, f.Labels[i], labels[i])
		}
	}
	f, rest, err = DecodeFrame(rest)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindSummary || f.Summary != sum {
		t.Fatalf("summary = %+v, want %+v", f.Summary, sum)
	}
	f, rest, err = DecodeFrame(rest)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindError || f.ErrMsg != "boom" {
		t.Fatalf("error frame = %+v", f)
	}
	if len(rest) != 0 {
		t.Fatalf("%d leftover bytes", len(rest))
	}
}

func TestReaderStream(t *testing.T) {
	var raw []byte
	raw = AppendHeader(raw, Header{Dataset: "d", Algorithm: "Ex-DPC"})
	raw = AppendPointsRows(raw, [][]float64{{1, 2}, {3, 4}}, false)
	raw = AppendPointsRows(raw, nil, false)
	r := NewReader(bytes.NewReader(raw))
	kinds := []byte{}
	for {
		f, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		kinds = append(kinds, f.Kind)
	}
	if want := []byte{KindHeader, KindPoints, KindPoints}; !bytes.Equal(kinds, want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
}

// A stream ending inside a frame must be a truncation error, never a
// clean io.EOF — the client relies on this to detect a dead upstream.
func TestReaderTruncation(t *testing.T) {
	raw := AppendPointsRows(nil, [][]float64{{1, 2}, {3, 4}}, false)
	for _, cut := range []int{1, frameHeaderSize - 1, frameHeaderSize + 3, len(raw) - 1} {
		r := NewReader(bytes.NewReader(raw[:cut]))
		_, err := r.Next()
		if err == nil || err == io.EOF || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("cut at %d: err = %v, want truncation error", cut, err)
		}
	}
	// Clean boundary: io.EOF exactly.
	r := NewReader(bytes.NewReader(raw))
	if _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("at boundary: err = %v, want io.EOF", err)
	}
}

func TestDecodeRejectsHostileInputs(t *testing.T) {
	good := AppendLabels(nil, []int32{1, 2, 3})
	cases := map[string]func([]byte) []byte{
		"bad magic":       func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bad version":     func(b []byte) []byte { b[4] = 9; return b },
		"bad kind":        func(b []byte) []byte { b[5] = 99; return b },
		"bad flags":       func(b []byte) []byte { b[6] = 0x80; return b },
		"flags on labels": func(b []byte) []byte { b[6] = FlagFloat32; return b },
		"reserved":        func(b []byte) []byte { b[7] = 1; return b },
		"huge payload": func(b []byte) []byte {
			b[8], b[9], b[10], b[11] = 0xff, 0xff, 0xff, 0x7f
			return b
		},
		"count/size mismatch": func(b []byte) []byte { b[frameHeaderSize]++; return b },
	}
	for name, corrupt := range cases {
		b := corrupt(append([]byte(nil), good...))
		if _, _, err := DecodeFrame(b); err == nil {
			t.Errorf("%s: decoded successfully", name)
		}
	}
	// Points-specific: n*dim overflowing the payload must fail before
	// allocation.
	pts := AppendPointsRows(nil, [][]float64{{1, 2}}, false)
	pts[frameHeaderSize] = 0xff // n = 255, payload holds 1 point
	if _, _, err := DecodeFrame(pts); err == nil {
		t.Error("forged point count decoded successfully")
	}
	hdr := AppendHeader(nil, Header{Dataset: "d"})
	hdr[frameHeaderSize] = 0xff // dataset length 255 > payload
	if _, _, err := DecodeFrame(hdr); err == nil {
		t.Error("forged string length decoded successfully")
	}
	// A NaN coordinate, in either precision and either float32 mode.
	for _, f32 := range []bool{false, true} {
		nan := AppendPointsRows(nil, [][]float64{{1, 2}, {3, math.NaN()}}, f32)
		for _, keep32 := range []bool{false, true} {
			_, err := decodePayload(KindPoints, nan[6], nan[frameHeaderSize:], keep32)
			if err == nil || !strings.Contains(err.Error(), "point 1 coordinate 1 is NaN") {
				t.Errorf("NaN points frame (f32=%v keep32=%v): err = %v", f32, keep32, err)
			}
		}
	}
}

func TestReadHeaderFrameAndPeek(t *testing.T) {
	h := Header{Dataset: "ds-7", Algorithm: "Approx-DPC", DCut: 1}
	var raw []byte
	raw = AppendHeader(raw, h)
	raw = AppendPointsRows(raw, [][]float64{{1, 2}}, false)

	br := bufio.NewReader(bytes.NewReader(raw))
	got, hdrRaw, err := ReadHeaderFrame(br)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header = %+v, want %+v", got, h)
	}
	// The raw bytes plus the unread remainder must reassemble the stream.
	rest, _ := io.ReadAll(br)
	if !bytes.Equal(append(hdrRaw, rest...), raw) {
		t.Fatal("raw header + remainder != original stream")
	}

	name, err := PeekDataset(raw)
	if err != nil || name != "ds-7" {
		t.Fatalf("PeekDataset = %q, %v", name, err)
	}
	if _, err := PeekDataset(AppendLabels(nil, nil)); err == nil {
		t.Error("PeekDataset accepted a non-header leading frame")
	}
	if _, _, err := ReadHeaderFrame(bufio.NewReader(bytes.NewReader(raw[frameHeaderSize+4:]))); err == nil {
		t.Error("ReadHeaderFrame accepted a stream not opening with a header frame")
	}
}

func TestReadDataset(t *testing.T) {
	var raw []byte
	raw = AppendPointsRows(raw, [][]float64{{1, 2}, {3, 4}}, false)
	raw = AppendPointsRows(raw, [][]float64{{5, 6}}, false)
	ds, err := ReadDataset32(bytes.NewReader(raw), false)
	if err != nil {
		t.Fatal(err)
	}
	if ds.N != 3 || ds.Dim != 2 || ds.Coords[4] != 5 {
		t.Fatalf("dataset = %dx%d %v", ds.N, ds.Dim, ds.Coords)
	}
	// Width disagreement across frames is an error.
	bad := append(append([]byte(nil), raw...), AppendPointsRows(nil, [][]float64{{7, 8, 9}}, false)...)
	if _, err := ReadDataset32(bytes.NewReader(bad), false); err == nil {
		t.Error("mixed-width frames accepted")
	}
	// Non-points frames are rejected.
	if _, err := ReadDataset32(bytes.NewReader(AppendHeader(nil, Header{})), false); err == nil {
		t.Error("header frame accepted as dataset upload")
	}
}

func TestEncodePointsChunks(t *testing.T) {
	pts := make([][]float64, 10)
	for i := range pts {
		pts[i] = []float64{float64(i), float64(-i)}
	}
	i := 0
	next := func() ([]float64, error) {
		if i == len(pts) {
			return nil, io.EOF
		}
		i++
		return pts[i-1], nil
	}
	var buf bytes.Buffer
	if err := EncodePoints(&buf, next, 4, false); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var got [][]float64
	frames := 0
	for {
		f, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		frames++
		for j := 0; j < f.N; j++ {
			got = append(got, f.Row(j))
		}
	}
	if frames != 3 { // 4+4+2
		t.Errorf("chunked into %d frames, want 3", frames)
	}
	if len(got) != len(pts) {
		t.Fatalf("%d points decoded, want %d", len(got), len(pts))
	}
	for i := range pts {
		if got[i][0] != pts[i][0] || got[i][1] != pts[i][1] {
			t.Fatalf("point %d: %v != %v", i, got[i], pts[i])
		}
	}
}

func TestTracker(t *testing.T) {
	var raw []byte
	raw = AppendHeader(raw, Header{Dataset: "d"})
	raw = AppendPointsRows(raw, [][]float64{{1, 2}, {3, 4}}, false)
	raw = AppendLabels(raw, []int32{1})

	// Whole stream in one write: boundary.
	var tr Tracker
	tr.Consume(raw)
	if !tr.AtBoundary() {
		t.Error("full stream not at boundary")
	}
	// Byte-at-a-time: boundary only at frame edges.
	tr = Tracker{}
	boundaries := 0
	for _, b := range raw {
		tr.Consume([]byte{b})
		if tr.AtBoundary() {
			boundaries++
		}
	}
	if boundaries != 3 {
		t.Errorf("%d boundaries seen, want 3", boundaries)
	}
	// Torn mid-frame: not at boundary.
	tr = Tracker{}
	tr.Consume(raw[:len(raw)-2])
	if tr.AtBoundary() {
		t.Error("torn stream reported a boundary")
	}
}
