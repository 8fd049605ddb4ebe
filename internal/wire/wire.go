// Package wire is the binary columnar codec for the dpcd serving hot
// path: a length-prefixed frame format carrying raw little-endian
// coordinate columns and label runs, so /v1/assign and /v1/assign/stream
// can skip JSON float parsing entirely — the dominant per-point cost of
// the text protocol. Both request directions of the streaming endpoint
// and the batch endpoint speak it under the media type
// "application/x-dpc-frame" (content negotiation lives in the service
// layer; this package only defines the bytes).
//
// One frame, little-endian:
//
//	magic      uint32  "DPCF"
//	version    uint8   format version (currently 1)
//	kind       uint8   1=header 2=points 3=labels 4=summary 5=error
//	                   6=decision
//	flags      uint8   bit0: float32 coordinates (points frames only)
//	reserved   uint8   must be 0
//	payloadLen uint32  bytes that follow, <= MaxPayload
//	payload    ...
//
// Payloads by kind:
//
//	header   dataset str, algorithm str, dcut f64, rho_min f64,
//	         delta_min f64, epsilon f64, seed i64
//	points   n u32, dim u32, n*dim coordinates (f64, or f32 widened
//	         losslessly to f64 on decode)
//	labels   n u32, n labels i32
//	summary  points i64, chunks i64, clusters u32, cache_hit u8
//	error    message str
//	decision n u32, n ids i32, n rho f64, n delta f64 (columnar)
//
// str is u32 length + bytes. A request stream is one header frame then
// any number of points frames; a response stream is any number of labels
// frames terminated by exactly one summary (success) or error frame.
// Every declared length — the payload length, string lengths, element
// counts — is validated against the bytes actually present before
// anything is allocated, the same hostile-input discipline as the DPS1
// snapshot codec in internal/persist.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/api"
	"repro/internal/geom"
)

// ContentType is the media type both directions of the frame protocol
// are served under.
const ContentType = "application/x-dpc-frame"

const (
	frameMagic   = uint32(0x46435044) // "DPCF" on the wire
	frameVersion = byte(1)

	// frameHeaderSize is the fixed prefix of every frame.
	frameHeaderSize = 12

	// MaxPayload caps one frame's payload so a hostile length field can
	// cost at most this much memory before the truncation error fires.
	// Encoders chunk larger point sets across frames.
	MaxPayload = 32 << 20

	// maxDim mirrors the dimensionality cap of the other binary decoders
	// (data.LoadBinary, persist): beyond it the header is corrupt, not a
	// dataset.
	maxDim = 1 << 20

	// maxNameLen bounds the header frame's name strings.
	maxNameLen = 1 << 12
)

// Frame kinds.
const (
	KindHeader  = byte(1)
	KindPoints  = byte(2)
	KindLabels  = byte(3)
	KindSummary = byte(4)
	KindError   = byte(5)
	// KindDecision carries decision-graph points — the binary response
	// body of GET /v1/decision-graph, for plotting clients that want the
	// (rho, delta) columns without JSON float parsing.
	KindDecision = byte(6)
)

// FlagFloat32 marks a points frame whose coordinates are float32 on the
// wire; decoding widens them losslessly to float64.
const FlagFloat32 = byte(1)

// Header is the decoded header frame: the (dataset, algorithm, params)
// triple that names the model, mirroring the JSON FitRequest.
type Header struct {
	Dataset   string
	Algorithm string
	DCut      float64
	RhoMin    float64
	DeltaMin  float64
	Epsilon   float64
	Seed      int64
}

// Summary is the decoded terminal summary frame of a successful stream.
type Summary struct {
	Points   int64
	Chunks   int64
	Clusters int
	CacheHit bool
}

// Frame is one decoded frame. Kind selects which fields are set.
type Frame struct {
	Kind    byte
	Header  Header    // KindHeader
	N, Dim  int       // KindPoints
	Coords  []float64 // KindPoints: N*Dim row-major values, f32 widened unless the reader keeps f32
	Float32 bool      // KindPoints: coordinates were float32 on the wire
	Labels  []int32   // KindLabels
	Summary Summary   // KindSummary
	ErrMsg  string    // KindError

	// Coords32 holds the raw float32 coordinates of a FlagFloat32 points
	// frame when the decoding Reader runs in keep-f32 mode (an f32
	// ReadDataset32). Exactly one of Coords and Coords32 is non-nil for a
	// non-empty points frame; float64 frames always decode into Coords.
	Coords32 []float32

	// Decision holds KindDecision points in the frame's order (the
	// encoder preserves the caller's, conventionally descending delta).
	Decision []api.DecisionPoint
}

// Row returns points-frame row i as a view into Coords (no copy).
func (f *Frame) Row(i int) []float64 {
	return f.Coords[i*f.Dim : (i+1)*f.Dim : (i+1)*f.Dim]
}

// ---------------------------------------------------------------------------
// Encoding. All encoders append to dst and return the extended slice, so
// hot loops can reuse one buffer across frames.

// beginFrame appends a frame header with a zero payload length;
// endFrame patches the length in once the payload has been appended.
func beginFrame(dst []byte, kind, flags byte) (out []byte, mark int) {
	mark = len(dst)
	out = appendU32(dst, frameMagic)
	out = append(out,
		frameVersion, kind, flags, 0,
		0, 0, 0, 0, // payloadLen, patched by endFrame
	)
	return out, mark
}

func endFrame(dst []byte, mark int) []byte {
	payload := len(dst) - mark - frameHeaderSize
	binary.LittleEndian.PutUint32(dst[mark+8:], uint32(payload))
	return dst
}

func appendU32(dst []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(dst, v) }
func appendStr(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// AppendHeader appends one header frame.
func AppendHeader(dst []byte, h Header) []byte {
	dst, mark := beginFrame(dst, KindHeader, 0)
	dst = appendStr(dst, h.Dataset)
	dst = appendStr(dst, h.Algorithm)
	for _, v := range [...]float64{h.DCut, h.RhoMin, h.DeltaMin, h.Epsilon} {
		dst = appendU64(dst, math.Float64bits(v))
	}
	dst = appendU64(dst, uint64(h.Seed))
	return endFrame(dst, mark)
}

// AppendPointsRows appends one points frame holding the rows, which
// must share one width. With float32 set, coordinates are narrowed to
// f32 on the wire (halving bytes; only lossless if the values
// round-trip — see the README's guidance). Ragged rows, or a frame that
// does not fit MaxPayload, are caller bugs.
func AppendPointsRows(dst []byte, rows [][]float64, float32w bool) []byte {
	n, dim := 0, 0
	if len(rows) > 0 && len(rows[0]) > 0 {
		n, dim = len(rows), len(rows[0])
	}
	esize := 8
	flags := byte(0)
	if float32w {
		esize, flags = 4, FlagFloat32
	}
	if 8+n*dim*esize > MaxPayload {
		panic("wire: points frame exceeds MaxPayload; chunk it")
	}
	dst, mark := beginFrame(dst, KindPoints, flags)
	dst = appendU32(dst, uint32(n))
	dst = appendU32(dst, uint32(dim))
	for _, r := range rows {
		if len(r) != dim {
			panic("wire: ragged rows in one points frame")
		}
		if float32w {
			for _, v := range r {
				dst = appendU32(dst, math.Float32bits(float32(v)))
			}
		} else {
			for _, v := range r {
				dst = appendU64(dst, math.Float64bits(v))
			}
		}
	}
	return endFrame(dst, mark)
}

// AppendLabels appends one labels frame.
func AppendLabels(dst []byte, labels []int32) []byte {
	dst, mark := beginFrame(dst, KindLabels, 0)
	dst = appendU32(dst, uint32(len(labels)))
	for _, l := range labels {
		dst = appendU32(dst, uint32(l))
	}
	return endFrame(dst, mark)
}

// AppendSummary appends the terminal summary frame.
func AppendSummary(dst []byte, s Summary) []byte {
	dst, mark := beginFrame(dst, KindSummary, 0)
	dst = appendU64(dst, uint64(s.Points))
	dst = appendU64(dst, uint64(s.Chunks))
	dst = appendU32(dst, uint32(s.Clusters))
	hit := byte(0)
	if s.CacheHit {
		hit = 1
	}
	dst = append(dst, hit)
	return endFrame(dst, mark)
}

// AppendError appends the terminal error frame.
func AppendError(dst []byte, msg string) []byte {
	if len(msg) > MaxPayload/2 {
		msg = msg[:MaxPayload/2]
	}
	dst, mark := beginFrame(dst, KindError, 0)
	dst = appendStr(dst, msg)
	return endFrame(dst, mark)
}

// maxDecisionPerFrame keeps one decision frame (4-byte count plus 20
// bytes per point, columnar) under MaxPayload.
const maxDecisionPerFrame = (MaxPayload - 4) / 20

// AppendDecision appends pts as one or more decision frames, chunked so
// each frame respects MaxPayload, preserving order across frames.
func AppendDecision(dst []byte, pts []api.DecisionPoint) []byte {
	for {
		chunk := pts
		if len(chunk) > maxDecisionPerFrame {
			chunk = chunk[:maxDecisionPerFrame]
		}
		var mark int
		dst, mark = beginFrame(dst, KindDecision, 0)
		dst = appendU32(dst, uint32(len(chunk)))
		for _, p := range chunk {
			dst = appendU32(dst, uint32(p.ID))
		}
		for _, p := range chunk {
			dst = appendU64(dst, math.Float64bits(p.Rho))
		}
		for _, p := range chunk {
			dst = appendU64(dst, math.Float64bits(p.Delta))
		}
		dst = endFrame(dst, mark)
		pts = pts[len(chunk):]
		if len(pts) == 0 {
			return dst
		}
	}
}

// ---------------------------------------------------------------------------
// Decoding.

// payloadDecoder walks one payload with a sticky error; every read is
// bounds-checked against the bytes remaining before allocating.
type payloadDecoder struct {
	b   []byte
	err error
}

func (d *payloadDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *payloadDecoder) need(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.b) < n {
		d.fail("wire: truncated payload: need %d bytes, have %d", n, len(d.b))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *payloadDecoder) u32() uint32 {
	b := d.need(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *payloadDecoder) u64() uint64 {
	b := d.need(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *payloadDecoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *payloadDecoder) str() string {
	n := d.u32()
	if d.err == nil && n > maxNameLen {
		d.fail("wire: string length %d exceeds limit %d", n, maxNameLen)
	}
	return string(d.need(int(n)))
}

func (d *payloadDecoder) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes after payload", len(d.b))
	}
	return nil
}

// parseFrameHeader validates the 12-byte prefix and returns (kind,
// flags, payloadLen).
func parseFrameHeader(b []byte) (kind, flags byte, payloadLen int, err error) {
	if m := binary.LittleEndian.Uint32(b); m != frameMagic {
		return 0, 0, 0, fmt.Errorf("wire: bad magic %#x", m)
	}
	if b[4] != frameVersion {
		return 0, 0, 0, fmt.Errorf("wire: unsupported frame version %d (want %d)", b[4], frameVersion)
	}
	kind, flags = b[5], b[6]
	if kind < KindHeader || kind > KindDecision {
		return 0, 0, 0, fmt.Errorf("wire: unknown frame kind %d", kind)
	}
	if flags&^FlagFloat32 != 0 {
		return 0, 0, 0, fmt.Errorf("wire: unknown flags %#x", flags)
	}
	if flags != 0 && kind != KindPoints {
		return 0, 0, 0, fmt.Errorf("wire: flags %#x on non-points frame kind %d", flags, kind)
	}
	if b[7] != 0 {
		return 0, 0, 0, fmt.Errorf("wire: nonzero reserved byte %d", b[7])
	}
	declared := binary.LittleEndian.Uint32(b[8:])
	if declared > MaxPayload {
		return 0, 0, 0, fmt.Errorf("wire: declared payload of %d bytes exceeds the %d limit", declared, MaxPayload)
	}
	return kind, flags, int(declared), nil
}

// decodePayload decodes one validated payload into a Frame. With keep32
// set, FlagFloat32 points frames decode into Frame.Coords32 instead of
// widening to float64 — the path a float32 dataset upload takes so the
// narrow representation survives the wire end to end.
func decodePayload(kind, flags byte, payload []byte, keep32 bool) (*Frame, error) {
	f := &Frame{Kind: kind}
	d := &payloadDecoder{b: payload}
	switch kind {
	case KindHeader:
		f.Header.Dataset = d.str()
		f.Header.Algorithm = d.str()
		f.Header.DCut = d.f64()
		f.Header.RhoMin = d.f64()
		f.Header.DeltaMin = d.f64()
		f.Header.Epsilon = d.f64()
		f.Header.Seed = int64(d.u64())
	case KindPoints:
		n := d.u32()
		dim := d.u32()
		esize := uint64(8)
		if flags&FlagFloat32 != 0 {
			f.Float32 = true
			esize = 4
		}
		if d.err == nil {
			if dim == 0 && n > 0 {
				d.fail("wire: zero-dimensional points")
			}
			if dim > maxDim {
				d.fail("wire: implausible dimensionality %d (max %d)", dim, maxDim)
			}
			// The element count must match the payload exactly; checked
			// before the coordinate slice is allocated, so a forged count
			// costs nothing. Products stay in uint64: both factors < 2^32.
			if want := uint64(n) * uint64(dim) * esize; d.err == nil && want != uint64(len(d.b)) {
				d.fail("wire: %dx%d points declare %d payload bytes, frame holds %d", n, dim, want, len(d.b))
			}
		}
		if d.err == nil {
			f.N, f.Dim = int(n), int(dim)
			switch {
			case f.Float32 && keep32:
				f.Coords32 = make([]float32, int(n)*int(dim))
				for i := range f.Coords32 {
					f.Coords32[i] = math.Float32frombits(binary.LittleEndian.Uint32(d.b[4*i:]))
				}
			case f.Float32:
				f.Coords = make([]float64, int(n)*int(dim))
				for i := range f.Coords {
					f.Coords[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(d.b[4*i:])))
				}
			default:
				f.Coords = make([]float64, int(n)*int(dim))
				for i := range f.Coords {
					f.Coords[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[8*i:]))
				}
			}
			d.b = nil
			if i := firstNaN(f); i >= 0 {
				d.fail("wire: point %d coordinate %d is NaN", i/f.Dim, i%f.Dim)
			}
		}
	case KindLabels:
		n := d.u32()
		if d.err == nil && uint64(n)*4 != uint64(len(d.b)) {
			d.fail("wire: %d labels declare %d payload bytes, frame holds %d", n, 4*n, len(d.b))
		}
		if d.err == nil {
			f.Labels = make([]int32, n)
			for i := range f.Labels {
				f.Labels[i] = int32(binary.LittleEndian.Uint32(d.b[4*i:]))
			}
			d.b = nil
		}
	case KindSummary:
		f.Summary.Points = int64(d.u64())
		f.Summary.Chunks = int64(d.u64())
		f.Summary.Clusters = int(int32(d.u32()))
		b := d.need(1)
		if b != nil {
			switch b[0] {
			case 0:
			case 1:
				f.Summary.CacheHit = true
			default:
				d.fail("wire: cache_hit byte %d is not 0 or 1", b[0])
			}
		}
	case KindError:
		f.ErrMsg = d.str()
	case KindDecision:
		n := d.u32()
		if d.err == nil && uint64(n)*20 != uint64(len(d.b)) {
			d.fail("wire: %d decision points declare %d payload bytes, frame holds %d", n, 20*n, len(d.b))
		}
		if d.err == nil {
			f.Decision = make([]api.DecisionPoint, n)
			ids, rhos := d.b, d.b[4*n:]
			deltas := rhos[8*n:]
			for i := range f.Decision {
				f.Decision[i] = api.DecisionPoint{
					ID:    int32(binary.LittleEndian.Uint32(ids[4*i:])),
					Rho:   math.Float64frombits(binary.LittleEndian.Uint64(rhos[8*i:])),
					Delta: math.Float64frombits(binary.LittleEndian.Uint64(deltas[8*i:])),
				}
			}
			d.b = nil
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return f, nil
}

// firstNaN returns the index of the first NaN coordinate of a points
// frame, or -1. A NaN point has no distance to anything, and widening
// a float32 NaN may change its bits, so points frames reject them.
func firstNaN(f *Frame) int {
	for i, v := range f.Coords {
		if v != v {
			return i
		}
	}
	for i, v := range f.Coords32 {
		if v != v {
			return i
		}
	}
	return -1
}

// DecodeFrame decodes the first frame of raw and returns it plus the
// remaining bytes. It is total: corrupt, truncated, or hostile inputs
// return an error without panicking or allocating beyond the input size.
func DecodeFrame(raw []byte) (*Frame, []byte, error) {
	if len(raw) < frameHeaderSize {
		return nil, nil, fmt.Errorf("wire: truncated frame: %d bytes is shorter than the %d-byte frame header", len(raw), frameHeaderSize)
	}
	kind, flags, payloadLen, err := parseFrameHeader(raw)
	if err != nil {
		return nil, nil, err
	}
	if len(raw)-frameHeaderSize < payloadLen {
		return nil, nil, fmt.Errorf("wire: truncated frame: declared payload of %d bytes, %d present", payloadLen, len(raw)-frameHeaderSize)
	}
	f, err := decodePayload(kind, flags, raw[frameHeaderSize:frameHeaderSize+payloadLen], false)
	if err != nil {
		return nil, nil, err
	}
	return f, raw[frameHeaderSize+payloadLen:], nil
}

// Reader decodes a frame stream incrementally: one frame per Next call,
// never holding more than one frame's payload in memory.
type Reader struct {
	r io.Reader
	// keep32 decodes FlagFloat32 points frames into Frame.Coords32
	// without widening; an f32 ReadDataset32 sets it.
	keep32 bool
	hdr    [frameHeaderSize]byte
}

// NewReader wraps r. Callers on the HTTP path hand it a bufio.Reader;
// the Reader itself issues only exact-size reads.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next returns the next frame. io.EOF is returned only at a clean frame
// boundary; a stream that ends inside a frame is a truncation error, so
// a dead upstream can never be mistaken for a finished stream.
func (r *Reader) Next() (*Frame, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: truncated frame header: %w", err)
	}
	kind, flags, payloadLen, err := parseFrameHeader(r.hdr[:])
	if err != nil {
		return nil, err
	}
	payload := make([]byte, payloadLen)
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return nil, fmt.Errorf("wire: truncated frame payload: %w", err)
	}
	return decodePayload(kind, flags, payload, r.keep32)
}

// ReadHeaderFrame reads exactly one frame from br, requires it to be a
// header frame, and returns both the decoded header and the raw frame
// bytes — the relay uses the raw bytes to reassemble the stream for the
// owning shard without re-encoding anything.
func ReadHeaderFrame(br *bufio.Reader) (Header, []byte, error) {
	raw := make([]byte, frameHeaderSize)
	if _, err := io.ReadFull(br, raw); err != nil {
		return Header{}, nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	kind, flags, payloadLen, err := parseFrameHeader(raw)
	if err != nil {
		return Header{}, nil, err
	}
	if kind != KindHeader {
		return Header{}, nil, fmt.Errorf("wire: stream must open with a header frame, got kind %d", kind)
	}
	raw = append(raw, make([]byte, payloadLen)...)
	if _, err := io.ReadFull(br, raw[frameHeaderSize:]); err != nil {
		return Header{}, nil, fmt.Errorf("wire: truncated header frame: %w", err)
	}
	f, err := decodePayload(kind, flags, raw[frameHeaderSize:], false)
	if err != nil {
		return Header{}, nil, err
	}
	return f.Header, raw, nil
}

// PeekDataset extracts the dataset name from a buffered frame-codec
// request body by decoding only the leading header frame — the binary
// analogue of the router's JSON peek; point frames are never touched.
func PeekDataset(body []byte) (string, error) {
	f, _, err := DecodeFrame(body)
	if err != nil {
		return "", err
	}
	if f.Kind != KindHeader {
		return "", fmt.Errorf("wire: request must open with a header frame, got kind %d", f.Kind)
	}
	return f.Header.Dataset, nil
}

// ReadDataset32 decodes an upload body — one or more points frames, all
// of one width — into a dataset. The per-frame payload cap bounds each
// allocation; the caller bounds the body as a whole. With f32 unset the
// dataset is float64, widening f32 frames losslessly. With f32 set it is
// stored as float32: FlagFloat32 frames keep their exact wire values (no
// widening round trip), and float64 frames are narrowed — lossy for
// values that do not round-trip, which is the caller's explicit choice
// by requesting f32.
func ReadDataset32(r io.Reader, f32 bool) (*geom.Dataset, error) {
	fr := &Reader{r: bufio.NewReaderSize(r, 64<<10), keep32: f32}
	var (
		coords   []float64
		coords32 []float32
	)
	dim := -1
	for {
		f, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if f.Kind != KindPoints {
			return nil, fmt.Errorf("wire: dataset upload must contain only points frames, got kind %d", f.Kind)
		}
		if f.N == 0 {
			continue
		}
		if dim == -1 {
			dim = f.Dim
		} else if f.Dim != dim {
			return nil, fmt.Errorf("wire: points frame has dimension %d, previous frames %d", f.Dim, dim)
		}
		if !f32 {
			coords = append(coords, f.Coords...)
			continue
		}
		if f.Coords32 != nil {
			coords32 = append(coords32, f.Coords32...)
		} else {
			for _, v := range f.Coords {
				coords32 = append(coords32, float32(v))
			}
		}
	}
	if dim <= 0 {
		return &geom.Dataset{}, nil
	}
	if f32 {
		return geom.NewDataset32(coords32, dim), nil
	}
	return geom.NewDataset(coords, dim), nil
}

// EncodePoints writes pts as chunked points frames until next returns
// io.EOF — the producer half of a binary assign stream, fed to one end
// of an io.Pipe whose other end is the client. chunk <= 0 picks a
// default that keeps frames well under MaxPayload at any sane width.
func EncodePoints(w io.Writer, next func() ([]float64, error), chunk int, float32w bool) error {
	if chunk <= 0 {
		chunk = 8192
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var (
		flat []float64
		rows [][]float64
		dim  = -1
		buf  []byte
	)
	flush := func() error {
		if len(flat) == 0 {
			return nil
		}
		rows = rows[:0]
		for i := 0; i < len(flat); i += dim {
			rows = append(rows, flat[i:i+dim])
		}
		buf = AppendPointsRows(buf[:0], rows, float32w)
		flat = flat[:0]
		_, err := bw.Write(buf)
		return err
	}
	for {
		pt, err := next()
		if err == io.EOF {
			if err := flush(); err != nil {
				return err
			}
			return bw.Flush()
		}
		if err != nil {
			return err
		}
		if dim == -1 {
			dim = len(pt)
		} else if len(pt) != dim {
			return fmt.Errorf("wire: point has dimension %d, stream started with %d", len(pt), dim)
		}
		flat = append(flat, pt...)
		if dim > 0 && len(flat)/dim >= chunk {
			if err := flush(); err != nil {
				return err
			}
		}
	}
}

// Tracker follows frame boundaries in a byte stream without decoding
// payloads — the relay hop runs every forwarded byte through one so
// that, if the owner dies mid-stream, it knows whether a terminal error
// frame can legally be appended (only at a boundary; bytes welded onto a
// torn frame would corrupt the stream instead of explaining it).
type Tracker struct {
	have int // frame-header bytes collected so far
	need int // payload bytes still expected for the current frame
	hdr  [frameHeaderSize]byte
}

// Consume advances the tracker over p. It never validates — a corrupt
// stream makes boundary tracking meaningless anyway, and validation is
// the endpoints' job.
func (t *Tracker) Consume(p []byte) {
	for len(p) > 0 {
		if t.need > 0 {
			n := min(t.need, len(p))
			t.need -= n
			p = p[n:]
			continue
		}
		n := copy(t.hdr[t.have:], p)
		t.have += n
		p = p[n:]
		if t.have == frameHeaderSize {
			t.have = 0
			t.need = int(binary.LittleEndian.Uint32(t.hdr[8:]))
		}
	}
}

// AtBoundary reports whether every byte consumed so far forms whole
// frames.
func (t *Tracker) AtBoundary() bool { return t.have == 0 && t.need == 0 }
