package service

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"runtime"
	"strings"

	"repro/api"
	"repro/internal/core"
	"repro/internal/wire"
)

// The streaming assign wire format (POST /v1/assign/stream) is NDJSON in
// both directions by default. The request is one header line — a
// api.FitRequest object — followed by one point per line, each a JSON array
// of coordinates:
//
//	{"dataset":"s2","algorithm":"Ex-DPC","params":{"dcut":2500,...}}
//	[12034.1,38840.2]
//	[61300.0,20018.7]
//	...
//
// The response is a sequence of api.StreamRecord lines: one {"labels":[...]}
// record per labeled chunk, in input order, terminated by exactly one of
// {"summary":{...}} (success) or {"error":"..."} (failure after the
// stream began; failures before any labeling use plain JSON statuses like
// the batch endpoint). Memory on both sides stays O(chunk), never O(body),
// so one fitted model can label arbitrarily long query streams through
// any shard.
//
// Both directions also speak the binary frame codec (internal/wire) under
// Content-Type/Accept "application/x-dpc-frame": the request becomes one
// header frame followed by points frames, the response labels frames
// terminated by a summary (or error) frame. Each direction negotiates
// independently — the request codec comes from Content-Type, the response
// codec from Accept, and an absent Accept mirrors the request.

// ndjsonContentType is the default media type of both stream directions.
const ndjsonContentType = "application/x-ndjson"

// isFrameMedia reports whether a media-type header value names the
// binary frame codec.
func isFrameMedia(v string) bool {
	mt, _, err := mime.ParseMediaType(v)
	if err != nil {
		return strings.HasPrefix(strings.TrimSpace(v), wire.ContentType)
	}
	return mt == wire.ContentType
}

// frameRequest reports whether the request body is frame-encoded
// (Content-Type negotiation).
func frameRequest(r *http.Request) bool {
	return isFrameMedia(r.Header.Get("Content-Type"))
}

// frameResponse reports whether the response should be frame-encoded: an
// explicit Accept naming the frame codec wins; an absent Accept mirrors
// the request codec, so a frames-in client gets frames out without extra
// headers. ("*/*" and other wildcards keep the mirrored default — both
// codecs satisfy them, and the request codec is the better tiebreak.)
func frameResponse(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	if accept == "" || accept == "*/*" {
		return frameRequest(r)
	}
	for _, part := range strings.Split(accept, ",") {
		if isFrameMedia(part) {
			return true
		}
	}
	return false
}

// gzipRequest reports whether the request body arrives gzip-compressed
// (Content-Encoding negotiation; "x-gzip" is its HTTP/1.0 alias).
func gzipRequest(r *http.Request) bool {
	ce := strings.TrimSpace(r.Header.Get("Content-Encoding"))
	return strings.EqualFold(ce, "gzip") || strings.EqualFold(ce, "x-gzip")
}

// wantsGzipResponse reports whether the client asked for a gzip response
// body via an explicit Accept-Encoding. Only explicit opt-in counts: the
// Go transport silently injects its own Accept-Encoding: gzip and then
// transparently decompresses, so honoring that default would gain
// nothing while hiding the encoding from relays.
func wantsGzipResponse(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept-Encoding"), ",") {
		enc := part
		if i := strings.IndexByte(enc, ';'); i >= 0 {
			enc = enc[:i]
		}
		enc = strings.TrimSpace(enc)
		if strings.EqualFold(enc, "gzip") || strings.EqualFold(enc, "x-gzip") {
			return true
		}
	}
	return false
}

// gzipResponseWriter compresses a label stream on the way out. Flush
// must flush the compressor first — a gzip.Writer buffers a whole
// deflate block — or the per-chunk flush discipline of the stream
// handlers would stop delivering chunks promptly.
type gzipResponseWriter struct {
	http.ResponseWriter
	gz *gzip.Writer
}

func (g *gzipResponseWriter) Write(p []byte) (int, error) { return g.gz.Write(p) }

func (g *gzipResponseWriter) Flush() {
	_ = g.gz.Flush()
	if f, ok := g.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// maxStreamLineBytes caps one NDJSON line (header or point). A point line
// is a single coordinate array, so 1 MiB allows ~65k dimensions — far
// beyond any real dataset — while bounding what a hostile stream can make
// the server buffer per line. Gzip request bodies are capped after
// decompression — the limit bounds buffered memory, which a compressed
// transport does not change.
const maxStreamLineBytes = 1 << 20

// streamChunk resolves the chunk size: Options.StreamChunk when set,
// otherwise scaled to the worker pool so every chunk can spread across
// all assign workers with work to spare, clamped so chunks stay small
// enough that label records flush frequently and large enough that
// per-chunk overhead (JSON record, flush, dispatch) amortizes. Explicit
// values are capped at the batch-endpoint limit: every stream allocates
// its chunk buffer up front, and a misconfigured huge -stream-chunk must
// not turn each request into an OOM.
func (o Options) streamChunk() int {
	if o.StreamChunk > 0 {
		return min(o.StreamChunk, maxAssignPoints)
	}
	w := o.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	c := 2048 * w
	if c > 65536 {
		c = 65536
	}
	return c
}

// errTooManyStreams refuses a stream over the concurrency cap; it maps
// to HTTP 429 so clients know to retry, not to fix their request.
var errTooManyStreams = errors.New("service: too many concurrent streams; retry later")

// acquireStream claims a concurrent-stream slot without blocking; the
// caller must releaseStream iff it returns true.
func (s *Service) acquireStream() bool {
	select {
	case s.streamSem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (s *Service) releaseStream() { <-s.streamSem }

// AssignStream labels an unbounded point stream against the model for
// (dataset, algorithm, params), fitting it at most once. next returns one
// point per call and io.EOF at end of stream; emit receives each chunk's
// labels in input order and may abort the stream by returning an error.
// Memory is bounded by the chunk size regardless of stream length. The
// stream counts against Options.MaxStreams and MaxStreamPoints.
func (s *Service) AssignStream(dataset, algorithm string, p core.Params, next func() ([]float64, error), emit func([]int32) error) (api.StreamSummary, error) {
	fr, obs, err := s.serveFit(dataset, algorithm, p)
	if err != nil {
		return api.StreamSummary{}, err
	}
	if !s.acquireStream() {
		return api.StreamSummary{}, errTooManyStreams
	}
	defer s.releaseStream()
	return s.assignStream(fr, obs, 0, next, emit)
}

// assignStream is the chunked labeling loop shared by AssignStream and
// the HTTP handler (which performs the Fit itself so pre-stream errors
// keep their HTTP statuses). chunkSize > 0 lowers the label-chunk size
// below the configured default (the ?chunk= request knob); it can never
// raise it, so the server's memory bound holds regardless of input.
// fr and obs are captured once at stream start: a drift refit that
// swaps the served model mid-stream does not affect this stream — it
// finishes on the model it started with, observing into the tracker
// paired with that model.
func (s *Service) assignStream(fr FitResult, obs *driftObs, chunkSize int, next func() ([]float64, error), emit func([]int32) error) (api.StreamSummary, error) {
	s.assignRequests.Add(1)
	sum := api.StreamSummary{Clusters: fr.Model.NumClusters(), CacheHit: fr.CacheHit}
	dim := fr.Model.Dim()
	limit := s.opts.maxStreamPoints()
	if max := s.opts.streamChunk(); chunkSize <= 0 || chunkSize > max {
		chunkSize = max
	}
	chunk := make([][]float64, 0, chunkSize)
	flush := func() error {
		if len(chunk) == 0 {
			return nil
		}
		labels, err := s.assignChunk(fr.Model, obs, chunk)
		if err != nil {
			return err
		}
		sum.Chunks++
		chunk = chunk[:0]
		return emit(labels)
	}
	for {
		pt, err := next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return sum, err
		}
		if len(pt) != dim {
			return sum, fmt.Errorf("service: stream point %d has dimension %d, want %d", sum.Points, len(pt), dim)
		}
		chunk = append(chunk, pt)
		sum.Points++
		if sum.Points > limit {
			return sum, fmt.Errorf("service: stream exceeds the %d-point limit", limit)
		}
		if len(chunk) == cap(chunk) {
			if err := flush(); err != nil {
				return sum, err
			}
		}
	}
	if err := flush(); err != nil {
		return sum, err
	}
	return sum, nil
}

// headerToFit converts a decoded binary header frame into the FitRequest
// it mirrors.
func headerToFit(h wire.Header) api.FitRequest {
	return api.FitRequest{
		Dataset:   h.Dataset,
		Algorithm: h.Algorithm,
		Params: api.Params{
			DCut: h.DCut, RhoMin: h.RhoMin, DeltaMin: h.DeltaMin,
			Epsilon: h.Epsilon, Seed: h.Seed,
		},
	}
}

// fitToHeader is headerToFit's inverse — the client half of the frame
// codec.
func fitToHeader(req api.FitRequest) wire.Header {
	return wire.Header{
		Dataset:   req.Dataset,
		Algorithm: req.Algorithm,
		DCut:      req.Params.DCut,
		RhoMin:    req.Params.RhoMin,
		DeltaMin:  req.Params.DeltaMin,
		Epsilon:   req.Params.Epsilon,
		Seed:      req.Params.Seed,
	}
}

// streamEmitter abstracts the response half of a label stream over the
// two codecs: chunks of labels in order, then exactly one summary or
// terminal error.
type streamEmitter interface {
	contentType() string
	labels([]int32) error
	summary(api.StreamSummary)
	terminalError(error)
}

// ndjsonEmitter writes api.StreamRecord lines with a flush per record.
type ndjsonEmitter struct {
	w   http.ResponseWriter
	enc *json.Encoder
}

func newNDJSONEmitter(w http.ResponseWriter) *ndjsonEmitter {
	return &ndjsonEmitter{w: w, enc: json.NewEncoder(w)}
}

func (e *ndjsonEmitter) contentType() string { return ndjsonContentType }

func (e *ndjsonEmitter) labels(labels []int32) error {
	if err := e.enc.Encode(api.StreamRecord{Labels: labels}); err != nil {
		return err
	}
	flushResponse(e.w)
	return nil
}

func (e *ndjsonEmitter) summary(sum api.StreamSummary) {
	_ = e.enc.Encode(api.StreamRecord{Summary: &sum})
	flushResponse(e.w)
}

func (e *ndjsonEmitter) terminalError(err error) { writeStreamError(e.w, err) }

// frameEmitter writes binary labels/summary/error frames, reusing one
// buffer across chunks so the hot path allocates nothing per record.
type frameEmitter struct {
	w   http.ResponseWriter
	buf []byte
}

func (e *frameEmitter) contentType() string { return wire.ContentType }

func (e *frameEmitter) labels(labels []int32) error {
	e.buf = wire.AppendLabels(e.buf[:0], labels)
	if _, err := e.w.Write(e.buf); err != nil {
		return err
	}
	flushResponse(e.w)
	return nil
}

func (e *frameEmitter) summary(sum api.StreamSummary) {
	e.buf = wire.AppendSummary(e.buf[:0], wire.Summary{
		Points: sum.Points, Chunks: sum.Chunks,
		Clusters: sum.Clusters, CacheHit: sum.CacheHit,
	})
	_, _ = e.w.Write(e.buf)
	flushResponse(e.w)
}

func (e *frameEmitter) terminalError(err error) {
	e.buf = wire.AppendError(e.buf[:0], err.Error())
	_, _ = e.w.Write(e.buf)
	flushResponse(e.w)
}

func flushResponse(w http.ResponseWriter) {
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// maxStreamDrainBytes bounds how much of an unread stream body is read
// and discarded after the handler is done — net/http's own bound for a
// body a handler leaves unread.
const maxStreamDrainBytes = 256 << 10

// fullDuplex wraps a stream route, served or relayed. An HTTP/1.x server
// normally closes the request body at the first response write; a
// stream reads points while labels flow back for its whole life, so it
// must opt in to full duplex. (HTTP/2 is duplex natively and reports
// unsupported.) In full duplex, net/http no longer ends an unread body
// before the response, and a body that reaches EOF in the server's
// post-handler cleanup starts a background connection read too late to
// be stopped: the server panics on the connection's next request read
// ("invalid concurrent Body.Read call") and the client's next request on
// it is reset. So the wrapper ends the body itself once the handler
// returns — a no-op after a clean stream, which read it to EOF; after an
// error, read to EOF, which the server then handles as for any finished
// body, or past maxStreamDrainBytes, which MaxBytesReader turns into
// closing the connection after the reply.
func fullDuplex(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		_ = http.NewResponseController(w).EnableFullDuplex()
		body := r.Body
		h(w, r)
		// A read error leaves nothing to save: the connection is broken or
		// carries a malformed body, and the server closes it.
		_, _ = io.Copy(io.Discard, http.MaxBytesReader(w, body, maxStreamDrainBytes))
	}
}

// handleStream is POST /v1/assign/stream. Errors before the first
// byte of the response stream (bad header, unknown dataset, failed fit,
// stream cap reached) are plain JSON with the same statuses as the batch
// endpoint; once streaming has begun the only channel left is a terminal
// error record in the negotiated codec.
func (rt *Router) handleStream(w http.ResponseWriter, r *http.Request) {
	s := rt.local
	var sq api.StreamQuery
	if err := api.ParseQuery(r.URL.Query(), &sq); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	bodySrc := io.Reader(r.Body)
	if gzipRequest(r) {
		zr, err := gzip.NewReader(r.Body)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode gzip request body: %w", err))
			return
		}
		defer zr.Close()
		bodySrc = zr
	}
	br := bufio.NewReaderSize(bodySrc, 64<<10)

	var (
		req  api.FitRequest
		next func() ([]float64, error)
	)
	if frameRequest(r) {
		h, _, err := wire.ReadHeaderFrame(br)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode stream header: %w", err))
			return
		}
		req = headerToFit(h)
		next = frameNext(wire.NewReader(br))
	} else {
		header, err := readStreamLine(br)
		if err != nil {
			writeError(w, streamLineStatus(err), fmt.Errorf("decode stream header: %w", err))
			return
		}
		if err := decodeStrict(header, &req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode stream header: %w", err))
			return
		}
		next = ndjsonNext(br)
	}
	fr, obs, err := s.serveFit(req.Dataset, req.Algorithm, coreParams(req.Params))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if !s.acquireStream() {
		writeError(w, http.StatusTooManyRequests, errTooManyStreams)
		return
	}
	defer s.releaseStream()

	out := http.ResponseWriter(w)
	if wantsGzipResponse(r) {
		gz := gzip.NewWriter(w)
		defer gz.Close()
		out = &gzipResponseWriter{ResponseWriter: w, gz: gz}
		w.Header().Set("Content-Encoding", "gzip")
	}
	var emitter streamEmitter
	if frameResponse(r) {
		emitter = &frameEmitter{w: out}
	} else {
		emitter = newNDJSONEmitter(out)
	}
	w.Header().Set("Content-Type", emitter.contentType())
	w.WriteHeader(http.StatusOK)
	// Flush the 200 now: a full-duplex client is allowed to wait for
	// the status before it commits to streaming the whole body.
	flushResponse(out)

	sum, err := s.assignStream(fr, obs, sq.Chunk, next, emitter.labels)
	if err != nil {
		emitter.terminalError(err)
		return
	}
	emitter.summary(sum)
}

// ndjsonNext yields one point per NDJSON line.
func ndjsonNext(br *bufio.Reader) func() ([]float64, error) {
	lineNo := int64(0)
	return func() ([]float64, error) {
		for {
			line, err := readStreamLine(br)
			if err != nil {
				if err == io.EOF {
					return nil, io.EOF
				}
				return nil, fmt.Errorf("stream point %d: %w", lineNo, err)
			}
			if len(line) == 0 {
				continue // tolerate blank lines and the trailing newline
			}
			var pt []float64
			if err := json.Unmarshal(line, &pt); err != nil {
				return nil, fmt.Errorf("stream point %d: %w", lineNo, err)
			}
			lineNo++
			return pt, nil
		}
	}
}

// frameNext yields rows out of successive points frames. Rows are views
// into the current frame's coordinate slab — no per-point copy; the chunk
// buffer keeps the frame alive until its labels are emitted.
func frameNext(fr *wire.Reader) func() ([]float64, error) {
	var cur *wire.Frame
	row := 0
	return func() ([]float64, error) {
		for {
			if cur != nil && row < cur.N {
				pt := cur.Row(row)
				row++
				return pt, nil
			}
			f, err := fr.Next()
			if err != nil {
				return nil, err // io.EOF only at a clean frame boundary
			}
			if f.Kind != wire.KindPoints {
				return nil, fmt.Errorf("stream body must contain only points frames after the header, got kind %d", f.Kind)
			}
			cur, row = f, 0
		}
	}
}

// writeStreamError emits the terminal NDJSON error record — the failure
// channel once the 200 header and some labels are already on the wire.
func writeStreamError(w http.ResponseWriter, err error) {
	_ = json.NewEncoder(w).Encode(api.StreamRecord{Error: err.Error()})
	if flusher, ok := w.(http.Flusher); ok {
		flusher.Flush()
	}
}

// errStreamLineTooLong rejects a single NDJSON line over
// maxStreamLineBytes; as a request-size violation it maps to 413 when it
// can still influence the status.
var errStreamLineTooLong = fmt.Errorf("line exceeds %d bytes", maxStreamLineBytes)

func streamLineStatus(err error) int {
	if errors.Is(err, errStreamLineTooLong) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// readStreamLine reads one newline-terminated line (the final line may be
// unterminated), stripped of its \r?\n, enforcing maxStreamLineBytes. It
// returns io.EOF only at a clean end of stream with no pending bytes.
func readStreamLine(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		// ReadSlice's buffer is invalidated by the next read; append copies.
		line = append(line, frag...)
		if len(line) > maxStreamLineBytes {
			return nil, errStreamLineTooLong
		}
		switch err {
		case nil:
			return trimEOL(line), nil
		case bufio.ErrBufferFull:
			continue
		case io.EOF:
			if len(line) == 0 {
				return nil, io.EOF
			}
			return trimEOL(line), nil
		default:
			return nil, err
		}
	}
}

func trimEOL(line []byte) []byte {
	line = bytes.TrimSuffix(line, []byte("\n"))
	return bytes.TrimSuffix(line, []byte("\r"))
}

// EncodePoints writes points as NDJSON lines — the producer half of the
// stream wire format — until next returns io.EOF. Callers feed it to one
// end of an io.Pipe whose other end is Client.AssignStream, so encoding
// lives here next to the format definition instead of being re-derived
// at every call site.
func EncodePoints(w io.Writer, next func() ([]float64, error)) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for {
		pt, err := next()
		if err == io.EOF {
			return bw.Flush()
		}
		if err != nil {
			return err
		}
		raw, err := json.Marshal(pt)
		if err != nil {
			return err
		}
		if _, err := bw.Write(raw); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
}

// decodeStrict unmarshals one JSON object with unknown fields and
// trailing data rejected — the per-line analogue of decodeJSON.
func decodeStrict(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after JSON object")
	}
	return nil
}
