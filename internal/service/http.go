package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/api"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/geom"
	"repro/internal/wire"
)

// coreParams converts the wire parameter shape into core's. Workers is
// left zero: thread count is server policy, applied by normalize.
func coreParams(p api.Params) core.Params {
	return core.Params{
		DCut: p.DCut, RhoMin: p.RhoMin, DeltaMin: p.DeltaMin,
		Epsilon: p.Epsilon, Seed: p.Seed,
	}
}

// wireParams is the inverse of coreParams; Workers does not cross the
// wire.
func wireParams(p core.Params) api.Params {
	return api.Params{
		DCut: p.DCut, RhoMin: p.RhoMin, DeltaMin: p.DeltaMin,
		Epsilon: p.Epsilon, Seed: p.Seed,
	}
}

// maxUploadBytes caps dataset upload bodies (per request).
const maxUploadBytes = 256 << 20

// maxAssignPoints caps one assign batch; larger workloads should be
// split client-side so a single request cannot monopolize the pool.
const maxAssignPoints = 1 << 20

// maxAssignBytes caps the /v1/assign JSON body: enough for a full
// maxAssignPoints batch at high dimensionality, small enough that a
// handful of concurrent oversized bodies cannot exhaust memory before
// the point-count check fires. A variable only so tests can lower it
// without allocating a 192 MiB request.
var maxAssignBytes int64 = 192 << 20

// maxFitBytes caps the /v1/fit JSON body, whose legitimate size is a
// few hundred bytes.
const maxFitBytes = 1 << 20

// maxSweepBytes caps the /v1/sweep JSON body: settings lists are small,
// but leave room for long ones.
const maxSweepBytes = 4 << 20

// maxSweepSettings caps one sweep request; each setting costs a full
// re-cut, so an unbounded list would monopolize the pool.
const maxSweepSettings = 256

// The local serves of the route table (routes.go). A primary-policy
// route that changed replicated state — an upload, an append, a fresh fit
// or a fresh index build — ships it to the key's replicas before the
// response is written, so by the time the client sees the 2xx every live
// replica can serve what it names.
//
// /v1/assign and /v1/assign/stream speak JSON/NDJSON by default and the
// binary frame codec under "application/x-dpc-frame", negotiated per
// direction: Content-Type picks the request codec, Accept the response
// codec (absent Accept mirrors the request). /v1/decision-graph honors
// Accept the same way. Every non-2xx response is the uniform
// {"error":{"code","message"}} envelope.

func (rt *Router) handleHealth(w http.ResponseWriter, r *http.Request) {
	body := map[string]string{"status": "ok"}
	if rt.ringMode() {
		body["self"] = rt.self
	}
	writeJSON(w, http.StatusOK, body)
}

func (rt *Router) handleDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.local.Datasets())
}

func (rt *Router) handleDataset(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ds, ok := rt.local.Dataset(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown dataset %q", name))
		return
	}
	writeJSON(w, http.StatusOK, dsInfo(name, ds))
}

func (rt *Router) handleUpload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var q api.UploadQuery
	if err := api.ParseQuery(r.URL.Query(), &q); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, maxUploadBytes)
	format := q.Format
	if format == "" && frameRequest(r) {
		format = "frame"
	}
	f32 := q.Precision == api.PrecisionF32
	var (
		ds  *geom.Dataset
		err error
	)
	switch format {
	case "", "csv":
		ds, err = data.LoadCSV(body)
	case "binary":
		ds, err = data.LoadBinary(body)
	case "frame":
		// The frame path lands at the target precision directly: f32
		// frames are kept without the widen/narrow round trip.
		ds, err = wire.ReadDataset32(body, f32)
		f32 = false
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parse upload: %w", err))
		return
	}
	if f32 {
		// Text and binary decoders produce float64; the requested f32
		// storage is an explicit (possibly lossy) narrowing.
		ds = ds.ToFloat32()
	}
	info, err := rt.local.PutDataset(name, ds)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rt.replicateDataset(name)
	writeJSON(w, http.StatusCreated, info)
}

func (rt *Router) handleAppend(w http.ResponseWriter, r *http.Request) {
	var req api.AppendRequest
	if !decodeJSON(w, r, &req, maxAssignBytes) {
		return
	}
	if len(req.Points) > maxAssignPoints {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("append of %d points exceeds the %d limit; split the request", len(req.Points), maxAssignPoints))
		return
	}
	resp, err := rt.local.AppendPoints(req.Dataset, req.Points)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	rt.replicateDataset(req.Dataset)
	writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleFit(w http.ResponseWriter, r *http.Request) {
	var req api.FitRequest
	if !decodeJSON(w, r, &req, maxFitBytes) {
		return
	}
	fr, err := rt.local.Fit(req.Dataset, req.Algorithm, coreParams(req.Params))
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if !fr.CacheHit {
		rt.replicateDataset(req.Dataset)
	}
	writeFit(w, req, fr)
}

func (rt *Router) handleAssign(w http.ResponseWriter, r *http.Request) {
	var (
		req api.AssignRequest
		ok  bool
	)
	if frameRequest(r) {
		req, ok = decodeAssignFrames(w, r)
	} else {
		ok = decodeJSON(w, r, &req, maxAssignBytes)
	}
	if !ok {
		return
	}
	if len(req.Points) > maxAssignPoints {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d points exceeds the %d limit; split the request", len(req.Points), maxAssignPoints))
		return
	}
	labels, fr, err := rt.local.Assign(req.Dataset, req.Algorithm, coreParams(req.Params), req.Points)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeAssign(w, r, labels, fr)
}

// handleDecisionGraph serves GET /v1/decision-graph?dataset=…&dcut=…
// (&limit=… optional): the (rho, delta) pairs of the decision graph at
// the requested cut distance, from the dataset's density index — built
// on first use, re-cut afterwards. The response is JSON by default and
// a decision frame sequence when Accept names the frame media type.
func (rt *Router) handleDecisionGraph(w http.ResponseWriter, r *http.Request) {
	var q api.DecisionGraphQuery
	if err := api.ParseQuery(r.URL.Query(), &q); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp, err := rt.local.DecisionGraph(q.Dataset, q.DCut, q.Limit)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if !frameResponse(r) {
		writeJSON(w, http.StatusOK, resp)
		return
	}
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(wire.AppendDecision(nil, resp.Points))
}

func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req api.SweepRequest
	if !decodeJSON(w, r, &req, maxSweepBytes) {
		return
	}
	if len(req.Settings) > maxSweepSettings {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("sweep of %d settings exceeds the %d limit; split the request", len(req.Settings), maxSweepSettings))
		return
	}
	resp, err := rt.local.Sweep(req)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleDrift(w http.ResponseWriter, r *http.Request) {
	var q api.DriftQuery
	if err := api.ParseQuery(r.URL.Query(), &q); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	resp, err := rt.local.Drift(q.Dataset, q.Algorithm)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.local.Stats())
}

// decodeAssignFrames reads a frame-encoded batch assign body: one header
// frame then points frames until EOF. Frames are decoded incrementally,
// so memory is bounded by the body cap, and point rows are views into
// each frame's coordinate slab — no per-point copies.
func decodeAssignFrames(w http.ResponseWriter, r *http.Request) (api.AssignRequest, bool) {
	br := bufio.NewReaderSize(http.MaxBytesReader(w, r.Body, maxAssignBytes), 64<<10)
	h, _, err := wire.ReadHeaderFrame(br)
	if err != nil {
		writeError(w, bodyErrStatus(err), fmt.Errorf("decode request: %w", err))
		return api.AssignRequest{}, false
	}
	req := api.AssignRequest{FitRequest: headerToFit(h)}
	rd := wire.NewReader(br)
	for {
		f, err := rd.Next()
		if err == io.EOF {
			return req, true
		}
		if err != nil {
			writeError(w, bodyErrStatus(err), fmt.Errorf("decode request: %w", err))
			return api.AssignRequest{}, false
		}
		if f.Kind != wire.KindPoints {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("decode request: body must contain only points frames after the header, got kind %d", f.Kind))
			return api.AssignRequest{}, false
		}
		for i := 0; i < f.N; i++ {
			req.Points = append(req.Points, f.Row(i))
		}
	}
}

// writeAssign writes the batch response in the negotiated codec: frames
// (labels frame + summary frame) when Accept — or, absent Accept, the
// request codec — names the frame media type, JSON otherwise.
func writeAssign(w http.ResponseWriter, r *http.Request, labels []int32, fr FitResult) {
	if !frameResponse(r) {
		writeJSON(w, http.StatusOK, api.AssignResponse{
			Labels:   labels,
			Clusters: fr.Model.NumClusters(),
			CacheHit: fr.CacheHit,
		})
		return
	}
	buf := wire.AppendLabels(nil, labels)
	buf = wire.AppendSummary(buf, wire.Summary{
		Points:   int64(len(labels)),
		Chunks:   1,
		Clusters: fr.Model.NumClusters(),
		CacheHit: fr.CacheHit,
	})
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf)
}

func writeFit(w http.ResponseWriter, req api.FitRequest, fr FitResult) {
	writeJSON(w, http.StatusOK, api.FitResponse{
		Dataset:   req.Dataset,
		CacheHit:  fr.CacheHit,
		IndexCut:  fr.IndexCut,
		Model:     api.ModelStats(fr.Model.Stats()),
		ParamsUse: wireParams(fr.Model.Params()),
	})
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v interface{}, limit int64) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, bodyErrStatus(err), fmt.Errorf("decode request: %w", err))
		return false
	}
	// One JSON object is the whole body: trailing non-whitespace (a second
	// object, stray text) means the client built the request wrong, and
	// silently ignoring it would mask the bug. dec.More() alone misses a
	// trailing close-delimiter, so read one more token: io.EOF is the only
	// clean outcome.
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: trailing data after JSON object"))
		return false
	}
	return true
}

// bodyErrStatus distinguishes "your body is malformed" (400) from "your
// body is too big" (413): MaxBytesReader surfaces the latter as a typed
// error mid-read, and conflating the two hides the actionable fix.
func bodyErrStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// statusFor maps service errors onto HTTP statuses: missing names are
// 404, everything else (bad params, dimension mismatches) is 400.
func statusFor(err error) int {
	msg := err.Error()
	if strings.Contains(msg, "unknown dataset") || strings.Contains(msg, "unknown algorithm") {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the uniform error envelope. A typed *api.APIError
// anywhere in the chain (ParseQuery violations, ErrUnsupportedPrecision
// wraps) carries its own status and code; everything else gets the
// status's default code (api.CodeForStatus).
func writeError(w http.ResponseWriter, status int, err error) {
	code := api.CodeForStatus(status)
	msg := err.Error()
	var ae *api.APIError
	if errors.As(err, &ae) {
		status, code = ae.Status, ae.Code
		// The envelope carries the bare message: APIError.Error() is the
		// *client-side* rendering ("server returned %d: ...") and would
		// double the framing on the wire.
		msg = ae.Message
	}
	writeJSON(w, status, api.ErrorEnvelope{Error: api.ErrorInfo{
		Code:    code,
		Message: msg,
	}})
}
