package service

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/wire"
)

// policy says which instance of a ring serves a route.
type policy uint8

const (
	// local: the instance the request enters.
	local policy = iota
	// anyReplica: any live replica of the key that holds the dataset
	// (serveLocallyRead); otherwise a relay across the replica set,
	// primary first, failing over on transport errors.
	anyReplica
	// primary: the key's primary. Other entry points relay to it with no
	// failover — two coordinators could fork a dataset's version history,
	// and a replica would pay a full index build for one exploratory call.
	primary
	// fanOut: every live instance; the entry merges their local answers.
	fanOut
)

// keySource is where a route's ring key — the dataset name — lives.
type keySource uint8

const (
	_         keySource = iota // none: local and fanOut routes
	keyPath                    // the {name} path segment
	keyQuery                   // the "dataset" query parameter
	keyBody                    // the buffered body: JSON "dataset" field or frame header
	keyStream                  // the stream's header line or header frame, body unbuffered
)

// route is one dpcd endpoint: its pattern, where its key lives, which
// instance serves it, and the local serve.
type route struct {
	pattern string
	key     keySource
	policy  policy
	// limit caps a body buffered for a key peek or a relay.
	limit int64
	// ring registers the route in ring mode only.
	ring  bool
	serve func(*Router, http.ResponseWriter, *http.Request)
	// fan is a fanOut route's merged answer.
	fan func(*Router) any
}

// routes is the dpcd API. The request and response shapes are defined in
// the repro/api package. It is built per handler, not held in a package
// variable, so a handler sees the current maxAssignBytes (tests lower it).
func routes() []route {
	return []route{
		{pattern: "GET /healthz", serve: (*Router).handleHealth},
		{pattern: "GET /v1/ring", ring: true, serve: (*Router).handleRing},
		{pattern: "POST /v1/ring", ring: true, serve: (*Router).handleRingUpdate},
		{pattern: "POST /v1/replica/snapshot", ring: true, serve: (*Router).handleSnapshot},
		{pattern: "GET /v1/datasets", policy: fanOut, serve: (*Router).handleDatasets,
			fan: func(rt *Router) any { return rt.allDatasets() }},
		{pattern: "GET /v1/datasets/{name}", key: keyPath, policy: anyReplica, serve: (*Router).handleDataset},
		{pattern: "PUT /v1/datasets/{name}", key: keyPath, policy: primary, limit: maxUploadBytes, serve: (*Router).handleUpload},
		{pattern: "POST /v1/points", key: keyBody, policy: primary, limit: maxAssignBytes, serve: (*Router).handleAppend},
		{pattern: "POST /v1/fit", key: keyBody, policy: primary, limit: maxFitBytes, serve: (*Router).handleFit},
		{pattern: "POST /v1/assign", key: keyBody, policy: anyReplica, limit: maxAssignBytes, serve: (*Router).handleAssign},
		{pattern: "POST /v1/assign/stream", key: keyStream, policy: anyReplica, serve: (*Router).handleStream},
		{pattern: "GET /v1/decision-graph", key: keyQuery, policy: primary, serve: (*Router).handleDecisionGraph},
		{pattern: "POST /v1/sweep", key: keyBody, policy: primary, limit: maxSweepBytes, serve: (*Router).handleSweep},
		{pattern: "GET /v1/drift", key: keyQuery, policy: primary, serve: (*Router).handleDrift},
		{pattern: "GET /v1/stats", policy: fanOut, serve: (*Router).handleStats,
			fan: func(rt *Router) any { return rt.aggregateStats() }},
	}
}

// NewHandler serves the dpcd API from one Service: a Router with no
// peers, so every key is local, fan-outs return the local answer, and
// the ring-only routes are not registered.
func NewHandler(s *Service) http.Handler { return (&Router{local: s}).Handler() }

// Handler returns the dpcd HTTP API: every route of the table, applied
// through one dispatcher.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rte := range routes() {
		if rte.ring && !rt.ringMode() {
			continue
		}
		h := rt.dispatch(rte)
		if rte.key == keyStream {
			h = fullDuplex(h)
		}
		mux.HandleFunc(rte.pattern, h)
	}
	return mux
}

// ringMode reports whether the Router has peers; NewHandler's has none.
func (rt *Router) ringMode() bool { return rt.self != "" }

// dispatch applies a route's policy. Off the ring, and for local routes,
// it is the local serve itself: no key peek, no body buffering.
func (rt *Router) dispatch(rte route) http.HandlerFunc {
	if !rt.ringMode() || rte.policy == local {
		return func(w http.ResponseWriter, r *http.Request) { rte.serve(rt, w, r) }
	}
	return func(w http.ResponseWriter, r *http.Request) {
		// The relaying peer already routed this request.
		if r.Header.Get(forwardedHeader) != "" {
			rte.serve(rt, w, r)
			return
		}
		if rte.policy == fanOut {
			writeJSON(w, http.StatusOK, rte.fan(rt))
			return
		}
		var (
			name   string
			body   []byte    // a buffered body, replayed locally or relayed
			stream io.Reader // an unbuffered stream, its peeked prefix restored
			ok     = true
		)
		switch rte.key {
		case keyPath:
			name = r.PathValue("name")
		case keyQuery:
			name = r.URL.Query().Get("dataset")
		case keyBody:
			name, body, ok = peekBody(w, r, rte.limit)
		case keyStream:
			name, stream, ok = peekStream(w, r)
		}
		if !ok {
			return
		}
		owners := rt.owners(name)
		var (
			relay   bool
			targets []string
		)
		switch {
		case name == "":
			// Served locally, so the local handler produces its usual
			// validation error instead of a peer paying to say it.
		case rte.policy == primary:
			if relay = len(owners) > 0 && owners[0] != rt.self; relay {
				targets = owners[:1]
			}
		default:
			if relay = !rt.serveLocallyRead(name, owners); relay {
				targets = rt.readTargets(owners)
			}
		}
		if !relay {
			if body != nil {
				r.Body = io.NopCloser(bytes.NewReader(body))
				r.ContentLength = int64(len(body))
			} else if stream != nil {
				r.Body = io.NopCloser(stream)
				r.ContentLength = -1
			}
			rte.serve(rt, w, r)
			return
		}
		path := r.URL.EscapedPath()
		if q := r.URL.RawQuery; q != "" {
			path += "?" + q
		}
		if stream != nil {
			rt.relayStream(w, r, targets, path, stream)
			return
		}
		if body == nil && rte.limit > 0 {
			if body, ok = readBody(w, r, rte.limit); !ok {
				return
			}
		}
		rt.relaySeq(w, r, targets, path, body)
	}
}

// readBody buffers a request body up to limit. An over-limit body
// surfaces as the same JSON 413 the serving shard would send, not a
// generic 400 or a torn connection — the relay hop is invisible.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		writeError(w, bodyErrStatus(err), fmt.Errorf("reading request: %w", err))
		return nil, false
	}
	return body, true
}

// peekBody buffers the body and reads the dataset name from it: the
// top-level JSON "dataset" field, or the leading header frame of a
// frame-encoded body.
func peekBody(w http.ResponseWriter, r *http.Request, limit int64) (string, []byte, bool) {
	body, ok := readBody(w, r, limit)
	if !ok {
		return "", nil, false
	}
	var (
		name string
		err  error
	)
	if frameRequest(r) {
		name, err = wire.PeekDataset(body)
	} else {
		name, err = peekDataset(body)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return "", nil, false
	}
	return name, body, true
}

// peekStream reads only the header line (or header frame) of a streaming
// assign, for the ring key, and returns a reader that yields exactly the
// bytes the client sent: the consumed prefix, then the unread remainder.
// The rest of the chunked body is never buffered, so a relay hop adds
// O(chunk) memory, not O(stream).
func peekStream(w http.ResponseWriter, r *http.Request) (string, io.Reader, bool) {
	br := bufio.NewReaderSize(r.Body, 64<<10)
	src := br
	var captured *bytes.Buffer
	if gzipRequest(r) {
		// The key is inside the compressed stream. Peek it through a
		// decompressor that tees every raw byte it consumes, and replay
		// the ORIGINAL compressed prefix; the decompressor may read
		// ahead, and the tee makes that harmless.
		captured = new(bytes.Buffer)
		zr, err := gzip.NewReader(io.TeeReader(br, captured))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode gzip stream body: %w", err))
			return "", nil, false
		}
		src = bufio.NewReaderSize(zr, 64<<10)
	}
	var (
		name   string
		header []byte
	)
	if frameRequest(r) {
		h, raw, err := wire.ReadHeaderFrame(src)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode stream header: %w", err))
			return "", nil, false
		}
		name, header = h.Dataset, raw
	} else {
		line, err := readStreamLine(src)
		if err != nil {
			writeError(w, streamLineStatus(err), fmt.Errorf("decode stream header: %w", err))
			return "", nil, false
		}
		if name, err = peekDataset(line); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("decode stream header: %w", err))
			return "", nil, false
		}
		header = append(line, '\n')
	}
	if captured != nil {
		header = captured.Bytes()
	}
	return name, io.MultiReader(bytes.NewReader(header), br), true
}

// peekDataset extracts the top-level "dataset" field from a fit/assign
// body without building the rest of the document. It stops as soon as
// the field is seen — our own client and the documented request shape
// put "dataset" first, making the scan O(1) regardless of batch size —
// and in the worst case token-skips a near-cap points array without
// allocating it. Full strict validation (unknown fields, types) stays
// with the owning shard's handler; routing only needs the name. An
// object without the field returns "" and no error.
func peekDataset(body []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	t, err := dec.Token()
	if err != nil {
		return "", err
	}
	if d, ok := t.(json.Delim); !ok || d != '{' {
		return "", fmt.Errorf("request body must be a JSON object")
	}
	for dec.More() {
		keyTok, err := dec.Token()
		if err != nil {
			return "", err
		}
		key, _ := keyTok.(string)
		if key == "dataset" {
			var name string
			if err := dec.Decode(&name); err != nil {
				return "", fmt.Errorf("field %q must be a string: %w", key, err)
			}
			return name, nil
		}
		if err := skipValue(dec); err != nil {
			return "", err
		}
	}
	return "", nil
}

// skipValue consumes exactly one JSON value from the decoder without
// materializing it.
func skipValue(dec *json.Decoder) error {
	t, err := dec.Token()
	if err != nil {
		return err
	}
	if d, ok := t.(json.Delim); ok && (d == '{' || d == '[') {
		for depth := 1; depth > 0; {
			t, err := dec.Token()
			if err != nil {
				return err
			}
			if d, ok := t.(json.Delim); ok {
				switch d {
				case '{', '[':
					depth++
				case '}', ']':
					depth--
				}
			}
		}
	}
	return nil
}
