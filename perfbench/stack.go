package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/api"
	"repro/internal/drift"
	"repro/internal/ring"
	"repro/internal/service"
	"repro/internal/wire"
)

// node is one dpcd instance on a real loopback listener: the service,
// its handler (the single-node mux or a ring router), and the server.
type node struct {
	svc     *service.Service
	handler http.Handler
	srv     *http.Server
	base    string
}

// stack is the deployment a workload drives: one node, or a ring whose
// traffic enters through a shard that does not own the dataset.
type stack struct {
	nodes []*node
	entry *node // where client traffic enters
	owner *node // the shard holding the dataset
	tr    *http.Transport
	hc    *http.Client
}

// serviceOptions are the options cmd/dpcd builds from its default flags
// (cache 8, drift tracking on at its default thresholds), with the
// worker count and the sliding window the workload sets.
func serviceOptions(workers int, window int64) service.Options {
	return service.Options{
		CacheSize: 8,
		Workers:   workers,
		Window:    window,
		Drift:     &drift.Config{ScoreThreshold: 0.25, HaloThreshold: 0.5},
	}
}

// startStack boots shards nodes (1 = single node; more = a ring at rf=1
// with Workers=1 per shard) and picks the entry node for dataset name.
func startStack(shards int, window int64, name string) (*stack, error) {
	st := &stack{tr: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true}}
	st.hc = &http.Client{Transport: st.tr, Timeout: 120 * time.Second}
	lns := make([]net.Listener, shards)
	addrs := make([]string, shards)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, err
		}
		lns[i] = ln
		addrs[i] = "http://" + ln.Addr().String()
	}
	for i, ln := range lns {
		n := &node{base: addrs[i]}
		if shards == 1 {
			n.svc = service.New(serviceOptions(0, window))
			n.handler = service.NewHandler(n.svc)
		} else {
			n.svc = service.New(serviceOptions(1, window))
			rt, err := service.NewRouter(n.svc, addrs[i], addrs, service.RouterOptions{
				Vnodes: ring.DefaultVnodes, RF: 1,
				Client: service.ClientOptions{Timeout: 60 * time.Second, Retries: 2},
			})
			if err != nil {
				ln.Close()
				st.close()
				return nil, err
			}
			n.handler = rt.Handler()
			if rt.Owns(name) {
				st.owner = n
			} else {
				st.entry = n
			}
		}
		n.srv = &http.Server{Handler: n.handler, ReadHeaderTimeout: 10 * time.Second}
		st.nodes = append(st.nodes, n)
		go func(srv *http.Server, ln net.Listener) { _ = srv.Serve(ln) }(n.srv, ln)
	}
	if shards == 1 {
		st.entry, st.owner = st.nodes[0], st.nodes[0]
	}
	return st, nil
}

// close stops every server and drops the client's idle connections.
func (st *stack) close() {
	for _, n := range st.nodes {
		_ = n.srv.Close()
	}
	st.tr.CloseIdleConnections()
}

// stats sums the local service counters of every shard.
func (st *stack) stats() api.Stats {
	var total api.Stats
	for _, n := range st.nodes {
		total.Accumulate(n.svc.Stats())
	}
	return total
}

// do sends one request to base and returns the whole 2xx response body;
// any other reply is its typed error envelope.
func (st *stack) do(base, method, path, contentType string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
		req.Header.Set("Accept", contentType)
	}
	resp, err := st.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, api.DecodeError(resp.StatusCode, data)
	}
	return data, nil
}

func (st *stack) doJSON(method, path string, body []byte, out any) error {
	data, err := st.do(st.entry.base, method, path, "application/json", body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: decoding response: %w", method, path, err)
	}
	return nil
}

func (st *stack) upload(name string, binaryBody []byte) error {
	var info api.DatasetInfo
	return st.doJSON(http.MethodPut, "/v1/datasets/"+url.PathEscape(name)+"?format=binary", binaryBody, &info)
}

func (st *stack) fit(body []byte) (api.FitResponse, error) {
	var out api.FitResponse
	err := st.doJSON(http.MethodPost, "/v1/fit", body, &out)
	return out, err
}

func (st *stack) appendPoints(body []byte) (api.AppendResponse, error) {
	var out api.AppendResponse
	err := st.doJSON(http.MethodPost, "/v1/points", body, &out)
	return out, err
}

// buildIndex asks for a one-point decision graph, which builds the
// dataset's density index at d_cut plus the service's headroom.
func (st *stack) buildIndex(name string, dcut float64) error {
	var out api.DecisionGraphResponse
	path := "/v1/decision-graph?dataset=" + url.QueryEscape(name) +
		"&dcut=" + strconv.FormatFloat(dcut, 'g', -1, 64) + "&limit=1"
	return st.doJSON(http.MethodGet, path, nil, &out)
}

// assignJSON sends one pre-encoded JSON batch.
func (st *stack) assignJSON(body []byte) ([]int32, bool, error) {
	var out api.AssignResponse
	if err := st.doJSON(http.MethodPost, "/v1/assign", body, &out); err != nil {
		return nil, false, err
	}
	return out.Labels, out.CacheHit, nil
}

// assignFrame sends one pre-encoded frame batch to base.
func (st *stack) assignFrame(base string, body []byte) ([]int32, bool, error) {
	data, err := st.do(base, http.MethodPost, "/v1/assign", wire.ContentType, body)
	if err != nil {
		return nil, false, err
	}
	labels, sum, err := decodeLabelFrames(data)
	if err != nil {
		return nil, false, err
	}
	return labels, sum.CacheHit, nil
}

// decodeLabelFrames reads labels frames up to the summary frame; a
// missing summary or an error frame is the request's failure.
func decodeLabelFrames(data []byte) ([]int32, wire.Summary, error) {
	var labels []int32
	for len(data) > 0 {
		f, rest, err := wire.DecodeFrame(data)
		if err != nil {
			return nil, wire.Summary{}, fmt.Errorf("decoding labels: %w", err)
		}
		data = rest
		switch f.Kind {
		case wire.KindLabels:
			labels = append(labels, f.Labels...)
		case wire.KindSummary:
			return labels, f.Summary, nil
		case wire.KindError:
			return nil, wire.Summary{}, fmt.Errorf("error frame: %s", f.ErrMsg)
		default:
			return nil, wire.Summary{}, fmt.Errorf("unexpected frame kind %d", f.Kind)
		}
	}
	return nil, wire.Summary{}, fmt.Errorf("response ended without a summary frame")
}

// stream posts one pre-encoded frame stream and hands each labels chunk
// to check as it arrives. A stream that ends without its summary frame
// is truncated, and that is its failure.
func (st *stack) stream(body []byte, check func(chunk []int32) error) (wire.Summary, error) {
	req, err := http.NewRequest(http.MethodPost, st.entry.base+"/v1/assign/stream", bytes.NewReader(body))
	if err != nil {
		return wire.Summary{}, err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	req.Header.Set("Accept", wire.ContentType)
	resp, err := st.hc.Do(req)
	if err != nil {
		return wire.Summary{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		data, _ := io.ReadAll(resp.Body)
		return wire.Summary{}, api.DecodeError(resp.StatusCode, data)
	}
	rd := wire.NewReader(resp.Body)
	for {
		f, err := rd.Next()
		if err == io.EOF {
			return wire.Summary{}, fmt.Errorf("label stream truncated before its summary frame")
		}
		if err != nil {
			return wire.Summary{}, fmt.Errorf("decoding label stream: %w", err)
		}
		switch f.Kind {
		case wire.KindLabels:
			if err := check(f.Labels); err != nil {
				return wire.Summary{}, err
			}
		case wire.KindSummary:
			return f.Summary, nil
		case wire.KindError:
			return wire.Summary{}, fmt.Errorf("stream error frame: %s", f.ErrMsg)
		default:
			return wire.Summary{}, fmt.Errorf("unexpected frame kind %d in label stream", f.Kind)
		}
	}
}
