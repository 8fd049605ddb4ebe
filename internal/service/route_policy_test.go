package service

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/api"
	"repro/internal/data"
	"repro/internal/drift"
	"repro/internal/wire"
)

// hopCounter counts, per "METHOD path", the requests a shard receives
// that carry the forwarded marker — the relay hops and fan-out legs that
// landed on it.
type hopCounter struct {
	next http.Handler
	mu   sync.Mutex
	hops map[string]int
}

func (h *hopCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(forwardedHeader) != "" {
		h.mu.Lock()
		h.hops[r.Method+" "+r.URL.Path]++
		h.mu.Unlock()
	}
	h.next.ServeHTTP(w, r)
}

func (h *hopCounter) count(route string) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.hops[route]
}

// policyProbe is one request aimed at one route.
type policyProbe struct {
	label    string
	policy   string // local, anyReplica, primary, fanOut
	method   string
	path     string // URL path and query
	ctype    string
	accept   string
	encoding string // request Content-Encoding
	body     []byte
}

func (p policyProbe) route() string {
	path, _, _ := strings.Cut(p.path, "?")
	return p.method + " " + path
}

// policyClient never adds an implicit Accept-Encoding, so what a shard
// sees is exactly what the probe sends.
var policyClient = &http.Client{Transport: &http.Transport{DisableCompression: true}}

func sendProbe(t *testing.T, base string, p policyProbe) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(p.method, base+p.path, bytes.NewReader(p.body))
	if err != nil {
		t.Fatal(err)
	}
	if p.body == nil {
		req.Body = nil
	}
	if p.ctype != "" {
		req.Header.Set("Content-Type", p.ctype)
	}
	if p.accept != "" {
		req.Header.Set("Accept", p.accept)
	}
	if p.encoding != "" {
		req.Header.Set("Content-Encoding", p.encoding)
	}
	resp, err := policyClient.Do(req)
	if err != nil {
		t.Fatalf("%s via %s: %v", p.label, base, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// policyRing is a 3-shard rf=2 ring with every shard's handler wrapped
// in a hopCounter, plus the key's primary, replica and non-owner.
type policyRing struct {
	*ringHarness
	counters                   []*hopCounter
	primary, replica, nonOwner int
}

func startPolicyRing(t *testing.T, key string) *policyRing {
	t.Helper()
	h := &ringHarness{t: t}
	for i := 0; i < 3; i++ {
		srv := httptest.NewUnstartedServer(nil)
		h.servers = append(h.servers, srv)
		h.addrs = append(h.addrs, "http://"+srv.Listener.Addr().String())
	}
	pr := &policyRing{ringHarness: h}
	for i := 0; i < 3; i++ {
		// Drift trackers with both trips disabled: they observe assign
		// traffic where it lands but never start a background refit.
		svc := New(Options{Workers: 1, CacheSize: 16, Drift: &drift.Config{}})
		rt, err := NewRouter(svc, h.addrs[i], h.addrs, RouterOptions{Vnodes: 128, RF: 2, Client: testClientOptions()})
		if err != nil {
			t.Fatal(err)
		}
		h.svcs = append(h.svcs, svc)
		h.routers = append(h.routers, rt)
		hc := &hopCounter{next: rt.Handler(), hops: map[string]int{}}
		pr.counters = append(pr.counters, hc)
		h.servers[i].Config.Handler = hc
		h.servers[i].Start()
		h.clients = append(h.clients, NewClient(h.addrs[i], testClientOptions()))
	}
	t.Cleanup(func() {
		for _, s := range h.servers {
			s.Close()
		}
	})
	owners := h.routers[0].owners(key)
	if len(owners) != 2 {
		t.Fatalf("key %q has owners %v, want 2", key, owners)
	}
	pr.primary, pr.replica, pr.nonOwner = -1, -1, -1
	for i, a := range h.addrs {
		switch a {
		case owners[0]:
			pr.primary = i
		case owners[1]:
			pr.replica = i
		default:
			pr.nonOwner = i
		}
	}
	return pr
}

// servedBy sends p through entry and reports which shard served it
// locally, checking the relay accounting on the way: a request served at
// its entry shard moves no forwarded counter and lands no hop; a relayed
// one adds exactly one to the entry's forwarded counter and lands
// exactly one hop, on the shard that served it.
func (pr *policyRing) servedBy(t *testing.T, entry int, p policyProbe) (served, status int, body []byte) {
	t.Helper()
	route := p.route()
	fwd := make([]int64, len(pr.routers))
	hops := make([]int, len(pr.counters))
	for i := range pr.routers {
		fwd[i] = pr.routers[i].forwarded.Load()
		hops[i] = pr.counters[i].count(route)
	}
	status, body = sendProbe(t, pr.addrs[entry], p)
	served = entry
	landed := 0
	for i := range pr.routers {
		if d := pr.routers[i].forwarded.Load() - fwd[i]; i != entry && d != 0 {
			t.Errorf("%s via shard %d: shard %d forwarded %d", p.label, entry, i, d)
		}
		if d := pr.counters[i].count(route) - hops[i]; d > 0 {
			landed += d
			served = i
		}
	}
	entryFwd := pr.routers[entry].forwarded.Load() - fwd[entry]
	if p.policy == "fanOut" {
		if entryFwd != 0 || landed != len(pr.routers)-1 {
			t.Errorf("%s via shard %d: forwarded %d, %d fan-out legs; want 0 and %d",
				p.label, entry, entryFwd, landed, len(pr.routers)-1)
		}
		return entry, status, body
	}
	if entryFwd != int64(landed) || landed > 1 {
		t.Errorf("%s via shard %d: forwarded %d, %d hops landed; want equal and at most 1",
			p.label, entry, entryFwd, landed)
	}
	return served, status, body
}

// TestRoutePolicies drives every ring route in through the key's
// primary, one replica and a non-owner, and checks the route's policy:
// which shard served it, how many relay hops it cost, and that the
// client cannot tell the entry points apart.
func TestRoutePolicies(t *testing.T) {
	const key = "pol"
	pr := startPolicyRing(t, key)
	d := data.SSet(2, 400, 3)
	var csv bytes.Buffer
	if err := data.SaveCSV(&csv, d.Points); err != nil {
		t.Fatal(err)
	}
	params := api.Params{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin}
	fit := api.FitRequest{Dataset: key, Algorithm: "Ex-DPC", Params: params}
	probes := make([][]float64, 40)
	for i := range probes {
		probes[i] = d.Points.At((i * 7) % d.Points.N)
	}
	ndjson := append(append(marshal(fit), '\n'), ndjsonPoints(t, probes)...)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	_, _ = zw.Write(ndjson)
	_ = zw.Close()
	frames := append(wire.AppendHeader(nil, fitToHeader(fit)), framePoints(t, probes, false)...)
	sweep := api.SweepRequest{Dataset: key, Algorithm: "Ex-DPC", Settings: []api.SweepSetting{
		{DCut: d.DCut, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin},
		{DCut: d.DCut * 0.8, RhoMin: d.RhoMin, DeltaMin: d.DeltaMin},
	}}
	dg := fmt.Sprintf("/v1/decision-graph?dataset=%s&dcut=%g&limit=20", key, d.DCut)

	keyed := []policyProbe{
		{label: "upload", policy: "primary", method: "PUT", path: "/v1/datasets/" + key, ctype: "text/csv", body: csv.Bytes()},
		{label: "dataset info", policy: "anyReplica", method: "GET", path: "/v1/datasets/" + key},
		{label: "fit", policy: "primary", method: "POST", path: "/v1/fit", body: marshal(fit)},
		{label: "assign json", policy: "anyReplica", method: "POST", path: "/v1/assign",
			body: marshal(api.AssignRequest{FitRequest: fit, Points: probes})},
		{label: "assign frame", policy: "anyReplica", method: "POST", path: "/v1/assign", ctype: wire.ContentType, body: frames},
		{label: "stream ndjson", policy: "anyReplica", method: "POST", path: "/v1/assign/stream?chunk=16", ctype: ndjsonContentType, body: ndjson},
		{label: "stream gzip", policy: "anyReplica", method: "POST", path: "/v1/assign/stream", ctype: ndjsonContentType, encoding: "gzip", body: gz.Bytes()},
		{label: "stream frame", policy: "anyReplica", method: "POST", path: "/v1/assign/stream", ctype: wire.ContentType, body: frames},
		{label: "decision graph", policy: "primary", method: "GET", path: dg},
		{label: "decision graph frame", policy: "primary", method: "GET", path: dg, accept: wire.ContentType},
		{label: "sweep", policy: "primary", method: "POST", path: "/v1/sweep", body: marshal(sweep)},
		{label: "drift", policy: "primary", method: "GET", path: "/v1/drift?dataset=" + key},
		{label: "bad append", policy: "primary", method: "POST", path: "/v1/points",
			body: marshal(api.AppendRequest{Dataset: key, Points: [][]float64{{1, 2, 3}}})},
	}
	entries := []struct {
		name  string
		shard int
	}{{"primary", pr.primary}, {"replica", pr.replica}, {"non-owner", pr.nonOwner}}
	want := func(p policyProbe, entry int) int {
		switch p.policy {
		case "primary":
			return pr.primary
		case "anyReplica":
			if entry == pr.nonOwner {
				return pr.primary
			}
		}
		return entry
	}
	for _, p := range keyed {
		// One unmeasured call at the primary first, so state-building
		// routes (upload, fit, index build) answer every measured entry
		// from the same settled state.
		sendProbe(t, pr.addrs[pr.primary], p)
		var ref []byte
		for _, e := range entries {
			served, status, body := pr.servedBy(t, e.shard, p)
			if served != want(p, e.shard) {
				t.Errorf("%s via %s: served by shard %d, want %d", p.label, e.name, served, want(p, e.shard))
			}
			if p.label != "bad append" && (status < 200 || status > 299) {
				t.Errorf("%s via %s: status %d: %s", p.label, e.name, status, body)
			}
			if e.shard == pr.primary {
				ref = body
			} else if !bytes.Equal(body, ref) {
				t.Errorf("%s via %s: response differs from the primary's\n got %q\nwant %q", p.label, e.name, body, ref)
			}
		}
	}

	// Appends move the dataset version, so successive responses differ by
	// design; each must be the primary's next version, already installed
	// on the replica when the 2xx arrives.
	ps := pr.svcs[pr.primary]
	ps.mu.RLock()
	version := ps.datasets[key].version
	ps.mu.RUnlock()
	for _, e := range entries {
		p := policyProbe{label: "append", policy: "primary", method: "POST", path: "/v1/points",
			body: marshal(api.AppendRequest{Dataset: key, Points: probes[:3]})}
		served, status, body := pr.servedBy(t, e.shard, p)
		if served != pr.primary || status != http.StatusOK {
			t.Fatalf("append via %s: served by %d (want %d), status %d: %s", e.name, served, pr.primary, status, body)
		}
		var got api.AppendResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		version++
		if got.Version != version || got.Appended != 3 {
			t.Errorf("append via %s: version %d appended %d, want %d and 3", e.name, got.Version, got.Appended, version)
		}
		rs := pr.svcs[pr.replica]
		rs.mu.RLock()
		rv := rs.datasets[key].version
		rs.mu.RUnlock()
		if rv != version {
			t.Errorf("append via %s: replica holds version %d when the 2xx arrived, want %d", e.name, rv, version)
		}
	}

	// Fan-out: every entry answers the same merged listing; stats are
	// per-entry (they name self) but cost the same legs.
	var listing []byte
	for _, e := range entries {
		_, status, body := pr.servedBy(t, e.shard, policyProbe{label: "datasets", policy: "fanOut", method: "GET", path: "/v1/datasets"})
		if status != http.StatusOK {
			t.Fatalf("datasets via %s: status %d", e.name, status)
		}
		if listing == nil {
			listing = body
		} else if !bytes.Equal(body, listing) {
			t.Errorf("datasets via %s: %q, want %q", e.name, body, listing)
		}
		_, status, body = pr.servedBy(t, e.shard, policyProbe{label: "stats", policy: "fanOut", method: "GET", path: "/v1/stats"})
		var rs api.RingStats
		if err := json.Unmarshal(body, &rs); err != nil || status != http.StatusOK || rs.Self != pr.addrs[e.shard] {
			t.Errorf("stats via %s: status %d, self %q, err %v", e.name, status, rs.Self, err)
		}
	}

	// Local routes never relay, whatever the key.
	snap := pr.svcs[pr.primary].ReplicationSnapshots(key)[0]
	peers := marshal(api.RingUpdateRequest{Peers: pr.addrs})
	for _, e := range entries {
		for _, p := range []policyProbe{
			{label: "healthz", method: "GET", path: "/healthz"},
			{label: "ring", method: "GET", path: "/v1/ring?key=" + key},
			{label: "ring update", method: "POST", path: "/v1/ring", body: peers},
			{label: "snapshot", method: "POST", path: "/v1/replica/snapshot", ctype: snapshotContentType, body: snap},
		} {
			p.policy = "local"
			served, status, body := pr.servedBy(t, e.shard, p)
			if served != e.shard || status != http.StatusOK {
				t.Errorf("%s via %s: served by %d, status %d: %s", p.label, e.name, served, status, body)
			}
			if p.label == "healthz" {
				if w := `{"self":"` + pr.addrs[e.shard] + `","status":"ok"}` + "\n"; string(body) != w {
					t.Errorf("healthz via %s: %q, want %q", e.name, body, w)
				}
			}
		}
	}
}

// TestSingleNodeRoutes pins the single-node wire surface: exactly the 12
// public routes, the ring-only routes absent, and the exact /healthz and
// /v1/stats bodies.
func TestSingleNodeRoutes(t *testing.T) {
	svc := New(Options{Workers: 1})
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()
	const notFound = "404 page not found\n"
	for _, route := range []string{
		"GET /healthz", "GET /v1/datasets", "GET /v1/datasets/x", "PUT /v1/datasets/x",
		"POST /v1/points", "POST /v1/fit", "POST /v1/assign", "POST /v1/assign/stream",
		"GET /v1/decision-graph", "POST /v1/sweep", "GET /v1/drift", "GET /v1/stats",
	} {
		method, path, _ := strings.Cut(route, " ")
		status, body := sendProbe(t, srv.URL, policyProbe{label: route, method: method, path: path})
		if status == http.StatusMethodNotAllowed || string(body) == notFound || !json.Valid(body) {
			t.Errorf("%s: status %d, body %q; want a registered JSON route", route, status, body)
		}
	}
	for _, route := range []string{"GET /v1/ring", "POST /v1/ring", "POST /v1/replica/snapshot"} {
		method, path, _ := strings.Cut(route, " ")
		status, body := sendProbe(t, srv.URL, policyProbe{label: route, method: method, path: path, body: []byte("{}")})
		if status != http.StatusNotFound || string(body) != notFound {
			t.Errorf("%s: status %d, body %q; want the mux's 404 (ring-only route)", route, status, body)
		}
	}
	// A forwarded marker means nothing to a single node.
	for _, fwd := range []bool{false, true} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
		if fwd {
			req.Header.Set(forwardedHeader, "1")
		}
		resp, err := policyClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != `{"status":"ok"}`+"\n" {
			t.Errorf("healthz (forwarded=%v): %q", fwd, body)
		}
	}
	if _, err := svc.PutDataset("s", data.SSet(2, 200, 1).Points); err != nil {
		t.Fatal(err)
	}
	_, body := sendProbe(t, srv.URL, policyProbe{method: "GET", path: "/v1/stats"})
	if want := string(marshal(svc.Stats())) + "\n"; string(body) != want {
		t.Errorf("stats: %q, want api.Stats %q", body, want)
	}
}
