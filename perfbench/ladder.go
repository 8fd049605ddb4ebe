package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/api"
	"repro/internal/core"
	"repro/internal/densindex"
	"repro/internal/drift"
	"repro/internal/geom"
	"repro/internal/kdtree"
	"repro/internal/ring"
	"repro/internal/wire"
)

// ladder times calls into each module's public functions on the
// workload's own inputs, one span per timed call (or block of calls),
// after the traced run's phases have finished.
type ladder struct {
	r  *run
	sp int
	m  map[string]float64
}

// sinkF and sinkI keep the compiler from discarding timed results.
var (
	sinkF float64
	sinkI int
)

// each times f once per rep under its own span and returns the median.
func (l *ladder) each(name string, reps int, f func(i int)) time.Duration {
	d := make([]float64, reps)
	for i := range d {
		id := l.r.tr.start(name, l.sp)
		start := time.Now()
		f(i)
		d[i] = float64(time.Since(start))
		l.r.tr.end(id)
	}
	return time.Duration(median(d))
}

// perCall times blocks of calls too short to time one by one and
// returns the median cost of one call in nanoseconds.
func (l *ladder) perCall(name string, blocks, calls int, f func(i int)) float64 {
	return float64(l.each(name, blocks, func(int) {
		for i := 0; i < calls; i++ {
			f(i)
		}
	})) / float64(calls)
}

func (r *run) measureLadder(before, after api.Stats) ([]rung, error) {
	l := &ladder{r: r, sp: r.tr.start("ladder", r.root), m: r.metrics}
	defer r.tr.end(l.sp)
	in, model := r.inst.in, r.model
	ds, dcut := model.Dataset(), in.params.DCut
	workers := runtime.NumCPU()
	batch := len(in.pool[0])
	nb := len(in.pool)

	// geom: the distance kernel at the workload's dimension.
	pairs := func(i int) (geom.Point, geom.Point) {
		return ds.At((i * 7919) % ds.N), ds.At((i*104729 + 1) % ds.N)
	}
	l.m["geom.sqdist_ns"] = l.perCall("geom.sqdist", 20, 1<<14, func(i int) {
		a, b := pairs(i)
		sinkF += geom.SqDist(a, b)
	})
	l.m["geom.sqdist_partial_ns"] = l.perCall("geom.sqdist_partial", 20, 1<<14, func(i int) {
		a, b := pairs(i)
		d, _ := geom.SqDistPartial(a, b, dcut*dcut)
		sinkF += d
	})

	// kdtree: build, one range count at d_cut, one nearest neighbor.
	var tree *kdtree.Tree
	l.m["kdtree.build_ms"] = ms(l.each("kdtree.build", 5, func(int) { tree = kdtree.BuildAll(ds) }))
	l.m["kdtree.range_count_us"] = l.perCall("kdtree.range_count", 20, 64, func(i int) {
		sinkI += tree.RangeCount(ds.At((i*7919)%ds.N), dcut)
	}) / 1e3
	queries := in.pool[0]
	l.m["kdtree.nn_us"] = l.perCall("kdtree.nn", 20, len(queries), func(i int) {
		id, _ := tree.NN(queries[i])
		sinkI += int(id)
	}) / 1e3

	// core: the fit phases the fit phase recorded, the assigner build,
	// and a batch AssignAll.
	for _, a := range fitAlgorithms {
		var b, rh, de, la []float64
		for _, t := range r.timings[a.key] {
			b, rh = append(b, t.Build.Seconds()), append(rh, t.Rho.Seconds())
			de, la = append(de, t.Delta.Seconds()), append(la, t.Label.Seconds())
		}
		pre := "core." + a.key + "."
		l.m[pre+"build_s"], l.m[pre+"rho_s"] = median(b), median(rh)
		l.m[pre+"delta_s"], l.m[pre+"label_s"] = median(de), median(la)
	}
	var aerr error
	l.m["core.assigner_build_s"] = l.each("core.assigner_build", 3, func(int) {
		_, aerr = core.NewAssignerDataset(ds, model.Result(), dcut)
	}).Seconds()
	if aerr != nil {
		return nil, fmt.Errorf("assigner build: %w", aerr)
	}
	assignBatch := l.each("core.assign_all", nb, func(i int) {
		labels, _ := model.AssignAll(in.pool[i], workers)
		sinkI += len(labels)
	})
	l.m["core.assign_all_us_per_pt"] = float64(assignBatch) / 1e3 / float64(batch)

	if err := l.densindex(); err != nil {
		return nil, err
	}

	// drift: one batch's observation, prepared as the service prepares it.
	cfg := *serviceOptions(0, 0).Drift
	tracker := drift.NewTracker(cfg, drift.NewReference(model.ReferenceDists(cfg.RefSample())))
	halos := make([]int64, nb)
	samples := make([][]float64, nb)
	for i := range samples {
		for j, lab := range r.expect[i] {
			if lab == core.NoCluster {
				halos[i]++
			}
			if j%cfg.SampleStride() == 0 {
				samples[i] = append(samples[i], model.CenterDist(in.pool[i][j], lab))
			}
		}
	}
	l.m["drift.observe_us"] = float64(l.each("drift.observe", nb, func(i int) {
		tracker.ObserveSampled(int64(batch), halos[i], samples[i])
	})) / 1e3

	// Codecs: one batch each way, frames and JSON.
	points := make([][]byte, nb)
	for i := range points {
		points[i] = wire.AppendPointsRows(nil, in.pool[i], false)
	}
	l.m["wire.decode_points_us"] = float64(l.each("wire.decode_points", nb, func(i int) {
		f, _, _ := wire.DecodeFrame(points[i])
		sinkI += f.N
	})) / 1e3
	var labelsOut []byte
	l.m["wire.encode_labels_us"] = float64(l.each("wire.encode_labels", nb, func(i int) {
		labelsOut = wire.AppendLabels(labelsOut[:0], r.expect[i])
	})) / 1e3
	reply := wire.AppendSummary(wire.AppendLabels(nil, r.expect[0]), wire.Summary{Points: int64(batch), Chunks: 1, Clusters: model.NumClusters(), CacheHit: true})
	l.m["wire.bytes_per_point"] = float64(len(in.frameBods[0])+len(reply)) / float64(batch)

	l.m["api.json_decode_ms"] = ms(l.each("api.json_decode", nb, func(i int) {
		var req api.AssignRequest
		dec := json.NewDecoder(bytes.NewReader(in.jsonBods[i]))
		dec.DisallowUnknownFields()
		_ = dec.Decode(&req)
		sinkI += len(req.Points)
	}))
	var jsonOut bytes.Buffer
	l.m["api.json_encode_ms"] = ms(l.each("api.json_encode", nb, func(i int) {
		jsonOut.Reset()
		_ = json.NewEncoder(&jsonOut).Encode(api.AssignResponse{Labels: r.expect[i], Clusters: model.NumClusters(), CacheHit: true})
	}))
	l.m["api.json_bytes_per_point"] = float64(len(in.jsonBods[0])+jsonOut.Len()) / float64(batch)

	// service, http and the socket: the same batch one rung further out
	// each time, on the shard that owns the dataset.
	owner := r.inst.st.owner
	var serr error
	svcAssign := l.each("service.assign", nb, func(i int) {
		_, _, err := owner.svc.Assign(datasetName, "Ex-DPC", in.params, in.pool[i])
		serr = errors.Join(serr, err)
	})
	l.m["service.assign_ms"] = ms(svcAssign)
	l.m["service.fit_hit_us"] = l.perCall("service.fit_hit", 20, 64, func(int) {
		_, err := owner.svc.Fit(datasetName, "Ex-DPC", in.params)
		serr = errors.Join(serr, err)
	}) / 1e3
	handler := func(name, ct string, bodies [][]byte) time.Duration {
		return l.each(name, nb, func(i int) {
			req := httptest.NewRequest(http.MethodPost, "/v1/assign", bytes.NewReader(bodies[i]))
			req.Header.Set("Content-Type", ct)
			rec := httptest.NewRecorder()
			owner.handler.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				serr = errors.Join(serr, fmt.Errorf("%s: HTTP %d", name, rec.Code))
			}
		})
	}
	l.m["http.handler_json_ms"] = ms(handler("http.handler_json", "application/json", in.jsonBods))
	handlerFrame := handler("http.handler_frame", wire.ContentType, in.frameBods)
	l.m["http.handler_frame_ms"] = ms(handlerFrame)
	socket := l.each("http.socket_frame", nb, func(i int) {
		_, _, err := r.inst.st.assignFrame(owner.base, in.frameBods[i])
		serr = errors.Join(serr, err)
	})
	l.m["http.socket_frame_ms"] = ms(socket)
	if serr != nil {
		return nil, fmt.Errorf("service rungs: %w", serr)
	}

	// ring: an owner lookup, and one relay hop measured as relayed minus
	// owner-direct for the same request.
	members := []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
	rg, err := ring.New(ring.DefaultVnodes, members...)
	if err != nil {
		return nil, err
	}
	l.m["ring.owner_lookup_ns"] = l.perCall("ring.owner_lookup", 20, 1<<12, func(i int) {
		sinkI += len(rg.Owner(datasetName))
	})
	relay, err := l.relay()
	if err != nil {
		return nil, fmt.Errorf("relay rung: %w", err)
	}
	l.m["ring.relay_ms"] = ms(relay)

	l.tracing()
	l.ratios(before, after)
	attempted, failed := r.tally.counts()
	l.m["ops.failed_ratio"] = float64(failed) / float64(max(1, attempted))

	// Last, because it moves the dataset's version: an in-process append.
	l.m["service.append_ms"] = ms(l.each("service.append", 5, func(i int) {
		_, err := owner.svc.AppendPoints(datasetName, in.appends[(appendSlots-1-i)%appendSlots])
		serr = errors.Join(serr, err)
	}))
	if serr != nil {
		return nil, fmt.Errorf("service append: %w", serr)
	}

	nn := l.m["kdtree.nn_us"] * float64(batch) / 1e3
	return stackRungs([]rung{
		{Name: "geom.sqdist x batch", CostMS: l.m["geom.sqdist_ns"] * float64(batch) / 1e6},
		{Name: "kdtree.nn x batch", CostMS: nn}, // one thread; the rungs above use all CPUs
		{Name: "core.assign_all", CostMS: ms(assignBatch)},
		{Name: "service.assign", CostMS: ms(svcAssign)},
		{Name: "http.handler_frame", CostMS: ms(handlerFrame)},
		{Name: "http.socket_frame", CostMS: ms(socket)},
		{Name: "ring.relayed_frame", CostMS: ms(socket + relay)},
	}), nil
}

// stackRungs fills each rung's increment over the rung below.
func stackRungs(rs []rung) []rung {
	for i := range rs {
		rs[i].IncrementMS = rs[i].CostMS
		if i > 0 {
			rs[i].IncrementMS -= rs[i-1].CostMS
		}
	}
	return rs
}

// densindex builds the workload's density index as the service would
// (d_cut plus headroom), slides it by one append and re-cuts it.
func (l *ladder) densindex() error {
	in, w := l.r.inst.in, l.r.w
	ds, workers := l.r.model.Dataset(), runtime.NumCPU()
	const maxEdges = 1 << 25
	dcMax := in.params.DCut * 1.5
	var idx *densindex.Index
	var err error
	l.m["densindex.build_s"] = l.each("densindex.build", 2, func(int) {
		idx, err = densindex.Build(ds, dcMax, workers, maxEdges)
		if errors.Is(err, densindex.ErrTooDense) {
			idx, err = densindex.Build(ds, in.params.DCut, workers, maxEdges)
		}
	}).Seconds()
	if err != nil {
		return fmt.Errorf("densindex build: %w", err)
	}
	l.m["densindex.edges"] = float64(idx.Edges())
	coords := append([]float64(nil), ds.Coords[w.appendN*ds.Dim:]...)
	for _, row := range in.appends[0] {
		coords = append(coords, row...)
	}
	slid := geom.NewDataset(coords, ds.Dim)
	var next *densindex.Index
	l.m["densindex.update_ms"] = ms(l.each("densindex.update", 3, func(int) {
		next, err = densindex.Update(idx, slid, w.appendN, w.appendN, workers, maxEdges)
	}))
	if err != nil {
		return fmt.Errorf("densindex update: %w", err)
	}
	p := in.params
	p.Workers = workers
	var rho, delta, label []float64
	l.each("densindex.cut", 3, func(int) {
		var res *core.Result
		if res, err = next.Cut(p); err == nil {
			rho = append(rho, ms(res.Timing.Rho))
			delta = append(delta, ms(res.Timing.Delta))
			label = append(label, ms(res.Timing.Label))
		}
	})
	if err != nil {
		return fmt.Errorf("densindex cut: %w", err)
	}
	l.m["densindex.cut.rho_ms"] = median(rho)
	l.m["densindex.cut.delta_ms"] = median(delta)
	l.m["densindex.cut.label_ms"] = median(label)
	return nil
}

// relay is the relayed minus the owner-direct median latency of the
// same frame batches, interleaved. A workload without a ring gets a
// two-shard ring booted here, holding its dataset and model.
func (l *ladder) relay() (time.Duration, error) {
	in := l.r.inst.in
	st := l.r.inst.st
	if st.entry == st.owner {
		var err error
		if st, err = startStack(2, 0, datasetName); err != nil {
			return 0, err
		}
		defer st.close()
		if _, err := st.do(st.owner.base, http.MethodPut, "/v1/datasets/"+datasetName+"?format=binary", "", in.uploads); err != nil {
			return 0, err
		}
		if _, err := st.do(st.owner.base, http.MethodPost, "/v1/fit", "application/json", in.fitBody); err != nil {
			return 0, err
		}
	}
	var relayed, direct []float64
	var rerr error
	for i := 0; i < 2*len(in.frameBods); i++ {
		body := in.frameBods[(i/2)%len(in.frameBods)]
		base, out, name := st.entry.base, &relayed, "ring.relayed"
		if firstOfPair(i) {
			base, out, name = st.owner.base, &direct, "ring.direct"
		}
		id := l.r.tr.start(name, l.sp)
		start := time.Now()
		_, _, err := st.assignFrame(base, body)
		*out = append(*out, float64(time.Since(start)))
		l.r.tr.end(id)
		rerr = errors.Join(rerr, err)
	}
	return time.Duration(median(relayed) - median(direct)), rerr
}

// firstOfPair alternates which side of an interleaved A/B pair runs
// first, so neither side always pays for going first.
func firstOfPair(i int) bool { return i%2 == (i/2)%2 }

// tracing measures what a span costs, alone and around a real request:
// the traced minus the untraced median of interleaved frame batches.
func (l *ladder) tracing() {
	probe := newTracer(true)
	const n = 1 << 16
	start := time.Now()
	for i := 0; i < n; i++ {
		probe.end(probe.start("probe", 0))
	}
	l.m["trace.span_ns"] = float64(time.Since(start)) / n

	in, st := l.r.inst.in, l.r.inst.st
	var on, off []float64
	for i := 0; i < 2*len(in.frameBods); i++ {
		body := in.frameBods[(i/2)%len(in.frameBods)]
		start := time.Now()
		if firstOfPair(i) {
			id := probe.start("request", 0)
			_, _, _ = st.assignFrame(st.entry.base, body)
			probe.end(id)
			on = append(on, float64(time.Since(start)))
		} else {
			_, _, _ = st.assignFrame(st.entry.base, body)
			off = append(off, float64(time.Since(start)))
		}
	}
	l.m["trace.overhead_ms"] = (median(on) - median(off)) / 1e6
}

// ratios derives the service's useful-outcome ratios from its counter
// deltas over the timed phases.
func (l *ladder) ratios(before, after api.Stats) {
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	cuts := after.IndexCuts - before.IndexCuts
	stale := after.DriftStaleServes - before.DriftStaleServes
	assigns := after.AssignRequests - before.AssignRequests
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	l.m["service.cache_hit_ratio"] = ratio(hits, hits+misses)
	l.m["service.index_cut_ratio"] = ratio(cuts, cuts+misses)
	l.m["service.stale_serve_ratio"] = ratio(stale, assigns)
}
