package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/api"
	"repro/datasets"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/wire"
)

// phase indexes a workload's time shares. The phases run in this order;
// window runs last because it mutates the served dataset.
const (
	phFit = iota
	phAssign
	phStream
	phWindow
	numPhases
)

// workload is one deployment and dataset. Every run drives all four
// phases against it, so every run reports every end-to-end metric; the
// workload's own phase gets most of the time.
type workload struct {
	name    string
	data    string // bundled generator
	n       int
	shards  int  // 1 = single node; 2 = ring at rf=1, entry via the non-owner
	index   bool // density index resident, so refits are index re-cuts
	batch   int  // points per assign batch, both codecs and window reads
	stream  int  // points per streamed request
	appendN int  // points per window append
	share   [numPhases]float64
}

var workloads = []workload{
	{name: "window", data: "pamap2", n: 20000, shards: 1, index: true, batch: 2048, stream: 1 << 18, appendN: 1000,
		share: [numPhases]float64{0.15, 0.35, 0.10, 0.40}},
	{name: "ring", data: "s2", n: 20000, shards: 2, batch: 32, stream: 1 << 20, appendN: 1000,
		share: [numPhases]float64{0.10, 0.40, 0.25, 0.25}},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// shrink scales a workload down for the benchmark's own tests.
func (w workload) shrink() workload {
	w.n = 4000
	w.batch = min(w.batch, 32)
	w.stream = 4096
	w.appendN = 100
	return w
}

// minimums are the operation counts a phase completes even when its
// time share runs out first: enough assign requests that at least ten
// samples lie beyond p99, and enough fits, streams and write cycles
// for a median.
type minimums struct {
	fitRounds, samples, streams, cycles int
}

var fullMinimums = minimums{fitRounds: 5, samples: 1000, streams: 5, cycles: 7}
var tinyMinimums = minimums{fitRounds: 1, samples: 20, streams: 1, cycles: 2}

const datasetName = "bench"

// appendSlots bounds the pre-generated append stream; a run needing
// more cycles wraps around and re-appends the same points.
const appendSlots = 64

// inputs is everything generated from the seed: the dataset, the
// parameters, the assign query pool and the append stream.
type inputs struct {
	ds      *geom.Dataset
	params  core.Params // Workers left zero: server policy decides
	fitBody []byte
	uploads []byte // DPC1 binary body

	pool      [][][]float64 // query batches
	jsonBods  [][]byte      // pre-encoded JSON assign bodies
	frameBods [][]byte      // pre-encoded frame assign bodies
	streamBod []byte        // the pool repeated to w.stream points, as frames
	appends   [][][]float64 // appendSlots batches of w.appendN points
}

func generate(w workload, seed int64) (*inputs, error) {
	full, ok := datasets.Generate(w.data, w.n+w.appendN*appendSlots, seed)
	if !ok {
		return nil, fmt.Errorf("unknown generator %q", w.data)
	}
	dim := full.Points.Dim
	in := &inputs{
		ds:     geom.NewDataset(append([]float64(nil), full.Points.Coords[:w.n*dim]...), dim),
		params: core.Params{DCut: full.DCut, RhoMin: full.RhoMin, DeltaMin: full.DeltaMin},
	}
	for s := 0; s < appendSlots; s++ {
		rows := make([][]float64, w.appendN)
		for i := range rows {
			rows[i] = full.Points.At(w.n + s*w.appendN + i)
		}
		in.appends = append(in.appends, rows)
	}
	var buf bytes.Buffer
	if err := datasets.SaveBinary(&buf, in.ds); err != nil {
		return nil, err
	}
	in.uploads = buf.Bytes()
	freq := fitRequest(in.params)
	in.fitBody = mustJSON(freq)

	// Queries are training points perturbed inside the d_cut ball, the
	// traffic a fitted model serves.
	rng := rand.New(rand.NewSource(seed + 7))
	batches := max(8, min(256, (1<<16)/w.batch))
	for b := 0; b < batches; b++ {
		rows := make([][]float64, w.batch)
		for i := range rows {
			base := in.ds.At(rng.Intn(in.ds.N))
			row := make([]float64, dim)
			for j := range row {
				row[j] = base[j] + rng.NormFloat64()*in.params.DCut/4
			}
			rows[i] = row
		}
		in.pool = append(in.pool, rows)
		in.jsonBods = append(in.jsonBods, mustJSON(api.AssignRequest{FitRequest: freq, Points: rows}))
		in.frameBods = append(in.frameBods, frameBody(freq, rows))
	}
	body := wire.AppendHeader(nil, frameHeader(freq))
	for sent := 0; sent < w.stream; {
		rows := in.pool[(sent/w.batch)%len(in.pool)]
		rows = rows[:min(len(rows), w.stream-sent)]
		body = wire.AppendPointsRows(body, rows, false)
		sent += len(rows)
	}
	in.streamBod = body
	return in, nil
}

// streamLabels is the expected label sequence of the stream body.
func (in *inputs) streamLabels(w workload, poolLabels [][]int32) []int32 {
	out := make([]int32, 0, w.stream)
	for len(out) < w.stream {
		l := poolLabels[(len(out)/w.batch)%len(poolLabels)]
		out = append(out, l[:min(len(l), w.stream-len(out))]...)
	}
	return out
}

func fitRequest(p core.Params) api.FitRequest {
	return api.FitRequest{
		Dataset: datasetName, Algorithm: "Ex-DPC",
		Params: api.Params{DCut: p.DCut, RhoMin: p.RhoMin, DeltaMin: p.DeltaMin},
	}
}

func frameHeader(req api.FitRequest) wire.Header {
	return wire.Header{
		Dataset: req.Dataset, Algorithm: req.Algorithm,
		DCut: req.Params.DCut, RhoMin: req.Params.RhoMin, DeltaMin: req.Params.DeltaMin,
	}
}

func frameBody(req api.FitRequest, rows [][]float64) []byte {
	return wire.AppendPointsRows(wire.AppendHeader(nil, frameHeader(req)), rows, false)
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding %T: %v", v, err))
	}
	return raw
}

// instance is one set-up deployment with its inputs.
type instance struct {
	in    *inputs
	st    *stack
	model *core.Model // the served model, fetched in process
}

// setUp generates the inputs, boots the stack, uploads the dataset,
// builds the density index when the workload keeps one, and does the
// first fit — everything setup_s times.
func setUp(w workload, seed int64) (*instance, time.Duration, error) {
	start := time.Now()
	in, err := generate(w, seed)
	if err != nil {
		return nil, 0, err
	}
	st, err := startStack(w.shards, int64(w.n), datasetName)
	if err != nil {
		return nil, 0, err
	}
	fail := func(err error) (*instance, time.Duration, error) {
		st.close()
		return nil, 0, err
	}
	if err := st.upload(datasetName, in.uploads); err != nil {
		return fail(fmt.Errorf("upload: %w", err))
	}
	if w.index {
		if err := st.buildIndex(datasetName, in.params.DCut); err != nil {
			return fail(fmt.Errorf("index build: %w", err))
		}
	}
	fr, err := st.fit(in.fitBody)
	if err != nil {
		return fail(fmt.Errorf("first fit: %w", err))
	}
	elapsed := time.Since(start)
	if fr.CacheHit || fr.IndexCut != w.index {
		return fail(fmt.Errorf("first fit: cache_hit=%v index_cut=%v, want false/%v", fr.CacheHit, fr.IndexCut, w.index))
	}
	inst := &instance{in: in, st: st}
	if inst.model, err = inst.servedModel(); err != nil {
		return fail(err)
	}
	return inst, elapsed, nil
}

// servedModel fetches the current Ex-DPC model from the owning shard in
// process: a cache hit on the model the last /v1/fit produced.
func (inst *instance) servedModel() (*core.Model, error) {
	fr, err := inst.st.owner.svc.Fit(datasetName, "Ex-DPC", inst.in.params)
	if err != nil {
		return nil, fmt.Errorf("in-process model: %w", err)
	}
	if !fr.CacheHit {
		return nil, fmt.Errorf("in-process model: expected a cache hit, the service refit")
	}
	return fr.Model, nil
}

// poolLabels labels every query batch with m in process: the oracle
// every HTTP response is checked against.
func poolLabels(m *core.Model, pool [][][]float64) ([][]int32, error) {
	out := make([][]int32, len(pool))
	for i, rows := range pool {
		l, err := m.AssignAll(rows, runtime.NumCPU())
		if err != nil {
			return nil, err
		}
		out[i] = l
	}
	return out, nil
}
