package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	dpc "repro"
	"repro/api"
	"repro/internal/core"
)

// run is one measured run of a workload: the set-up instance, the
// oracle labels, and what the phases record.
type run struct {
	w       workload
	min     minimums
	seconds float64
	inst    *instance
	tally   *tally
	tr      *tracer
	root    int

	model        *core.Model // the model the lineage serves between rounds
	expect       [][]int32   // pool labels under model
	streamExpect []int32

	// What the rounds accumulate; finish turns it into metrics.
	fitFirst     map[string][]int32 // each algorithm's first labels
	fitSecs      map[string][]float64
	jsonLat      []float64
	frameLat     []float64
	assignPoints int64
	assignBusy   time.Duration
	streamPoints int64
	streamBusy   time.Duration
	appendLat    []float64
	refitLat     []float64
	cycles       int // window write cycles so far, across rounds
	preempted    int // write cycles whose refit something else had done

	metrics map[string]float64
	timings map[string][]core.Timing // per fit algorithm, for the ladder

	// corrupt, when set, may alter a response's labels before they are
	// checked; the benchmark's tests use it to prove a bad label fails.
	corrupt func(labels []int32)
}

// rounds is how many times a run cycles through the four phases. Each
// phase's samples then spread over the whole run instead of one block
// of it, so slow drifts in the host's speed touch every metric alike.
const rounds = 5

// window returns a phase's soft deadline (its share of one round) and
// hard deadline (when it stops even short of its minimum count).
func (r *run) window(ph int) (soft, hard time.Time) {
	budget := time.Duration(r.seconds * r.w.share[ph] / rounds * float64(time.Second))
	now := time.Now()
	return now.Add(budget), now.Add(3*budget + 5*time.Second)
}

// perRound is a run-wide minimum count split over the rounds.
func perRound(total int) int { return (total + rounds - 1) / rounds }

// setModel makes m the model reads are checked against.
func (r *run) setModel(m *core.Model) error {
	expect, err := poolLabels(m, r.inst.in.pool)
	if err != nil {
		return err
	}
	r.model, r.expect = m, expect
	r.streamExpect = r.inst.in.streamLabels(r.w, expect)
	return nil
}

// finish turns the accumulated samples into the end-to-end metrics.
func (r *run) finish() {
	for _, a := range fitAlgorithms {
		r.metrics["fit_"+a.key+"_s"] = median(r.fitSecs[a.key])
	}
	r.metrics["assign_json_p50_ms"] = quantile(r.jsonLat, 0.50)
	r.metrics["assign_json_p99_ms"] = quantile(r.jsonLat, 0.99)
	r.metrics["assign_frame_p50_ms"] = quantile(r.frameLat, 0.50)
	r.metrics["assign_frame_p99_ms"] = quantile(r.frameLat, 0.99)
	r.metrics["assign_pts_per_s"] = float64(r.assignPoints) / r.assignBusy.Seconds()
	r.metrics["stream_pts_per_s"] = float64(r.streamPoints) / r.streamBusy.Seconds()
	r.metrics["append_p50_ms"] = median(r.appendLat)
	r.metrics["refit_p50_ms"] = median(r.refitLat)
}

// more reports whether a closed loop that has done count operations
// issues another.
func more(soft, hard time.Time, count, least int) bool {
	now := time.Now()
	if now.After(hard) {
		return false
	}
	return now.Before(soft) || count < least
}

// checkLabels compares one response against its oracle. A refit where
// none is expected (cache_hit false) is a failure too.
func (r *run) checkLabels(got []int32, cacheHit bool, want []int32) error {
	if r.corrupt != nil {
		r.corrupt(got)
	}
	if !cacheHit {
		return fmt.Errorf("cache_hit false: the request refit the model")
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d labels for %d points", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("label %d is %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

var fitAlgorithms = []struct {
	key string
	alg dpc.Algorithm
}{
	{"exdpc", dpc.NewExDPC()},
	{"approxdpc", dpc.NewApproxDPC()},
	{"sapproxdpc", dpc.NewSApproxDPC()},
}

// fitPhase times the root library call dpc.Fit for the three paper
// algorithms, round robin, with Workers = the CPU count. Each
// algorithm's labels must repeat byte for byte, and Approx-DPC's centers
// must equal Ex-DPC's (the paper's Theorem 4).
func (r *run) fitPhase() {
	sp := r.tr.start("phase.fit", r.root)
	defer r.tr.end(sp)
	p := r.inst.in.params
	p.Workers = runtime.NumCPU()
	soft, hard := r.window(phFit)
	for round := 0; more(soft, hard, round, perRound(r.min.fitRounds)); round++ {
		centers := map[string][]int32{}
		for _, a := range fitAlgorithms {
			id := r.tr.start("fit."+a.key, sp)
			start := time.Now()
			m, err := dpc.Fit(a.alg, r.inst.in.ds, p)
			elapsed := time.Since(start)
			r.tr.end(id)
			if err == nil {
				res := m.Result()
				if ref, ok := r.fitFirst[a.key]; !ok {
					r.fitFirst[a.key] = res.Labels
				} else if !slices.Equal(ref, res.Labels) {
					err = fmt.Errorf("labels differ from the run's first %s fit", a.key)
				}
			}
			if !r.tally.op("fit "+a.key, err) {
				continue
			}
			r.fitSecs[a.key] = append(r.fitSecs[a.key], elapsed.Seconds())
			r.timings[a.key] = append(r.timings[a.key], m.Result().Timing)
			centers[a.key] = m.Result().Centers
		}
		ex, approx := centers["exdpc"], centers["approxdpc"]
		if ex != nil && approx != nil {
			var err error
			if !sameSet(ex, approx) {
				err = fmt.Errorf("Approx-DPC centers %v differ from Ex-DPC centers %v", approx, ex)
			}
			r.tally.op("approx centers", err)
		}
	}
}

func sameSet(a, b []int32) bool {
	x, y := slices.Clone(a), slices.Clone(b)
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}

// assignPhase runs two closed-loop clients against the entry node: one
// sends JSON batches, the other frame batches, over the same query pool.
func (r *run) assignPhase() {
	sp := r.tr.start("phase.assign", r.root)
	defer r.tr.end(sp)
	in, st := r.inst.in, r.inst.st
	soft, hard := r.window(phAssign)
	var points atomic.Int64
	var wg sync.WaitGroup
	client := func(name string, lat *[]float64, send func(i int) ([]int32, bool, error)) {
		defer wg.Done()
		for k := 0; more(soft, hard, k, perRound(r.min.samples)); k++ {
			i := k % len(in.pool)
			id := r.tr.start(name, sp)
			start := time.Now()
			labels, hit, err := send(i)
			elapsed := time.Since(start)
			r.tr.end(id)
			if err == nil {
				err = r.checkLabels(labels, hit, r.expect[i])
			}
			if r.tally.op(name, err) {
				*lat = append(*lat, ms(elapsed))
				points.Add(int64(len(labels)))
			}
		}
	}
	start := time.Now()
	wg.Add(2)
	go client("assign.json", &r.jsonLat, func(i int) ([]int32, bool, error) {
		return st.assignJSON(in.jsonBods[i])
	})
	go client("assign.frame", &r.frameLat, func(i int) ([]int32, bool, error) {
		return st.assignFrame(st.entry.base, in.frameBods[i])
	})
	wg.Wait()
	r.assignBusy += time.Since(start)
	r.assignPoints += points.Load()
}

// streamPhase streams the pool, repeated to w.stream points, as frames
// through /v1/assign/stream, checking each labels chunk as it arrives.
func (r *run) streamPhase() {
	sp := r.tr.start("phase.stream", r.root)
	defer r.tr.end(sp)
	st, want := r.inst.st, r.streamExpect
	soft, hard := r.window(phStream)
	for k := 0; more(soft, hard, k, perRound(r.min.streams)); k++ {
		off := 0
		id := r.tr.start("stream", sp)
		start := time.Now()
		sum, err := st.stream(r.inst.in.streamBod, func(chunk []int32) error {
			if off+len(chunk) > len(want) {
				return fmt.Errorf("stream returned more than %d labels", len(want))
			}
			if err := r.checkLabels(chunk, true, want[off:off+len(chunk)]); err != nil {
				return fmt.Errorf("at offset %d: %w", off, err)
			}
			off += len(chunk)
			return nil
		})
		elapsed := time.Since(start)
		r.tr.end(id)
		switch {
		case err != nil:
		case off != len(want) || sum.Points != int64(len(want)):
			err = fmt.Errorf("stream labelled %d of %d points", off, len(want))
		case !sum.CacheHit:
			err = fmt.Errorf("cache_hit false: the stream refit the model")
		}
		if r.tally.op("stream", err) {
			r.streamPoints += int64(off)
			r.streamBusy += elapsed
		}
	}
}

// served is the set of models a window read may legitimately be served
// by: each refit's model, newest last. Reads between an append and the
// refit that follows it are served by a pinned older model, so the set
// keeps the last few; writing marks the interval in which a model may be
// serving before it is published here.
type served struct {
	mu      sync.Mutex
	idle    *sync.Cond // signals writing going false and each read done
	writing bool
	reads   int
	models  []*oracle
}

const servedKeep = 8

// oracle memoizes one model's labels for the pool batches.
type oracle struct {
	m      *core.Model
	mu     sync.Mutex
	labels map[int][]int32
}

func (o *oracle) batch(i int, rows [][]float64) []int32 {
	o.mu.Lock()
	defer o.mu.Unlock()
	if l, ok := o.labels[i]; ok {
		return l
	}
	l, err := o.m.AssignAll(rows, 1)
	if err != nil {
		return nil
	}
	o.labels[i] = l
	return l
}

func newServed(m *core.Model) *served {
	s := &served{models: []*oracle{{m: m, labels: map[int][]int32{}}}}
	s.idle = sync.NewCond(&s.mu)
	return s
}

func (s *served) setWriting(on bool) {
	s.mu.Lock()
	s.writing = on
	s.mu.Unlock()
	if !on {
		s.idle.Broadcast()
	}
}

func (s *served) readDone() {
	s.mu.Lock()
	s.reads++
	s.mu.Unlock()
	s.idle.Broadcast()
}

// awaitReads blocks until n more reads have completed.
func (s *served) awaitReads(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for target := s.reads + n; s.reads < target; {
		s.idle.Wait()
	}
}

func (s *served) publish(m *core.Model) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.models = append(s.models, &oracle{m: m, labels: map[int][]int32{}})
	if len(s.models) > servedKeep {
		s.models = s.models[1:]
	}
}

// match reports whether labels are batch i's labels under any model in
// the set, waiting out an unpublished refit before giving up.
func (s *served) match(i int, rows [][]float64, labels []int32) bool {
	for attempt := 0; attempt < 2; attempt++ {
		s.mu.Lock()
		for attempt > 0 && s.writing {
			s.idle.Wait()
		}
		models := slices.Clone(s.models)
		s.mu.Unlock()
		for k := len(models) - 1; k >= 0; k-- {
			if slices.Equal(models[k].batch(i, rows), labels) {
				return true
			}
		}
	}
	return false
}

// windowPhase runs a writer beside a reader. The writer appends fresh
// points from the generator (the sliding window expires as many) and
// then refits Ex-DPC through /v1/fit; the reader sends frame batches
// the whole time and each read must match a model the lineage served.
// With oracle set, the last refit's labels are then checked against a
// fresh dpc.Fit of its dataset version. The phase leaves the last refit
// as the model later reads are checked against.
func (r *run) windowPhase(oracle bool) error {
	sp := r.tr.start("phase.window", r.root)
	defer r.tr.end(sp)
	in, st := r.inst.in, r.inst.st
	set := newServed(r.model)
	last := r.model
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; !stop.Load(); k++ {
			i := k % len(in.pool)
			id := r.tr.start("window.read", sp)
			labels, _, err := st.assignFrame(st.entry.base, in.frameBods[i])
			r.tr.end(id)
			if err == nil {
				if r.corrupt != nil {
					r.corrupt(labels)
				}
				// A read may refit (cache_hit false) when it races an
				// append; that costs latency, not correctness, so only the
				// labels are checked here.
				if !set.match(i, in.pool[i], labels) {
					err = fmt.Errorf("labels match no model the lineage served")
				}
			}
			r.tally.op("window.read", err)
			set.readDone()
		}
	}()

	soft, hard := r.window(phWindow)
	for c := 0; more(soft, hard, c, perRound(r.min.cycles)); c++ {
		r.cycles++
		body := mustJSON(api.AppendRequest{Dataset: datasetName, Points: in.appends[r.cycles%appendSlots]})
		set.setWriting(true)
		id := r.tr.start("window.append", sp)
		start := time.Now()
		resp, err := st.appendPoints(body)
		elapsed := time.Since(start)
		r.tr.end(id)
		if err == nil && (resp.Appended != r.w.appendN || resp.N != r.w.n) {
			err = fmt.Errorf("append landed %d points, dataset n=%d; want %d, n=%d", resp.Appended, resp.N, r.w.appendN, r.w.n)
		}
		if !r.tally.op("window.append", err) {
			set.setWriting(false)
			continue
		}
		r.appendLat = append(r.appendLat, ms(elapsed))

		id = r.tr.start("window.refit", sp)
		start = time.Now()
		fr, err := st.fit(in.fitBody)
		elapsed = time.Since(start)
		r.tr.end(id)
		if err == nil {
			var m *core.Model
			if m, err = r.inst.servedModel(); err == nil {
				set.publish(m)
				last = m
			}
		}
		// A read that raced the append, or a drift refit, may have fitted
		// this version first: the refit is then a cache hit, not a refit,
		// and is counted apart from the refit latencies.
		if err == nil && !fr.CacheHit && fr.IndexCut != r.w.index {
			err = fmt.Errorf("refit after append: index_cut=%v, want %v", fr.IndexCut, r.w.index)
		}
		ok := r.tally.op("window.refit", err)
		if ok && fr.CacheHit {
			r.preempted++
		} else if ok {
			r.refitLat = append(r.refitLat, ms(elapsed))
		}
		set.setWriting(false)
		if ok {
			// The lineage adopts a refit only if a read lands before the
			// next append; otherwise an ever older model stays pinned and
			// drops out of the set. Two reads guarantee one that started
			// after the refit.
			set.awaitReads(2)
		}
	}
	stop.Store(true)
	wg.Wait()
	if !oracle {
		return r.setModel(last)
	}
	p := last.Params()
	p.Workers = runtime.NumCPU()
	fresh, err := dpc.Fit(dpc.NewExDPC(), last.Dataset(), p)
	if err == nil && !slices.Equal(fresh.Result().Labels, last.Result().Labels) {
		err = fmt.Errorf("served refit labels differ from a fresh dpc.Fit of the same dataset version")
	}
	r.tally.op("window.oracle", err)
	return r.setModel(last)
}
