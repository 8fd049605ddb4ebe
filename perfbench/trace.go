package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Times are nanoseconds since the tracer
// started; Parent 0 is the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A disabled tracer
// records nothing and start returns 0, so timed runs pay one branch.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

func (t *tracer) start(name string, parent int) int {
	if !t.on {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// spanStat aggregates every span of one name. Self time is a span's
// duration minus the part of it its child spans cover.
type spanStat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func (t *tracer) summary() []spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byName := map[string]*spanStat{}
	var order []string
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		dur := s.End - s.Start
		st.Count++
		st.TotalMS += float64(dur) / 1e6
		st.SelfMS += float64(dur-covered(children[s.ID], s.Start, s.End)) / 1e6
	}
	out := make([]spanStat, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, cur int64 = 0, lo
	for _, x := range iv {
		s, e := max(x[0], cur), min(x[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// rung is one step of the per-layer ladder: the cost of one request's
// worth of work at that layer and its increment over the rung below.
type rung struct {
	Name        string  `json:"name"`
	CostMS      float64 `json:"cost_ms"`
	IncrementMS float64 `json:"increment_ms"`
}

type traceDump struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Host     hostInfo           `json:"host"`
	Ladder   []rung             `json:"ladder"`
	Summary  []spanStat         `json:"summary"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []span             `json:"spans"`
}

// write dumps the spans, the per-name self times and the ladder to path.
func (t *tracer) write(path string, d traceDump) error {
	d.Summary = t.summary()
	t.mu.Lock()
	d.Spans = t.spans
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(d)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
