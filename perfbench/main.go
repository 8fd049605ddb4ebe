// Command perfbench is the repository benchmark. One run sets up a
// workload (a deployment and a dataset generated from --seed), drives
// its four phases closed-loop for --seconds, checks every output against
// an in-process oracle, and prints one JSON result as its last line.
//
//	go run . --workload window --seed 1 --seconds 50 --trace 0
//
// Workloads: window, ring (see workloads in workload.go).
// Phases, in order, each with the workload's share of --seconds:
//
//	fit     dpc.Fit of Ex-DPC, Approx-DPC and S-Approx-DPC, round robin
//	assign  two clients: JSON and frame batches to /v1/assign
//	stream  one client streaming frames through /v1/assign/stream
//	window  a writer (POST /v1/points, then /v1/fit) beside a frame reader
//
// With --trace 0 the result holds the end-to-end metrics. With --trace 1
// the same phases run with spans recorded around every call, then the
// per-layer ladder times each module's public functions on the same
// inputs; the result holds the per-layer metrics, and the spans, their
// self times and the ladder are written to --trace-dir.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median and the last instance is the one measured.
const setupRepeats = 3

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	tiny     bool                 // shrink inputs and minimums for tests
	corrupt  func(labels []int32) // test hook, see run.corrupt
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	SIMD       bool   `json:"simd"`
}

func host() hostInfo {
	return hostInfo{
		CPUs: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, SIMD: geom.SIMDEnabled(),
	}
}

func main() {
	var o options
	var trace int
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input generation seed")
	flag.Float64Var(&o.seconds, "seconds", 50, "measured seconds, shared among the phases")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "traces"), "where a traced run writes its span dump")
	flag.Parse()
	o.trace = trace == 1
	res, err := execute(o, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
}

// execute runs one workload and returns its result; progress and a
// human-readable report go to out.
func execute(o options, out io.Writer) (*result, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	mins := fullMinimums
	if o.tiny {
		w, mins = w.shrink(), tinyMinimums
	}
	h := host()
	fmt.Fprintf(out, "workload=%s seed=%d seconds=%g trace=%v cpus=%d gomaxprocs=%d go=%s arch=%s simd=%v\n",
		w.name, o.seed, o.seconds, o.trace, h.CPUs, h.GOMAXPROCS, h.GoVersion, h.GOARCH, h.SIMD)

	tr := newTracer(o.trace)
	root := tr.start("run", 0)
	var setups []float64
	var inst *instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			inst.st.close()
		}
		id := tr.start("setup", root)
		var elapsed time.Duration
		var err error
		inst, elapsed, err = setUp(w, o.seed)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, elapsed.Seconds())
	}
	defer inst.st.close()

	r := &run{
		w: w, min: mins, seconds: o.seconds, inst: inst, tally: &tally{}, tr: tr, root: root,
		metrics:  map[string]float64{"setup_s": median(setups)},
		timings:  map[string][]core.Timing{},
		fitFirst: map[string][]int32{},
		fitSecs:  map[string][]float64{},
		corrupt:  o.corrupt,
	}
	if err := r.setModel(inst.model); err != nil {
		return nil, fmt.Errorf("oracle labels: %w", err)
	}

	runtime.GC()
	before := inst.st.stats()
	heap := startHeapSampler()
	for round := 0; round < rounds; round++ {
		r.fitPhase()
		r.assignPhase()
		r.streamPhase()
		if err := r.windowPhase(round == rounds-1); err != nil {
			return nil, fmt.Errorf("oracle labels: %w", err)
		}
	}
	r.metrics["peak_heap_mb"] = heap.finish()
	after := inst.st.stats()
	r.finish()

	catalog := endToEnd
	var rungs []rung
	if o.trace {
		var err error
		if rungs, err = r.measureLadder(before, after); err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		catalog = perLayer
	}
	tr.end(root)

	attempted, failed := r.tally.counts()
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, m := range catalog {
		v, ok := r.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured", m.name)
		}
		res.Metrics[m.name] = value{Value: v, Unit: m.unit}
	}
	report(out, r, res, catalog, rungs)
	fmt.Fprintf(out, "  service: %d drift trips, %d drift refits, %d stale serves, %d index cuts; %d of %d write cycles found their refit done\n",
		after.DriftTrips-before.DriftTrips, after.DriftRefits-before.DriftRefits,
		after.DriftStaleServes-before.DriftStaleServes, after.IndexCuts-before.IndexCuts, r.preempted, r.cycles)
	if o.trace {
		path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
		dump := traceDump{Workload: w.name, Seed: o.seed, Host: h, Ladder: rungs, Metrics: r.metrics}
		if err := tr.write(path, dump); err != nil {
			return nil, fmt.Errorf("writing span dump: %w", err)
		}
		fmt.Fprintf(out, "span dump: %s\n", path)
	}
	return res, nil
}

// report prints the run in human-readable form above the JSON line.
func report(out io.Writer, r *run, res *result, catalog []metric, rungs []rung) {
	for _, m := range catalog {
		fmt.Fprintf(out, "  %-28s %14.4f %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	fmt.Fprintf(out, "  %-28s %14.6f (%d failed of %d attempted; %d json, %d frame assign samples)\n",
		"failed_ratio", float64(res.Failed)/float64(max(1, res.Attempted)), res.Failed, res.Attempted,
		len(r.jsonLat), len(r.frameLat))
	for _, reason := range r.tally.reasons {
		fmt.Fprintf(out, "  failure: %s\n", reason)
	}
	if len(rungs) > 0 {
		fmt.Fprintf(out, "  ladder for one %d-point frame batch (cost, increment over the rung below):\n", len(r.inst.in.pool[0]))
		for _, g := range rungs {
			fmt.Fprintf(out, "    %-22s %10.4f ms %+10.4f ms\n", g.Name, g.CostMS, g.IncrementMS)
		}
		fmt.Fprintf(out, "  span self time:\n")
		for _, s := range r.tr.summary() {
			fmt.Fprintf(out, "    %-24s n=%-6d total %10.2f ms  self %10.2f ms\n", s.Name, s.Count, s.TotalMS, s.SelfMS)
		}
	}
}
