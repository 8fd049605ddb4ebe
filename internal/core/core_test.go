package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

// gaussianMix generates k well-separated Gaussian blobs plus uniform noise;
// the workhorse fixture for cross-algorithm validation.
func gaussianMix(rng *rand.Rand, k, perCluster, noise, d int, domain, sd float64) ([][]float64, []int) {
	var pts [][]float64
	var truth []int
	centers := make([][]float64, k)
	for c := range centers {
		ct := make([]float64, d)
		for j := range ct {
			ct[j] = domain*0.1 + rng.Float64()*domain*0.8
		}
		centers[c] = ct
	}
	for c := 0; c < k; c++ {
		for i := 0; i < perCluster; i++ {
			p := make([]float64, d)
			for j := range p {
				p[j] = centers[c][j] + rng.NormFloat64()*sd
			}
			pts = append(pts, p)
			truth = append(truth, c)
		}
	}
	for i := 0; i < noise; i++ {
		p := make([]float64, d)
		for j := range p {
			p[j] = rng.Float64() * domain
		}
		pts = append(pts, p)
		truth = append(truth, -1)
	}
	return pts, truth
}

// grid2D places k*k tight blobs on a grid — deterministic cluster count.
func grid2D(rng *rand.Rand, side, perCluster int, spacing, sd float64) [][]float64 {
	var pts [][]float64
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			cx, cy := float64(x+1)*spacing, float64(y+1)*spacing
			for i := 0; i < perCluster; i++ {
				pts = append(pts, []float64{cx + rng.NormFloat64()*sd, cy + rng.NormFloat64()*sd})
			}
		}
	}
	return pts
}

func defaultParams() Params {
	return Params{DCut: 8, RhoMin: 5, DeltaMin: 30, Workers: 4, Epsilon: 0.4, Seed: 1}
}

func allAlgorithms() []Algorithm {
	return []Algorithm{Scan{}, RtreeScan{}, ExDPC{}, ApproxDPC{}, SApproxDPC{}, LSHDDP{}, CFSFDPA{}}
}

func exactAlgorithms() []Algorithm {
	return []Algorithm{Scan{}, RtreeScan{}, ExDPC{}, CFSFDPA{}}
}

func TestParamsValidate(t *testing.T) {
	base := defaultParams()
	if err := base.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := base
	bad.DCut = 0
	if bad.Validate() == nil {
		t.Error("DCut=0 accepted")
	}
	bad = base
	bad.DeltaMin = base.DCut
	if bad.Validate() == nil {
		t.Error("DeltaMin == DCut accepted (Definition 5 requires >)")
	}
	bad = base
	bad.RhoMin = -1
	if bad.Validate() == nil {
		t.Error("negative RhoMin accepted")
	}
}

func TestAllAlgorithmsRejectBadInput(t *testing.T) {
	for _, alg := range allAlgorithms() {
		if _, err := alg.Cluster(nil, defaultParams()); err == nil {
			t.Errorf("%s: empty dataset accepted", alg.Name())
		}
		if _, err := alg.Cluster([][]float64{{1, 2}}, Params{}); err == nil {
			t.Errorf("%s: zero params accepted", alg.Name())
		}
	}
}

// TestExactAlgorithmsAgree is the central cross-check: Scan, R-tree+Scan,
// Ex-DPC, and CFSFDP-A are all exact, so they must produce identical rho,
// identical delta (up to fp rounding), and identical labels.
func TestExactAlgorithmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts, _ := gaussianMix(rng, 5, 150, 30, 2, 1000, 10)
	p := Params{DCut: 25, RhoMin: 4, DeltaMin: 80, Workers: 4, Seed: 3}
	ref, err := Scan{}.Cluster(pts, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range exactAlgorithms()[1:] {
		got, err := alg.Cluster(pts, p)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		for i := range pts {
			if got.Rho[i] != ref.Rho[i] {
				t.Fatalf("%s: rho[%d] = %v, want %v", alg.Name(), i, got.Rho[i], ref.Rho[i])
			}
			if !almostEq(got.Delta[i], ref.Delta[i]) {
				t.Fatalf("%s: delta[%d] = %v, want %v", alg.Name(), i, got.Delta[i], ref.Delta[i])
			}
		}
		if len(got.Centers) != len(ref.Centers) {
			t.Fatalf("%s: %d centers, want %d", alg.Name(), len(got.Centers), len(ref.Centers))
		}
		for i := range got.Centers {
			if got.Centers[i] != ref.Centers[i] {
				t.Fatalf("%s: center %d = %d, want %d", alg.Name(), i, got.Centers[i], ref.Centers[i])
			}
		}
		for i := range pts {
			if got.Labels[i] != ref.Labels[i] {
				t.Fatalf("%s: label[%d] = %d, want %d", alg.Name(), i, got.Labels[i], ref.Labels[i])
			}
		}
	}
}

func almostEq(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a))
}

// TestTheorem4CenterGuarantee verifies Approx-DPC returns exactly the
// cluster centers of Ex-DPC for the same rho_min and delta_min.
func TestTheorem4CenterGuarantee(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pts, _ := gaussianMix(rng, 6, 120, 50, 2, 1000, 12)
		p := Params{DCut: 20, RhoMin: 3, DeltaMin: 70, Workers: 4, Seed: seed}
		ex, err := ExDPC{}.Cluster(pts, p)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := ApproxDPC{}.Cluster(pts, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(ex.Centers) != len(ap.Centers) {
			t.Fatalf("seed %d: Approx has %d centers, Ex has %d", seed, len(ap.Centers), len(ex.Centers))
		}
		for i := range ex.Centers {
			if ex.Centers[i] != ap.Centers[i] {
				t.Fatalf("seed %d: center sets differ: %v vs %v", seed, ex.Centers, ap.Centers)
			}
		}
		// Approx-DPC also computes exact local densities.
		for i := range pts {
			if ap.Rho[i] != ex.Rho[i] {
				t.Fatalf("seed %d: Approx rho[%d] = %v, want exact %v", seed, i, ap.Rho[i], ex.Rho[i])
			}
		}
	}
}

// TestApproxDeltaExactAboveDCut: Approx-DPC computes the exact dependent
// distance for every point whose true delta exceeds d_cut (the proof body
// of Theorem 4).
func TestApproxDeltaExactAboveDCut(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	pts, _ := gaussianMix(rng, 4, 100, 40, 2, 800, 15)
	p := Params{DCut: 22, RhoMin: 3, DeltaMin: 60, Workers: 2, Seed: 9}
	ex, _ := ExDPC{}.Cluster(pts, p)
	ap, _ := ApproxDPC{}.Cluster(pts, p)
	for i := range pts {
		if ex.Delta[i] > p.DCut && !almostEq(ap.Delta[i], ex.Delta[i]) {
			t.Fatalf("point %d: true delta %v > d_cut but Approx recorded %v", i, ex.Delta[i], ap.Delta[i])
		}
		if ex.Delta[i] <= p.DCut && ap.Delta[i] > p.DCut+1e-9 {
			t.Fatalf("point %d: true delta %v <= d_cut but Approx recorded larger %v", i, ex.Delta[i], ap.Delta[i])
		}
	}
}

// TestKnownClusterCount: all algorithms must find the planted 3x3 = 9
// clusters on a well-separated grid, with identical center *count*.
func TestKnownClusterCount(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := grid2D(rng, 3, 200, 300, 12)
	p := Params{DCut: 30, RhoMin: 5, DeltaMin: 120, Workers: 4, Epsilon: 0.3, Seed: 2}
	for _, alg := range allAlgorithms() {
		res, err := alg.Cluster(pts, p)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if res.NumClusters() != 9 {
			t.Errorf("%s: found %d clusters, want 9", alg.Name(), res.NumClusters())
		}
	}
}

// TestClusterPurity: on well-separated blobs, every algorithm must put
// points of one blob into one cluster (allowing a small fraction of
// border/noise mistakes for the approximate ones).
func TestClusterPurity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := grid2D(rng, 2, 300, 400, 15)
	p := Params{DCut: 40, RhoMin: 5, DeltaMin: 150, Workers: 4, Epsilon: 0.3, Seed: 5}
	for _, alg := range allAlgorithms() {
		res, err := alg.Cluster(pts, p)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		bad := 0
		for b := 0; b < 4; b++ {
			counts := map[int32]int{}
			for i := b * 300; i < (b+1)*300; i++ {
				counts[res.Labels[i]]++
			}
			best := 0
			for _, c := range counts {
				if c > best {
					best = c
				}
			}
			bad += 300 - best
		}
		if float64(bad) > 0.05*1200 {
			t.Errorf("%s: %d of 1200 points mis-grouped", alg.Name(), bad)
		}
	}
}

// TestNoiseDetection: uniform background points far from every blob must
// be labelled NoCluster by the exact algorithms.
func TestNoiseDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var pts [][]float64
	for i := 0; i < 400; i++ {
		pts = append(pts, []float64{100 + rng.NormFloat64()*5, 100 + rng.NormFloat64()*5})
	}
	// Lone far-away stragglers: local density 1 each.
	pts = append(pts, []float64{500, 500}, []float64{900, 100}, []float64{100, 900})
	p := Params{DCut: 15, RhoMin: 5, DeltaMin: 50, Workers: 2, Seed: 1}
	for _, alg := range exactAlgorithms() {
		res, err := alg.Cluster(pts, p)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		for i := 400; i < 403; i++ {
			if res.Labels[i] != NoCluster {
				t.Errorf("%s: straggler %d labelled %d, want noise", alg.Name(), i, res.Labels[i])
			}
		}
		for i := 0; i < 400; i++ {
			if res.Labels[i] == NoCluster {
				t.Errorf("%s: dense point %d labelled noise", alg.Name(), i)
				break
			}
		}
	}
}

// TestDependencyInvariants checks structural invariants of the dependency
// forest on every algorithm: exactly the centers are self-rooted labels,
// dependent distances match dependent points for exact algorithms, and
// each non-peak point's dependent point is denser.
func TestDependencyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	pts, _ := gaussianMix(rng, 3, 150, 20, 3, 500, 10)
	p := Params{DCut: 30, RhoMin: 3, DeltaMin: 90, Workers: 4, Epsilon: 0.5, Seed: 7}
	for _, alg := range allAlgorithms() {
		res, err := alg.Cluster(pts, p)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		peaks := 0
		for i := range pts {
			dep := res.Dep[i]
			if dep == NoDependent {
				peaks++
				if !math.IsInf(res.Delta[i], 1) {
					t.Errorf("%s: peak %d has finite delta %v", alg.Name(), i, res.Delta[i])
				}
				continue
			}
			if dep < 0 || int(dep) >= len(pts) || dep == int32(i) {
				t.Errorf("%s: invalid dependent %d for point %d", alg.Name(), dep, i)
			}
		}
		if peaks < 1 {
			t.Errorf("%s: no global density peak found", alg.Name())
		}
		// Exact algorithms: dependent point is strictly denser, and delta
		// is exactly the distance to it.
		if alg.Name() == "Scan" || alg.Name() == "Ex-DPC" {
			for i := range pts {
				dep := res.Dep[i]
				if dep == NoDependent {
					continue
				}
				if res.Rho[dep] <= res.Rho[i] {
					t.Errorf("%s: dep of %d is not denser", alg.Name(), i)
				}
			}
		}
	}
}

// TestLabelsPartitionClusters: labels are in [-1, numClusters) and every
// center is labelled with its own cluster id.
func TestLabelsPartitionClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts, _ := gaussianMix(rng, 4, 100, 30, 2, 600, 10)
	p := Params{DCut: 20, RhoMin: 3, DeltaMin: 60, Workers: 3, Epsilon: 0.5, Seed: 4}
	for _, alg := range allAlgorithms() {
		res, err := alg.Cluster(pts, p)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		k := int32(res.NumClusters())
		for i, l := range res.Labels {
			if l < NoCluster || l >= k {
				t.Fatalf("%s: label[%d] = %d outside [-1,%d)", alg.Name(), i, l, k)
			}
		}
		for l, c := range res.Centers {
			if res.Labels[c] != int32(l) {
				t.Errorf("%s: center %d labelled %d, want %d", alg.Name(), c, res.Labels[c], l)
			}
		}
	}
}

// TestWorkerCountInvariance: results must not depend on the worker count.
func TestWorkerCountInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	pts, _ := gaussianMix(rng, 3, 120, 20, 2, 500, 10)
	for _, alg := range allAlgorithms() {
		var ref *Result
		for _, w := range []int{1, 2, 8} {
			p := Params{DCut: 18, RhoMin: 3, DeltaMin: 60, Workers: w, Epsilon: 0.5, Seed: 6}
			res, err := alg.Cluster(pts, p)
			if err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			if ref == nil {
				ref = res
				continue
			}
			for i := range pts {
				if res.Labels[i] != ref.Labels[i] {
					t.Fatalf("%s: labels differ between worker counts at %d", alg.Name(), i)
				}
				if res.Rho[i] != ref.Rho[i] {
					t.Fatalf("%s: rho differs between worker counts at %d", alg.Name(), i)
				}
			}
		}
	}
}

func TestSinglePointAndTinyInputs(t *testing.T) {
	p := Params{DCut: 1, RhoMin: 0, DeltaMin: 2, Workers: 2, Epsilon: 0.5}
	for _, alg := range allAlgorithms() {
		res, err := alg.Cluster([][]float64{{5, 5}}, p)
		if err != nil {
			t.Fatalf("%s single point: %v", alg.Name(), err)
		}
		if res.NumClusters() != 1 || res.Labels[0] != 0 {
			t.Errorf("%s: single point should be its own cluster, got %d clusters", alg.Name(), res.NumClusters())
		}
		res, err = alg.Cluster([][]float64{{0, 0}, {0.1, 0}, {100, 100}}, p)
		if err != nil {
			t.Fatalf("%s three points: %v", alg.Name(), err)
		}
		if len(res.Rho) != 3 {
			t.Errorf("%s: wrong result size", alg.Name())
		}
	}
}

func TestDuplicatePointsAllAlgorithms(t *testing.T) {
	pts := make([][]float64, 50)
	for i := range pts {
		pts[i] = []float64{1, 1}
	}
	for i := 25; i < 50; i++ {
		pts[i] = []float64{200, 200}
	}
	p := Params{DCut: 5, RhoMin: 2, DeltaMin: 10, Workers: 2, Epsilon: 0.5}
	for _, alg := range allAlgorithms() {
		res, err := alg.Cluster(pts, p)
		if err != nil {
			t.Fatalf("%s duplicates: %v", alg.Name(), err)
		}
		if res.NumClusters() != 2 {
			t.Errorf("%s: duplicates gave %d clusters, want 2", alg.Name(), res.NumClusters())
		}
	}
}

func TestJitterDeterministicDistinct(t *testing.T) {
	seen := map[float64]bool{}
	for i := 0; i < 100000; i++ {
		v := jitter(i)
		if v <= 0 || v >= 1 {
			t.Fatalf("jitter(%d) = %v outside (0,1)", i, v)
		}
		if seen[v] {
			t.Fatalf("jitter collision at %d", i)
		}
		seen[v] = true
	}
	if jitter(42) != jitter(42) {
		t.Error("jitter must be deterministic")
	}
}

func TestDecisionGraphAndSuggestDeltaMin(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	pts := grid2D(rng, 3, 150, 300, 12)
	p := Params{DCut: 30, RhoMin: 5, DeltaMin: 120, Workers: 4, Seed: 3}
	res, err := ExDPC{}.Cluster(pts, p)
	if err != nil {
		t.Fatal(err)
	}
	dg := DecisionGraph(res)
	if len(dg) != len(pts) {
		t.Fatalf("decision graph has %d points", len(dg))
	}
	for i := 1; i < len(dg); i++ {
		if dg[i].Delta > dg[i-1].Delta {
			t.Fatal("decision graph not sorted by descending delta")
		}
	}
	// The suggested threshold for 9 clusters must actually yield 9 centers.
	dm, ok := SuggestDeltaMin(res, 9, p.RhoMin)
	if !ok {
		t.Fatal("SuggestDeltaMin failed")
	}
	count := 0
	for i := range res.Delta {
		if res.Rho[i] >= p.RhoMin && res.Delta[i] >= dm {
			count++
		}
	}
	if count != 9 {
		t.Errorf("suggested delta_min selects %d centers, want 9", count)
	}
	if _, ok := SuggestDeltaMin(res, len(pts)+1, 0); ok {
		t.Error("SuggestDeltaMin should fail when k exceeds the dataset")
	}
}

// TestSApproxEpsilonAccuracy: with a tiny epsilon nearly every cell is a
// single point, so S-Approx-DPC approaches Ex-DPC's clustering.
func TestSApproxEpsilonAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	pts := grid2D(rng, 2, 250, 350, 14)
	p := Params{DCut: 35, RhoMin: 4, DeltaMin: 140, Workers: 4, Epsilon: 0.05, Seed: 8}
	ex, _ := ExDPC{}.Cluster(pts, p)
	sa, err := SApproxDPC{}.Cluster(pts, p)
	if err != nil {
		t.Fatal(err)
	}
	if sa.NumClusters() != ex.NumClusters() {
		t.Fatalf("eps=0.05: %d clusters, exact has %d", sa.NumClusters(), ex.NumClusters())
	}
	agree := 0
	for b := 0; b < 4; b++ {
		counts := map[[2]int32]int{}
		for i := b * 250; i < (b+1)*250; i++ {
			counts[[2]int32{ex.Labels[i], sa.Labels[i]}]++
		}
		best := 0
		for _, c := range counts {
			if c > best {
				best = c
			}
		}
		agree += best
	}
	if float64(agree) < 0.97*1000 {
		t.Errorf("eps=0.05 agreement %d/1000 too low", agree)
	}
}

// sApproxPPrime recomputes S-Approx-DPC's set P'_pick from scratch: the
// picked point (first member) of every eps-grid cell that has no denser
// picked point in a cell its d_cut-ball reaches. It returns the picked
// points and P'_pick.
func sApproxPPrime(ds *geom.Dataset, rho []float64, p Params) (picked, pPrime []int32) {
	g := grid.Build(ds, p.epsilon()*grid.SideForDCut(p.DCut, ds.Dim))
	for c := range g.Cells {
		picked = append(picked, g.Cells[c].Points[0])
	}
	for c, pi := range picked {
		resolved := false
		for x := int32(0); x < int32(ds.N) && !resolved; x++ {
			xc := g.PointCell[x]
			resolved = int(xc) != c && geom.SqDistIdx(ds, pi, x) < p.DCut*p.DCut && rho[picked[xc]] > rho[pi]
		}
		if !resolved {
			pPrime = append(pPrime, pi)
		}
	}
	return picked, pPrime
}

// TestSApproxFallbackPath forces |P'_pick|^2 > 4n so the exact fallback
// runs: a lattice of isolated nodes, each its own cell and density peak,
// every one with four equidistant lattice neighbors. Each node also has
// a later, non-picked twin in its cell, 0.01 closer to the next node
// along x. Each P'_pick point must depend on its nearest denser picked
// point, never a closer twin, the lower density rank winning the
// lattice's exact ties.
func TestSApproxFallbackPath(t *testing.T) {
	var pts, twins [][]float64
	for x := 0; x < 20; x++ {
		for y := 0; y < 10; y++ {
			pts = append(pts, []float64{float64(x) * 50, float64(y) * 50})
			twins = append(twins, []float64{float64(x)*50 + 0.01, float64(y) * 50})
		}
	}
	nodes := len(pts)
	ds64 := geom.MustFromRows(append(pts, twins...))
	for _, ds := range []*geom.Dataset{ds64, ds64.ToFloat32()} {
		for _, workers := range []int{1, 2} {
			name := fmt.Sprintf("%s, workers=%d", ds.Precision(), workers)
			p := Params{DCut: 10, RhoMin: 0, DeltaMin: 20, Workers: workers, Epsilon: 1.0}
			res, err := SApproxDPC{}.ClusterDataset(ds, p)
			if err != nil {
				t.Fatal(err)
			}
			picked, pPrime := sApproxPPrime(ds, res.Rho, p)
			if len(picked) != nodes {
				t.Fatalf("%s: %d picked points, want one per lattice node (%d)", name, len(picked), nodes)
			}
			if len(pPrime)*len(pPrime) <= 4*ds.N {
				t.Fatalf("%s: |P'_pick| = %d does not take the fallback (n=%d)", name, len(pPrime), ds.N)
			}
			for _, i := range pPrime {
				best, bestSq := NoDependent, math.Inf(1)
				for _, j := range picked {
					if res.Rho[j] <= res.Rho[i] {
						continue
					}
					sq := geom.SqDistIdx(ds, i, j)
					if sq < bestSq || (sq == bestSq && res.Rho[j] > res.Rho[best]) {
						best, bestSq = j, sq
					}
				}
				if res.Dep[i] != best || math.Float64bits(res.Delta[i]) != math.Float64bits(math.Sqrt(bestSq)) {
					t.Fatalf("%s: P'_pick point %d: (Dep %d, Delta %v), want (%d, %v)",
						name, i, res.Dep[i], res.Delta[i], best, math.Sqrt(bestSq))
				}
			}
			// Every node is 50 >= DeltaMin from the next, so each is its
			// own cluster center; its twin depends on it at d_cut.
			if res.NumClusters() != nodes {
				t.Errorf("%s: isolated lattice: %d clusters, want %d", name, res.NumClusters(), nodes)
			}
		}
	}
}

func TestTimingPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	pts, _ := gaussianMix(rng, 2, 200, 0, 2, 300, 8)
	p := Params{DCut: 15, RhoMin: 2, DeltaMin: 40, Workers: 2, Epsilon: 0.5}
	for _, alg := range allAlgorithms() {
		res, err := alg.Cluster(pts, p)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if res.Timing.Rho <= 0 || res.Timing.Delta <= 0 {
			t.Errorf("%s: timing not populated: %+v", alg.Name(), res.Timing)
		}
		if res.Timing.Total() < res.Timing.Rho {
			t.Errorf("%s: Total < Rho", alg.Name())
		}
	}
}

func TestAlgorithmNames(t *testing.T) {
	want := map[string]bool{
		"Scan": true, "R-tree + Scan": true, "Ex-DPC": true,
		"Approx-DPC": true, "S-Approx-DPC": true, "LSH-DDP": true, "CFSFDP-A": true,
	}
	for _, alg := range allAlgorithms() {
		if !want[alg.Name()] {
			t.Errorf("unexpected algorithm name %q", alg.Name())
		}
		delete(want, alg.Name())
	}
	if len(want) != 0 {
		t.Errorf("missing algorithms: %v", want)
	}
}
