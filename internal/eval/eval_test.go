package eval

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"
)

func TestRandIndexIdentical(t *testing.T) {
	a := []int32{0, 0, 1, 1, 2, -1}
	if got := RandIndex(a, a); got != 1 {
		t.Errorf("RandIndex(a,a) = %v, want 1", got)
	}
}

func TestRandIndexPermutationInvariant(t *testing.T) {
	a := []int32{0, 0, 1, 1, 2, 2}
	b := []int32{5, 5, 9, 9, 7, 7} // same partition, renamed
	if got := RandIndex(a, b); got != 1 {
		t.Errorf("renamed partition: RandIndex = %v, want 1", got)
	}
}

func TestRandIndexKnownValue(t *testing.T) {
	// Classic small example: a = {0,0,1,1}, b = {0,1,1,1}.
	// Pairs: (0,1) together in a, apart in b -> disagree.
	// (2,3) together in both. (0,2),(0,3),(1,2),(1,3): apart in a;
	// (1,2),(1,3) together in b -> disagree. Agreements = 3 of 6.
	a := []int32{0, 0, 1, 1}
	b := []int32{0, 1, 1, 1}
	if got := RandIndex(a, b); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("RandIndex = %v, want 0.5", got)
	}
}

func TestRandIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(60)
		a := make([]int32, n)
		b := make([]int32, n)
		for i := range a {
			a[i] = int32(rng.Intn(4)) - 1
			b[i] = int32(rng.Intn(4)) - 1
		}
		agree := 0
		pairs := 0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pairs++
				if (a[i] == a[j]) == (b[i] == b[j]) {
					agree++
				}
			}
		}
		want := float64(agree) / float64(pairs)
		if got := RandIndex(a, b); math.Abs(got-want) > 1e-9 {
			t.Fatalf("trial %d: RandIndex = %v, brute force = %v", trial, got, want)
		}
	}
}

func TestRandIndexBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(100)
		a := make([]int32, n)
		b := make([]int32, n)
		for i := range a {
			a[i] = int32(rng.Intn(6))
			b[i] = int32(rng.Intn(6))
		}
		ri := RandIndex(a, b)
		return ri >= 0 && ri <= 1 && RandIndex(a, b) == RandIndex(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAdjustedRandIndex(t *testing.T) {
	a := []int32{0, 0, 1, 1, 2, 2}
	if got := AdjustedRandIndex(a, a); got != 1 {
		t.Errorf("ARI(a,a) = %v, want 1", got)
	}
	// Independent labelings: ARI near 0 (can be slightly negative).
	rng := rand.New(rand.NewSource(2))
	n := 5000
	x := make([]int32, n)
	y := make([]int32, n)
	for i := range x {
		x[i] = int32(rng.Intn(5))
		y[i] = int32(rng.Intn(5))
	}
	if got := AdjustedRandIndex(x, y); math.Abs(got) > 0.05 {
		t.Errorf("ARI of independent labelings = %v, want ~0", got)
	}
	// ARI must be below RI for imperfect matches on skewed partitions.
	b := []int32{0, 0, 1, 1, 2, 0}
	if AdjustedRandIndex(a, b) >= RandIndex(a, b) {
		t.Error("ARI should not exceed RI here")
	}
}

func TestPurity(t *testing.T) {
	truth := []int32{0, 0, 0, 1, 1, 1}
	pred := []int32{5, 5, 5, 8, 8, 8}
	if got := Purity(truth, pred); got != 1 {
		t.Errorf("pure clustering purity = %v", got)
	}
	pred2 := []int32{5, 5, 8, 8, 8, 8}
	if got := Purity(truth, pred2); math.Abs(got-5.0/6) > 1e-12 {
		t.Errorf("purity = %v, want 5/6", got)
	}
	if got := Purity(nil, nil); got != 1 {
		t.Errorf("empty purity = %v", got)
	}
}

func TestMismatchedLengthsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"RandIndex":         func() { RandIndex([]int32{1}, []int32{1, 2}) },
		"AdjustedRandIndex": func() { AdjustedRandIndex([]int32{1}, []int32{1, 2}) },
		"Purity":            func() { Purity([]int32{1}, []int32{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: mismatched lengths did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestTinyInputs(t *testing.T) {
	if got := RandIndex([]int32{0}, []int32{5}); got != 1 {
		t.Errorf("single point RI = %v", got)
	}
	if got := AdjustedRandIndex(nil, nil); got != 1 {
		t.Errorf("empty ARI = %v", got)
	}
}

// garbage is overwritten in a loop so each allocation but the last is
// garbage the compiler cannot elide.
var garbage []byte

func TestMeasureMem(t *testing.T) {
	var sink [][]byte
	got := MeasureMem(func() {
		for i := 0; i < 64; i++ {
			sink = append(sink, make([]byte, 1<<20))
		}
	})
	if got.Retained < 32<<20 || got.Peak < got.Retained {
		t.Errorf("MeasureMem reported %+v for a retained 64MB allocation", got)
	}
	runtime.KeepAlive(sink)
	sink = nil
	// Garbage fn drops before it returns is collected, not counted as
	// retained — even when no automatic collection ran while fn did.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if got := MeasureMem(func() {
		for i := 0; i < 64; i++ {
			garbage = make([]byte, 1<<20)
		}
	}); got.Retained > 8<<20 {
		t.Errorf("MeasureMem reported %+v for 63MB of garbage and 1MB retained", got)
	}
	garbage = nil
	// A transient 64MB working buffer, dropped before fn returns, is the
	// peak but not retained; automatic collection is back on, so it may
	// be collected before fn ends.
	debug.SetGCPercent(100)
	got = MeasureMem(func() {
		work := make([]byte, 64<<20)
		for i := range work {
			work[i] = byte(i)
		}
		runtime.KeepAlive(work)
	})
	if got.Peak < 64<<20 || got.Retained > 8<<20 {
		t.Errorf("MeasureMem reported %+v for a transient 64MB buffer", got)
	}
	if FormatMB(64<<20) != "64.0" {
		t.Errorf("FormatMB = %q", FormatMB(64<<20))
	}
}
