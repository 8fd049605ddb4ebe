package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDist(t *testing.T) {
	tests := []struct {
		a, b Point
		want float64
	}{
		{Point{0, 0}, Point{3, 4}, 5},
		{Point{1}, Point{1}, 0},
		{Point{-1, -1}, Point{1, 1}, 2 * math.Sqrt2},
		{Point{0, 0, 0, 0}, Point{1, 1, 1, 1}, 2},
	}
	for _, tt := range tests {
		if got := Dist(tt.a, tt.b); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("Dist(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestSqDistPartial(t *testing.T) {
	a := Point{0, 0, 0}
	b := Point{1, 1, 1}
	if s, ok := SqDistPartial(a, b, 3); !ok || s != 3 {
		t.Errorf("SqDistPartial within limit: got (%v,%v), want (3,true)", s, ok)
	}
	if _, ok := SqDistPartial(a, b, 2.9); ok {
		t.Errorf("SqDistPartial should abandon when sum exceeds limit")
	}
	// Early abandon must never claim in-range for an out-of-range pair.
	if _, ok := SqDistPartial(Point{0, 0}, Point{10, 0}, 99); ok {
		t.Errorf("SqDistPartial accepted out-of-range pair")
	}
}

func TestDistSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if anyBad(ax, ay, bx, by) {
			return true
		}
		a, b := Point{ax, ay}, Point{bx, by}
		return Dist(a, b) == Dist(b, a) && Dist(a, a) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		d := 1 + rng.Intn(6)
		a, b, c := randPt(rng, d), randPt(rng, d), randPt(rng, d)
		if Dist(a, c) > Dist(a, b)+Dist(b, c)+1e-9 {
			t.Fatalf("triangle inequality violated: a=%v b=%v c=%v", a, b, c)
		}
	}
}

func anyBad(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
			return true
		}
	}
	return false
}

func randPt(rng *rand.Rand, d int) Point {
	p := make(Point, d)
	for i := range p {
		p[i] = rng.Float64()*200 - 100
	}
	return p
}

func TestRectContains(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{10, 10})
	if !r.Contains(Point{5, 5}) || !r.Contains(Point{0, 0}) || !r.Contains(Point{10, 10}) {
		t.Error("Contains should be inclusive")
	}
	if r.Contains(Point{10.001, 5}) || r.Contains(Point{-0.1, 5}) {
		t.Error("Contains accepted an outside point")
	}
}

func TestRectExpand(t *testing.T) {
	r := EmptyRect(2)
	r.Expand(Point{3, 4})
	r.Expand(Point{-1, 10})
	want := NewRect(Point{-1, 4}, Point{3, 10})
	if !Equal(r.Lo, want.Lo) || !Equal(r.Up, want.Up) {
		t.Errorf("Expand = %v, want %v", r, want)
	}
	var s Rect = EmptyRect(2)
	s.ExpandRect(r)
	if !Equal(s.Lo, want.Lo) || !Equal(s.Up, want.Up) {
		t.Errorf("ExpandRect = %v, want %v", s, want)
	}
}

func TestSqMinDist(t *testing.T) {
	r := NewRect(Point{0, 0}, Point{2, 2})
	tests := []struct {
		p   Point
		min float64
	}{
		{Point{1, 1}, 0},   // inside
		{Point{3, 1}, 1},   // right of the box
		{Point{-1, -1}, 2}, // off a corner
	}
	for i, tt := range tests {
		if got := r.SqMinDist(tt.p); math.Abs(got-tt.min) > 1e-12 {
			t.Errorf("case %d: SqMinDist = %v, want %v", i, got, tt.min)
		}
	}
}

func TestSqMinDistBoundsProperty(t *testing.T) {
	// For random rects and points, every point inside the rect must be at
	// least SqMinDist away from the query.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		d := 1 + rng.Intn(5)
		a, b := randPt(rng, d), randPt(rng, d)
		r := EmptyRect(d)
		r.Expand(a)
		r.Expand(b)
		q := randPt(rng, d)
		// Random point inside the rect.
		in := make(Point, d)
		for j := 0; j < d; j++ {
			in[j] = r.Lo[j] + rng.Float64()*(r.Up[j]-r.Lo[j])
		}
		sq := SqDist(q, in)
		if sq < r.SqMinDist(q)-1e-9 {
			t.Fatalf("SqMinDist too large: %v > %v", r.SqMinDist(q), sq)
		}
	}
}

func TestBounds(t *testing.T) {
	pts := []Point{{1, 2}, {-3, 8}, {5, 0}}
	r := Bounds(pts)
	if !Equal(r.Lo, Point{-3, 0}) || !Equal(r.Up, Point{5, 8}) {
		t.Errorf("Bounds = %v", r)
	}
	for _, p := range pts {
		if !r.Contains(p) {
			t.Errorf("Bounds does not contain %v", p)
		}
	}
}

func TestClone(t *testing.T) {
	p := Point{1, 2}
	q := Clone(p)
	q[0] = 9
	if p[0] != 1 {
		t.Error("Clone aliases its input")
	}
}

func TestContainsRect(t *testing.T) {
	outer := NewRect(Point{0, 0}, Point{10, 10})
	if !outer.ContainsRect(NewRect(Point{1, 1}, Point{9, 9})) {
		t.Error("inner rect should be contained")
	}
	if outer.ContainsRect(NewRect(Point{1, 1}, Point{11, 9})) {
		t.Error("overflowing rect should not be contained")
	}
}
