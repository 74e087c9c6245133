package stats

import (
	"math"
	"testing"
)

func TestGiniDegenerateInputs(t *testing.T) {
	if g := Gini(nil); g != 0 {
		t.Fatalf("Gini(nil) = %v, want 0", g)
	}
	if g := Gini([]float64{7}); g != 0 {
		t.Fatalf("Gini(single) = %v, want 0", g)
	}
	if g := Gini([]float64{0, 0, 0, 0}); g != 0 {
		t.Fatalf("Gini(all zero) = %v, want 0", g)
	}
}

func TestGiniUniform(t *testing.T) {
	for _, n := range []int{2, 3, 16, 64} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = 42.5
		}
		if g := Gini(xs); math.Abs(g) > 1e-12 {
			t.Fatalf("Gini(%d equal values) = %v, want 0", n, g)
		}
	}
}

func TestGiniDominance(t *testing.T) {
	// One worker holding everything: the coefficient is (n-1)/n, which
	// approaches 1 as n grows.
	for _, n := range []int{2, 4, 10, 100} {
		xs := make([]float64, n)
		xs[0] = 1000
		want := float64(n-1) / float64(n)
		if g := Gini(xs); math.Abs(g-want) > 1e-12 {
			t.Fatalf("Gini(1 of %d dominates) = %v, want %v", n, g, want)
		}
	}
}

func TestGiniKnownValues(t *testing.T) {
	// Hand-computed from the mean-absolute-difference definition:
	// G = sum_ij |xi-xj| / (2 n^2 mean).
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 3}, 0.25},
		{[]float64{0, 1}, 0.5},
		{[]float64{1, 2, 3, 4}, 0.25},
		{[]float64{2, 2, 2, 10}, 0.375},
	}
	for _, c := range cases {
		if g := Gini(c.xs); math.Abs(g-c.want) > 1e-12 {
			t.Fatalf("Gini(%v) = %v, want %v", c.xs, g, c.want)
		}
	}
}

func TestGiniOrderInvariantAndNonMutating(t *testing.T) {
	a := []float64{5, 1, 9, 3}
	b := []float64{9, 3, 5, 1}
	if ga, gb := Gini(a), Gini(b); ga != gb {
		t.Fatalf("Gini depends on order: %v vs %v", ga, gb)
	}
	if a[0] != 5 || a[3] != 3 {
		t.Fatalf("Gini mutated its input: %v", a)
	}
}

func TestGiniStarvedWorkerVisible(t *testing.T) {
	// The reason gcstats balance carries Gini next to max/mean: a starved worker is
	// a min-side outlier, invisible to max/mean but not to Gini.
	even := []float64{100, 100, 100, 100}
	starved := []float64{100, 100, 100, 0}
	skew := func(xs []float64) float64 {
		var sum, max float64
		for _, v := range xs {
			sum += v
			if v > max {
				max = v
			}
		}
		return max / (sum / float64(len(xs)))
	}
	if s := skew(starved); s > 1.34 {
		t.Fatalf("test premise broken: max/mean %v should barely move", s)
	}
	if ge, gs := Gini(even), Gini(starved); gs <= ge+0.2 {
		t.Fatalf("Gini did not expose the starved worker: even %v starved %v", ge, gs)
	}
}

func TestGiniNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Gini accepted a negative value")
		}
	}()
	Gini([]float64{3, -1, 2})
}

func TestQuantileRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("QuantilesF accepted p outside [0,1]")
		}
	}()
	QuantilesF([]float64{1, 2, 3}, 1.5)
}
