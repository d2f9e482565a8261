package sim

import (
	"math"
	"testing"
)

func TestRNGDeterministicStreams(t *testing.T) {
	a := NewRNG(42, 1)
	b := NewRNG(42, 1)
	for i := 0; i < 1000; i++ {
		if a.Uint32() != b.Uint32() {
			t.Fatal("same (seed, stream) must produce identical sequences")
		}
	}
	c := NewRNG(42, 2)
	same := 0
	d := NewRNG(42, 1)
	for i := 0; i < 1000; i++ {
		if c.Uint32() == d.Uint32() {
			same++
		}
	}
	if same > 10 {
		t.Errorf("distinct streams look correlated: %d/1000 collisions", same)
	}
}

func TestIntnBoundsAndUniformity(t *testing.T) {
	r := NewRNG(7, 3)
	counts := make([]int, 10)
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for d, c := range counts {
		if math.Abs(float64(c)-draws/10) > draws/10*0.1 {
			t.Errorf("digit %d count %d deviates from uniform", d, c)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	r.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(1, 1)
	var sum float64
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / 100000; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v far from 0.5", mean)
	}
}

func TestGeometricMean(t *testing.T) {
	r := NewRNG(5, 9)
	const p = 0.25
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += float64(r.Geometric(p))
	}
	if mean := sum / n; math.Abs(mean-1/p) > 0.15 {
		t.Errorf("geometric mean %v, want ~%v", mean, 1/p)
	}
	if NewRNG(1, 1).Geometric(1.5) != 1 {
		t.Error("p >= 1 should return 1")
	}
}

func TestExpMean(t *testing.T) {
	r := NewRNG(8, 2)
	var sum float64
	const n = 50000
	for i := 0; i < n; i++ {
		sum += r.Exp(10)
	}
	if mean := sum / n; math.Abs(mean-10) > 0.5 {
		t.Errorf("exp mean %v, want ~10", mean)
	}
}
