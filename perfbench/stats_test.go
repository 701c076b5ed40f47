package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestQuantileUniform(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 50.5}, {0.99, 99.01}, {1, 100},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample: got %g, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty sample: got %g, want NaN", got)
	}
}

// An exponential distribution's quantiles are known in closed form:
// q(p) = -ln(1-p) for rate 1.
func TestQuantileExponential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 200000)
	for i := range xs {
		xs[i] = rng.ExpFloat64()
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		want := -math.Log(1 - p)
		if got := quantile(xs, p); math.Abs(got-want)/want > 0.03 {
			t.Errorf("exponential p%g = %g, want %g ± 3%%", p*100, got, want)
		}
	}
}

// A failed request counts as missing every latency limit: once failures
// reach a percentile, that percentile is unbounded.
func TestQuantileCountsFailuresAsUnbounded(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 1
	}
	xs[3] = math.Inf(1)
	if got := quantile(xs, 0.5); got != 1 {
		t.Errorf("p50 with 1%% failures = %g, want 1", got)
	}
	if got := quantile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 1%% failures = %g, want +Inf", got)
	}
}
