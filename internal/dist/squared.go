package dist

import (
	"hybridtree/internal/geom"
)

// SquaredMetric is the sqrt-free fast path for metrics of the form
// Distance = sqrt(S) with S an additive, per-dimension non-negative sum
// (L2 and its weighted variant). Because sqrt is monotone, range and k-NN
// searches can compare squared distances against squared bounds end-to-end
// and take a single square root per *reported* result instead of one per
// candidate. The additivity also enables partial-distance early abandonment:
// the bounded forms stop accumulating once the running sum exceeds the
// caller's pruning bound, the standard kernel trick for high-dimensional
// leaf scans.
//
// Contracts, for instances whose SquaredOK reports true:
//
//   - Distance(a, b) == math.Sqrt(DistanceSq(a, b)), bit-identical: the
//     squared form must accumulate in the same order as Distance.
//   - MinDistRect(q, r) == math.Sqrt(MinDistRectSq(q, r)), likewise.
//   - DistanceSqBounded(a, b, bound) returns DistanceSq(a, b) whenever that
//     value is <= bound; otherwise it may return any value > bound.
//   - DistanceSqSlab(q, slab, dim, bound, out) sets, for every point i of
//     the slab, out[i] = DistanceSq(q, slab[i*dim:(i+1)*dim]) whenever that
//     value is <= bound, and otherwise some partial sum > bound. The caller
//     guarantees len(q) == dim and len(out) >= len(slab)/dim.
//
// Use AsSquared to detect support: a type can implement the methods
// unconditionally (LpMetric does, for all P) while only vouching for them on
// the instances where the algebra holds (P == 2).
type SquaredMetric interface {
	Metric
	// SquaredOK reports whether the squared forms are valid for this
	// instance (e.g. an LpMetric only when P == 2).
	SquaredOK() bool
	// DistanceSq is the squared distance, accumulated exactly as Distance
	// accumulates it.
	DistanceSq(a, b geom.Point) float64
	// DistanceSqBounded is DistanceSq with partial-distance early
	// abandonment, tested after every dimension: once the running sum
	// strictly exceeds bound the scan stops and the partial sum is
	// returned. The result is exact whenever it is <= bound.
	DistanceSqBounded(a, b geom.Point, bound float64) float64
	// DistanceSqSlab is the batch leaf-scan kernel: the bounded squared
	// distance from q to every point of a flat coordinate slab (n points
	// stored contiguously as slab[i*dim:(i+1)*dim]), written to out[i].
	// Abandonment is tested once per block of dimensions (see slab.go).
	DistanceSqSlab(q geom.Point, slab []float32, dim int, bound float64, out []float64)
	// MinDistRectSq is the squared MINDIST lower bound.
	MinDistRectSq(q geom.Point, r geom.Rect) float64
}

// AsSquared reports whether m supports the squared-distance fast path and
// returns its SquaredMetric view when it does.
func AsSquared(m Metric) (SquaredMetric, bool) {
	if s, ok := m.(SquaredMetric); ok && s.SquaredOK() {
		return s, true
	}
	return nil, false
}

// SquaredOK implements SquaredMetric.
func (euclidean) SquaredOK() bool { return true }

// DistanceSq implements SquaredMetric.
func (euclidean) DistanceSq(a, b geom.Point) float64 {
	s := 0.0
	for d := range a {
		dv := float64(a[d]) - float64(b[d])
		s += dv * dv
	}
	return s
}

// DistanceSqBounded implements SquaredMetric.
func (euclidean) DistanceSqBounded(a, b geom.Point, bound float64) float64 {
	s := 0.0
	for d := range a {
		dv := float64(a[d]) - float64(b[d])
		s += dv * dv
		if s > bound {
			return s
		}
	}
	return s
}

// MinDistRectSq implements SquaredMetric.
func (euclidean) MinDistRectSq(q geom.Point, r geom.Rect) float64 {
	s := 0.0
	for d := range q {
		g := axisGap(q[d], r.Lo[d], r.Hi[d])
		s += g * g
	}
	return s
}

// SquaredOK implements SquaredMetric: the squared forms are valid for the
// Euclidean member of the family only.
func (m LpMetric) SquaredOK() bool { return m.P == 2 }

// DistanceSq implements SquaredMetric (valid when P == 2).
func (m LpMetric) DistanceSq(a, b geom.Point) float64 {
	return euclidean{}.DistanceSq(a, b)
}

// DistanceSqBounded implements SquaredMetric (valid when P == 2).
func (m LpMetric) DistanceSqBounded(a, b geom.Point, bound float64) float64 {
	return euclidean{}.DistanceSqBounded(a, b, bound)
}

// MinDistRectSq implements SquaredMetric (valid when P == 2).
func (m LpMetric) MinDistRectSq(q geom.Point, r geom.Rect) float64 {
	return euclidean{}.MinDistRectSq(q, r)
}

// SquaredOK implements SquaredMetric: valid for weighted Euclidean only.
// Weights are non-negative by construction, so the partial sums stay
// monotone and early abandonment remains sound.
func (m WeightedLp) SquaredOK() bool { return m.P == 2 }

// DistanceSq implements SquaredMetric (valid when P == 2).
func (m WeightedLp) DistanceSq(a, b geom.Point) float64 {
	s := 0.0
	for d := range a {
		dv := float64(a[d]) - float64(b[d])
		s += m.Weights[d] * (dv * dv)
	}
	return s
}

// DistanceSqBounded implements SquaredMetric (valid when P == 2).
func (m WeightedLp) DistanceSqBounded(a, b geom.Point, bound float64) float64 {
	s := 0.0
	for d := range a {
		dv := float64(a[d]) - float64(b[d])
		s += m.Weights[d] * (dv * dv)
		if s > bound {
			return s
		}
	}
	return s
}

// MinDistRectSq implements SquaredMetric (valid when P == 2).
func (m WeightedLp) MinDistRectSq(q geom.Point, r geom.Rect) float64 {
	s := 0.0
	for d := range q {
		g := axisGap(q[d], r.Lo[d], r.Hi[d])
		s += m.Weights[d] * (g * g)
	}
	return s
}
