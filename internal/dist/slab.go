package dist

import (
	"hybridtree/internal/geom"
)

// The slab kernels are the hybrid tree's leaf-scan inner loop: n points
// stored contiguously as slab[i*dim:(i+1)*dim], the layout data nodes decode
// pages into, scanned in one linear pass with no per-point slice headers or
// interface calls (see SquaredMetric.DistanceSqSlab for the contract).
//
// Partial-distance abandonment is tested once per slabBlock dimensions, not
// after every term. In k-NN a point is typically abandoned a few dimensions
// in (about 4.6 of 16 on FOURIER), so a per-dimension test costs one
// hard-to-predict loop exit per point; the per-block test is a single
// branch that is mostly taken the same way, and its extra terms are cheap
// independent subtract-multiplies. The sum still accumulates term by term
// in dimension order, so an accepted value is bit-identical to DistanceSq,
// and an abandoned one is a partial sum taken at a block boundary. The
// check repeats every block: finishing all survivors of the first block
// without further checks loses on wide (64-d) range scans. The kernels
// below unroll exactly slabBlock terms by hand.
const slabBlock = 8

// FilterBoxSlab appends to hits the index of every slab point contained in
// the box [lo, hi], scanning linearly in point order. Containment matches
// geom.Rect.Contains exactly: a point is out when any coordinate is < lo[d]
// or > hi[d] (boundaries inclusive, NaN coordinates excluded by the same
// comparisons).
func FilterBoxSlab(lo, hi geom.Point, slab []float32, dim int, hits []int32) []int32 {
	n := len(slab) / dim
	for i := 0; i < n; i++ {
		row := slab[i*dim : (i+1)*dim]
		in := true
		for d := 0; d < dim; d++ {
			if row[d] < lo[d] || row[d] > hi[d] {
				in = false
				break
			}
		}
		if in {
			hits = append(hits, int32(i))
		}
	}
	return hits
}

// DistanceSqSlab implements SquaredMetric.
func (euclidean) DistanceSqSlab(q geom.Point, slab []float32, dim int, bound float64, out []float64) {
	q = q[:dim]
	blocks := dim &^ (slabBlock - 1)
	out = out[:len(slab)/dim]
	for i := range out {
		row := slab[i*dim : (i+1)*dim]
		s := 0.0
		d := 0
		for ; d < blocks; d += slabBlock {
			a, b := q[d:d+slabBlock], row[d:d+slabBlock]
			d0 := float64(a[0]) - float64(b[0])
			s += d0 * d0
			d1 := float64(a[1]) - float64(b[1])
			s += d1 * d1
			d2 := float64(a[2]) - float64(b[2])
			s += d2 * d2
			d3 := float64(a[3]) - float64(b[3])
			s += d3 * d3
			d4 := float64(a[4]) - float64(b[4])
			s += d4 * d4
			d5 := float64(a[5]) - float64(b[5])
			s += d5 * d5
			d6 := float64(a[6]) - float64(b[6])
			s += d6 * d6
			d7 := float64(a[7]) - float64(b[7])
			s += d7 * d7
			if s > bound {
				break
			}
		}
		if d == blocks {
			b := row[blocks:]
			a := q[blocks : blocks+len(b)]
			for j := range b {
				dv := float64(a[j]) - float64(b[j])
				s += dv * dv
			}
		}
		out[i] = s
	}
}

// DistanceSqSlab implements SquaredMetric (valid when P == 2).
func (m LpMetric) DistanceSqSlab(q geom.Point, slab []float32, dim int, bound float64, out []float64) {
	euclidean{}.DistanceSqSlab(q, slab, dim, bound, out)
}

// DistanceSqSlab implements SquaredMetric (valid when P == 2). It is the
// Euclidean kernel with each term scaled by its weight before it is added,
// exactly as DistanceSq adds it.
func (m WeightedLp) DistanceSqSlab(q geom.Point, slab []float32, dim int, bound float64, out []float64) {
	q = q[:dim]
	w := m.Weights[:dim]
	blocks := dim &^ (slabBlock - 1)
	out = out[:len(slab)/dim]
	for i := range out {
		row := slab[i*dim : (i+1)*dim]
		s := 0.0
		d := 0
		for ; d < blocks; d += slabBlock {
			a, b, c := q[d:d+slabBlock], row[d:d+slabBlock], w[d:d+slabBlock]
			d0 := float64(a[0]) - float64(b[0])
			s += c[0] * (d0 * d0)
			d1 := float64(a[1]) - float64(b[1])
			s += c[1] * (d1 * d1)
			d2 := float64(a[2]) - float64(b[2])
			s += c[2] * (d2 * d2)
			d3 := float64(a[3]) - float64(b[3])
			s += c[3] * (d3 * d3)
			d4 := float64(a[4]) - float64(b[4])
			s += c[4] * (d4 * d4)
			d5 := float64(a[5]) - float64(b[5])
			s += c[5] * (d5 * d5)
			d6 := float64(a[6]) - float64(b[6])
			s += c[6] * (d6 * d6)
			d7 := float64(a[7]) - float64(b[7])
			s += c[7] * (d7 * d7)
			if s > bound {
				break
			}
		}
		if d == blocks {
			b := row[blocks:]
			a, c := q[blocks:blocks+len(b)], w[blocks:blocks+len(b)]
			for j := range b {
				dv := float64(a[j]) - float64(b[j])
				s += c[j] * (dv * dv)
			}
		}
		out[i] = s
	}
}
