package dist

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"hybridtree/internal/geom"
)

// slabDims straddles the 8-dimension block boundary of the slab kernels:
// below one block, exact multiples, and one dimension either side of them.
var slabDims = []int{1, 7, 8, 9, 15, 16, 17, 63, 64, 65}

// squaredMetrics returns every SquaredOK metric at dimension dim, the
// weighted one with weights drawn from rng.
func squaredMetrics(t testing.TB, rng *rand.Rand, dim int) []SquaredMetric {
	t.Helper()
	weights := make([]float64, dim)
	for d := range weights {
		weights[d] = rng.Float64() * 3
	}
	wlp, err := NewWeightedLp(2, weights)
	if err != nil {
		t.Fatal(err)
	}
	var out []SquaredMetric
	for _, m := range []Metric{L2(), LpMetric{P: 2}, wlp} {
		sqm, ok := AsSquared(m)
		if !ok {
			t.Fatalf("%s: expected squared support", m.Name())
		}
		out = append(out, sqm)
	}
	return out
}

// checkBoundedContract asserts the bounded-kernel contract for one point:
// got is DistanceSq bit for bit when that is <= bound, and > bound
// otherwise.
func checkBoundedContract(t *testing.T, what string, got, want, bound float64) {
	t.Helper()
	if want <= bound {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: bound %v: got %v, want exactly %v", what, bound, got, want)
		}
	} else if !(got > bound) {
		t.Fatalf("%s: bound %v: got %v, want > bound (exact %v)", what, bound, got, want)
	}
}

// checkSlabContract runs DistanceSqSlab and DistanceSqBounded over every
// point of slab at bound and checks both against DistanceSq.
func checkSlabContract(t *testing.T, sqm SquaredMetric, q geom.Point, slab []float32, dim int, bound float64) {
	t.Helper()
	n := len(slab) / dim
	out := make([]float64, n)
	sqm.DistanceSqSlab(q, slab, dim, bound, out)
	for i := 0; i < n; i++ {
		row := geom.Point(slab[i*dim : (i+1)*dim])
		want := sqm.DistanceSq(q, row)
		checkBoundedContract(t, sqm.Name()+" slab", out[i], want, bound)
		checkBoundedContract(t, sqm.Name()+" bounded", sqm.DistanceSqBounded(q, row, bound), want, bound)
	}
}

// TestDistanceSqSlabContract pins the slab kernel and the per-point bounded
// kernel to DistanceSq on every SquaredOK metric, at dimensions around the
// slab kernel's block size, for bounds that keep everything (+Inf), keep
// only exact matches (0), sit exactly on a point's distance or on one of
// its running sums (kept or continued: the abandonment test is strict) and
// fall at random.
func TestDistanceSqSlabContract(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n = 37
	for _, dim := range slabDims {
		q, _, _ := randPointRect(rng, dim)
		slab := make([]float32, n*dim)
		for i := 0; i < n; i++ {
			p, _, _ := randPointRect(rng, dim)
			copy(slab[i*dim:], p)
		}
		copy(slab[5*dim:], q) // distance 0: kept even at bound 0
		for _, sqm := range squaredMetrics(t, rng, dim) {
			bounds := []float64{math.Inf(1), 0}
			for _, i := range []int{0, n / 2, n - 1} {
				bounds = append(bounds, sqm.DistanceSq(q, geom.Point(slab[i*dim:(i+1)*dim])))
			}
			// A running sum of some point at every length: a partial sum
			// that lands exactly on the bound must not abandon that point.
			for k := 1; k < dim; k++ {
				row := slab[(k%n)*dim:]
				bounds = append(bounds, sqm.DistanceSq(q[:k], geom.Point(row[:k])))
			}
			for j := 0; j < 8; j++ {
				bounds = append(bounds, rng.Float64()*float64(dim)*100)
			}
			for _, bound := range bounds {
				checkSlabContract(t, sqm, q, slab, dim, bound)
			}
		}
	}
}

// FuzzDistanceSqSlab checks the same contract on fuzzed coordinates: raw
// supplies float32 bit patterns (non-finite ones read as 0), cycled to fill
// the query and slab; the bound is fuzzed directly and, in a second pass,
// set exactly to the first point's distance.
func FuzzDistanceSqSlab(f *testing.F) {
	seed := make([]byte, 4*64)
	for i := 0; i < len(seed); i += 4 {
		binary.LittleEndian.PutUint32(seed[i:], math.Float32bits(float32(i%17)/16))
	}
	f.Add(uint8(16), uint8(9), 1.5, seed)
	f.Add(uint8(64), uint8(3), 0.0, seed)
	f.Add(uint8(9), uint8(40), math.Inf(1), seed[:12])
	f.Fuzz(func(t *testing.T, dimB, nB uint8, bound float64, raw []byte) {
		if len(raw) < 4 || math.IsNaN(bound) {
			return
		}
		dim := 1 + int(dimB)%72
		n := 1 + int(nB)%48
		vals := make([]float32, (n+1)*dim)
		for i := range vals {
			off := (4 * i) % (len(raw) &^ 3)
			v := math.Float32frombits(binary.LittleEndian.Uint32(raw[off:]))
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				v = 0
			}
			vals[i] = v
		}
		q, slab := geom.Point(vals[:dim]), vals[dim:]
		rng := rand.New(rand.NewSource(int64(dimB)<<8 | int64(nB)))
		for _, sqm := range squaredMetrics(t, rng, dim) {
			checkSlabContract(t, sqm, q, slab, dim, bound)
			checkSlabContract(t, sqm, q, slab, dim, sqm.DistanceSq(q, geom.Point(slab[:dim])))
		}
	})
}
