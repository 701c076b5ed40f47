package bench

import (
	"math"
	"os"
	"testing"

	"hybridtree/internal/geom"
)

// leafDim/leafCount size the benchmark leaf like a real 4K data page at 16
// dimensions: 4096/(8+4*16) ≈ 56 entries.
const (
	leafDim     = 16
	leafEntries = 56
)

func leafFixture(t testing.TB) (geom.Point, *LegacyLeaf, *SlabLeaf) {
	t.Helper()
	page := EncodeLeafPage(leafDim, leafEntries, 99)
	legacy, err := DecodeLegacyLeaf(page, leafDim)
	if err != nil {
		t.Fatal(err)
	}
	slab, err := DecodeSlabLeaf(page, leafDim)
	if err != nil {
		t.Fatal(err)
	}
	q := make(geom.Point, leafDim)
	for d := range q {
		q[d] = 0.5
	}
	return q, legacy, slab
}

// TestLeafScanLayoutsAgree pins the two decoders and the two scan loops to
// each other: same points, same rids, same best distance and same
// within-bound count at several bounds (including one that triggers early
// abandonment on most entries).
func TestLeafScanLayoutsAgree(t *testing.T) {
	q, legacy, slab := leafFixture(t)
	if len(legacy.Pts) != leafEntries || len(slab.Rids) != leafEntries {
		t.Fatalf("decoded %d / %d entries, want %d", len(legacy.Pts), len(slab.Rids), leafEntries)
	}
	for i := range legacy.Pts {
		if legacy.Rids[i] != slab.Rids[i] {
			t.Fatalf("entry %d: rid %d vs %d", i, legacy.Rids[i], slab.Rids[i])
		}
		for d := 0; d < leafDim; d++ {
			if legacy.Pts[i][d] != slab.Vals[i*leafDim+d] {
				t.Fatalf("entry %d dim %d: %v vs %v", i, d, legacy.Pts[i][d], slab.Vals[i*leafDim+d])
			}
		}
	}
	out := make([]float64, leafEntries)
	for _, bound := range []float64{math.Inf(1), leafLooseBound, 0.4, leafTightBound} {
		lBest, lWithin := ScanLegacyKNN(q, legacy, bound)
		sBest, sWithin := ScanSlabKNN(q, slab, bound, out)
		if lBest != sBest || lWithin != sWithin {
			t.Fatalf("bound %v: legacy (%v, %d) vs slab (%v, %d)", bound, lBest, lWithin, sBest, sWithin)
		}
	}
}

// TestLeafScanGate is the CI regression gate for the slab layout: on the
// same machine, in the same process, the slab k-NN leaf scan must not be
// slower than the legacy per-point scan (with a generous tolerance for
// shared-runner noise). Timing-sensitive, so it only runs when LEAF_GATE=1.
func TestLeafScanGate(t *testing.T) {
	if os.Getenv("LEAF_GATE") != "1" {
		t.Skip("set LEAF_GATE=1 to run the leaf-scan layout gate")
	}
	q, legacy, slab := leafFixture(t)
	out := make([]float64, leafEntries)
	const bound = leafLooseBound

	legacyRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ScanLegacyKNN(q, legacy, bound)
		}
	})
	slabRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ScanSlabKNN(q, slab, bound, out)
		}
	})
	t.Logf("legacy %v/op, slab %v/op", legacyRes.NsPerOp(), slabRes.NsPerOp())
	// 1.25x headroom: the gate catches real regressions (the slab kernel
	// falling off its fast path), not scheduler jitter.
	if float64(slabRes.NsPerOp()) > 1.25*float64(legacyRes.NsPerOp()) {
		t.Fatalf("slab scan %d ns/op slower than legacy %d ns/op", slabRes.NsPerOp(), legacyRes.NsPerOp())
	}
}

// Leaf-scan benchmark bounds. At leafLooseBound almost no entry is
// abandoned; at leafTightBound most are abandoned a few dimensions in, the
// regime a k-NN search runs in once its k-th best distance has settled.
const (
	leafLooseBound = 1.5
	leafTightBound = 0.05
)

// BenchmarkLeafScanLegacy / BenchmarkLeafScanSlab measure the k-NN-style
// bounded scan over one decoded leaf in each layout; the Tight variants
// repeat them at leafTightBound.
func BenchmarkLeafScanLegacy(b *testing.B) { benchLeafScanLegacy(b, leafLooseBound) }

func BenchmarkLeafScanSlab(b *testing.B) { benchLeafScanSlab(b, leafLooseBound) }

func BenchmarkLeafScanLegacyTight(b *testing.B) { benchLeafScanLegacy(b, leafTightBound) }

func BenchmarkLeafScanSlabTight(b *testing.B) { benchLeafScanSlab(b, leafTightBound) }

func benchLeafScanLegacy(b *testing.B, bound float64) {
	q, legacy, _ := leafFixture(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScanLegacyKNN(q, legacy, bound)
	}
}

func benchLeafScanSlab(b *testing.B, bound float64) {
	q, _, slab := leafFixture(b)
	out := make([]float64, leafEntries)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ScanSlabKNN(q, slab, bound, out)
	}
}

// BenchmarkLeafDecodeLegacy / BenchmarkLeafDecodeSlab measure the page →
// in-memory decode in each layout; the slab does two allocations total where
// the legacy path does one per entry.
func BenchmarkLeafDecodeLegacy(b *testing.B) {
	page := EncodeLeafPage(leafDim, leafEntries, 99)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeLegacyLeaf(page, leafDim); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLeafDecodeSlab(b *testing.B) {
	page := EncodeLeafPage(leafDim, leafEntries, 99)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeSlabLeaf(page, leafDim); err != nil {
			b.Fatal(err)
		}
	}
}
