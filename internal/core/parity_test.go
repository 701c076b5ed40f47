package core

import (
	"math/rand"
	"reflect"
	"testing"

	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/pqueue"
)

// This file pins the iterative, arena-based query path against the original
// recursive implementation, kept below as reference code (refBoxAt &c. are
// verbatim copies of the pre-rewrite traversals, Clone()s and all). On a
// fixed workload the rewrite must return byte-identical result slices in the
// same order AND charge exactly the same number of node accesses to the
// file's Stats — it is a memory-behavior change only.

func (t *Tree) refSearchBox(q geom.Rect) ([]Entry, error) {
	var out []Entry
	err := t.refBoxAt(t.root, t.cfg.Space, q, &out)
	return out, err
}

func (t *Tree) refBoxAt(id pagefile.PageID, br geom.Rect, q geom.Rect, out *[]Entry) error {
	n, err := t.store.get(id)
	if err != nil {
		return err
	}
	if n.leaf {
		for i := range n.rids {
			if p := n.point(i); q.Contains(p) {
				*out = append(*out, Entry{Point: p, RID: n.rids[i]})
			}
		}
		return nil
	}
	if n.kdRoot == kdNone {
		return nil
	}
	type visit struct {
		child pagefile.PageID
		br    geom.Rect
	}
	var visits []visit
	brWalk := br.Clone()
	var walk func(idx int32)
	walk = func(idx int32) {
		k := &n.kd[idx]
		if k.isLeaf() {
			live, ok := t.els.Get(uint32(k.Child), t.cfg.Space)
			if ok && !live.Intersects(q) {
				return
			}
			visits = append(visits, visit{child: k.Child, br: brWalk.Clone()})
			return
		}
		d := int(k.Dim)
		oldHi := brWalk.Hi[d]
		if k.Lsp < oldHi {
			brWalk.Hi[d] = k.Lsp
		}
		if q.Lo[d] <= brWalk.Hi[d] && brWalk.Hi[d] >= brWalk.Lo[d] {
			walk(k.Left)
		}
		brWalk.Hi[d] = oldHi
		oldLo := brWalk.Lo[d]
		if k.Rsp > oldLo {
			brWalk.Lo[d] = k.Rsp
		}
		if q.Hi[d] >= brWalk.Lo[d] && brWalk.Hi[d] >= brWalk.Lo[d] {
			walk(k.Right)
		}
		brWalk.Lo[d] = oldLo
	}
	walk(n.kdRoot)
	for _, v := range visits {
		if err := t.refBoxAt(v.child, v.br, q, out); err != nil {
			return err
		}
	}
	return nil
}

func (t *Tree) refSearchRange(q geom.Point, radius float64, m dist.Metric) ([]Neighbor, error) {
	var out []Neighbor
	err := t.refRangeAt(t.root, t.cfg.Space, q, radius, m, &out)
	return out, err
}

func (t *Tree) refRangeAt(id pagefile.PageID, br geom.Rect, q geom.Point, radius float64, m dist.Metric, out *[]Neighbor) error {
	n, err := t.store.get(id)
	if err != nil {
		return err
	}
	if n.leaf {
		for i := range n.rids {
			p := n.point(i)
			if d := m.Distance(q, p); d <= radius {
				*out = append(*out, Neighbor{Entry: Entry{Point: p, RID: n.rids[i]}, Dist: d})
			}
		}
		return nil
	}
	type visit struct {
		child pagefile.PageID
		br    geom.Rect
	}
	var visits []visit
	brWalk := br.Clone()
	scratch := geom.Rect{Lo: make(geom.Point, t.cfg.Dim), Hi: make(geom.Point, t.cfg.Dim)}
	var walk func(idx int32)
	walk = func(idx int32) {
		k := &n.kd[idx]
		if k.isLeaf() {
			lb := 0.0
			if live, ok := t.els.Get(uint32(k.Child), t.cfg.Space); ok {
				if !intersectInto(&scratch, brWalk, live) {
					return
				}
				lb = m.MinDistRect(q, scratch)
			} else {
				lb = m.MinDistRect(q, brWalk)
			}
			if lb <= radius {
				visits = append(visits, visit{child: k.Child, br: brWalk.Clone()})
			}
			return
		}
		d := int(k.Dim)
		oldHi := brWalk.Hi[d]
		if k.Lsp < oldHi {
			brWalk.Hi[d] = k.Lsp
		}
		if brWalk.Hi[d] >= brWalk.Lo[d] {
			walk(k.Left)
		}
		brWalk.Hi[d] = oldHi
		oldLo := brWalk.Lo[d]
		if k.Rsp > oldLo {
			brWalk.Lo[d] = k.Rsp
		}
		if brWalk.Hi[d] >= brWalk.Lo[d] {
			walk(k.Right)
		}
		brWalk.Lo[d] = oldLo
	}
	if n.kdRoot != kdNone {
		walk(n.kdRoot)
	}
	for _, v := range visits {
		if err := t.refRangeAt(v.child, v.br, q, radius, m, out); err != nil {
			return err
		}
	}
	return nil
}

func (t *Tree) refSearchKNN(q geom.Point, k int, m dist.Metric) ([]Neighbor, error) {
	type frontier struct {
		id pagefile.PageID
		br geom.Rect
	}
	var pq pqueue.Min[frontier]
	best := pqueue.NewKBest[Neighbor](k)

	rootBR := t.cfg.Space
	pq.Push(frontier{id: t.root, br: rootBR}, 0)
	for pq.Len() > 0 {
		f, mindist := pq.Pop()
		if best.Full() && mindist > best.Bound() {
			break
		}
		n, err := t.store.get(f.id)
		if err != nil {
			return nil, err
		}
		if n.leaf {
			for i := range n.rids {
				p := n.point(i)
				d := m.Distance(q, p)
				best.Offer(Neighbor{Entry: Entry{Point: p, RID: n.rids[i]}, Dist: d}, d)
			}
			continue
		}
		brWalk := f.br.Clone()
		scratch := geom.Rect{Lo: make(geom.Point, t.cfg.Dim), Hi: make(geom.Point, t.cfg.Dim)}
		var walk func(idx int32)
		walk = func(idx int32) {
			k2 := &n.kd[idx]
			if k2.isLeaf() {
				var md float64
				if live, ok := t.els.Get(uint32(k2.Child), t.cfg.Space); ok {
					if !intersectInto(&scratch, brWalk, live) {
						return
					}
					md = m.MinDistRect(q, scratch)
				} else {
					md = m.MinDistRect(q, brWalk)
				}
				if !best.Full() || md <= best.Bound() {
					pq.Push(frontier{id: k2.Child, br: brWalk.Clone()}, md)
				}
				return
			}
			d := int(k2.Dim)
			oldHi := brWalk.Hi[d]
			if k2.Lsp < oldHi {
				brWalk.Hi[d] = k2.Lsp
			}
			if brWalk.Hi[d] >= brWalk.Lo[d] {
				walk(k2.Left)
			}
			brWalk.Hi[d] = oldHi
			oldLo := brWalk.Lo[d]
			if k2.Rsp > oldLo {
				brWalk.Lo[d] = k2.Rsp
			}
			if brWalk.Hi[d] >= brWalk.Lo[d] {
				walk(k2.Right)
			}
			brWalk.Lo[d] = oldLo
		}
		if n.kdRoot != kdNone {
			walk(n.kdRoot)
		}
	}
	neighbors, _ := best.Sorted()
	return neighbors, nil
}

func parityTree(t *testing.T, n, dim int, seed int64) (*Tree, []geom.Point, *pagefile.Stats) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	file := pagefile.NewMemFile(pagefile.DefaultPageSize)
	tree, err := New(file, Config{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		p := make(geom.Point, dim)
		for d := range p {
			p[d] = rng.Float32()
		}
		pts[i] = p
		if err := tree.Insert(p, RecordID(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tree, pts, file.Stats()
}

// reads runs fn and returns how many node accesses it charged.
func reads(t *testing.T, st *pagefile.Stats, fn func() error) uint64 {
	t.Helper()
	before := st.RandomReads
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return st.RandomReads - before
}

func TestSearchParityWithSeed(t *testing.T) {
	tree, pts, st := parityTree(t, 6000, 12, 41)
	rng := rand.New(rand.NewSource(42))
	w := make([]float64, 12)
	for i := range w {
		w[i] = 1 + rng.Float64()
	}
	wlp, err := dist.NewWeightedLp(2, w)
	if err != nil {
		t.Fatal(err)
	}
	metrics := []dist.Metric{dist.L1(), dist.L2(), dist.LpMetric{P: 2}, dist.Linf(), wlp}
	c := NewQueryContext()

	for qi := 0; qi < 30; qi++ {
		box := randQueryRect(rng, 12, 0.5)
		var want []Entry
		wantReads := reads(t, st, func() error { var e error; want, e = tree.refSearchBox(box); return e })
		var got []Entry
		gotReads := reads(t, st, func() error { var e error; got, e = tree.SearchBox(box); return e })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("box query %d: results differ from seed implementation", qi)
		}
		if gotReads != wantReads {
			t.Fatalf("box query %d: %d node reads, seed charged %d", qi, gotReads, wantReads)
		}
		gotCtx, err := tree.SearchBoxCtx(c, box, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotCtx, want) {
			t.Fatalf("box query %d: Ctx variant diverges", qi)
		}
		var count int
		countReads := reads(t, st, func() error { var e error; count, e = tree.CountBox(box); return e })
		if count != len(want) || countReads != wantReads {
			t.Fatalf("box query %d: CountBox = %d with %d node reads, seed has %d with %d", qi, count, countReads, len(want), wantReads)
		}
		explained, _, err := tree.ExplainBox(box)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(explained, want) {
			t.Fatalf("box query %d: ExplainBox results differ from seed implementation", qi)
		}

		q := pts[rng.Intn(len(pts))]
		for mi, m := range metrics {
			radius := 0.2 + rng.Float64()*0.6
			var wantR []Neighbor
			wantReads = reads(t, st, func() error { var e error; wantR, e = tree.refSearchRange(q, radius, m); return e })
			var gotR []Neighbor
			gotReads = reads(t, st, func() error { var e error; gotR, e = tree.SearchRange(q, radius, m); return e })
			if !reflect.DeepEqual(gotR, wantR) {
				t.Fatalf("range query %d metric %d: results differ from seed implementation", qi, mi)
			}
			if gotReads != wantReads {
				t.Fatalf("range query %d metric %d: %d node reads, seed charged %d", qi, mi, gotReads, wantReads)
			}

			k := 1 + rng.Intn(20)
			var wantK []Neighbor
			wantReads = reads(t, st, func() error { var e error; wantK, e = tree.refSearchKNN(q, k, m); return e })
			var gotK []Neighbor
			gotReads = reads(t, st, func() error { var e error; gotK, e = tree.SearchKNN(q, k, m); return e })
			if !reflect.DeepEqual(gotK, wantK) {
				t.Fatalf("knn query %d metric %d k=%d: results differ from seed implementation", qi, mi, k)
			}
			if gotReads != wantReads {
				t.Fatalf("knn query %d metric %d k=%d: %d node reads, seed charged %d", qi, mi, k, gotReads, wantReads)
			}
			gotKCtx, err := tree.SearchKNNCtx(c, q, k, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotKCtx, wantK) {
				t.Fatalf("knn query %d metric %d k=%d: Ctx variant diverges", qi, mi, k)
			}
			gotA, err := tree.SearchKNNApprox(q, k, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotA, wantK) {
				t.Fatalf("knn query %d metric %d k=%d: SearchKNNApprox(ε=0) differs from seed implementation", qi, mi, k)
			}
		}
	}
}
