package core

import (
	"context"
	"fmt"
	"math"
	"time"

	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/pqueue"
)

// Entry is one stored record returned by a search.
type Entry struct {
	Point geom.Point
	RID   RecordID
}

// Neighbor is a search result annotated with its distance to the query.
type Neighbor struct {
	Entry
	Dist float64
}

// The search implementations below are allocation-free on the cached-node
// path: inter-node traversal runs over an explicit pending stack (or the
// best-first frontier heap) of visitRefs whose bounding regions live in the
// QueryContext's rect arena, and the intra-node kd walk is an iterative loop
// over reusable kdFrames instead of a recursive closure. Traversal order —
// and therefore result order and the Stats accounting — is identical to the
// recursive implementation: a node's surviving kd-leaves are pushed in
// reverse kd order so the stack pops them in kd order, exactly the
// depth-first sequence recursion produced.
//
// Instrumentation rides the same loops: traversal counts accumulate as
// plain ints in the context's tally (flushed to shared atomic counters once
// per query), and when a trace is active every visited node gets a span,
// with kd decisions and prune verdicts charged to the span of the node
// where they happened. With tracing off qc.tr is nil and every tr.* call is
// an inlined nil check, which is what keeps TestSearchZeroAlloc at zero.

// getqTraced reads a node for a query. When the query carries a live trace
// it also attributes the fetch + decode wall time to the trace's page-read
// stage; untraced queries take the bare getq call with no clock reads.
func (t *Tree) getqTraced(tr *obs.Trace, id pagefile.PageID, epoch uint64) (*node, bool, error) {
	if tr == nil {
		return t.store.getq(id, epoch)
	}
	t0 := time.Now()
	n, hit, err := t.store.getq(id, epoch)
	tr.AddPageRead(int64(time.Since(t0)))
	return n, hit, err
}

// SearchBox returns every entry whose vector lies inside q (boundaries
// inclusive) — the feature-based bounding-box query of Section 3.5, and the
// query type of the paper's Figures 5 and 6.
func (t *Tree) SearchBox(q geom.Rect) ([]Entry, error) {
	c := t.getCtx()
	defer t.putCtx(c)
	return t.SearchBoxCtx(c, q, nil)
}

// SearchBoxCtx is SearchBox with caller-managed scratch state: results are
// appended to dst (which may be nil or a recycled buffer). A caller that
// reuses both c and dst runs the cached-node query path without allocating.
// On error the entries appended so far remain in the returned slice.
func (t *Tree) SearchBoxCtx(c *QueryContext, q geom.Rect, dst []Entry) ([]Entry, error) {
	return t.SearchBoxContext(nil, c, q, Budget{}, dst)
}

// SearchBoxContext is SearchBoxCtx under a request lifecycle: cancellation
// and the context deadline are checked once per node visit (abandoning the
// query returns ctx.Err() with dst unchanged past its input length), and
// budget exhaustion returns *ErrBudgetExceeded with the entries found so far
// kept in dst — a valid subset of the full answer. A nil ctx and zero
// Budget run the plain unarmed path.
func (t *Tree) SearchBoxContext(ctx context.Context, c *QueryContext, q geom.Rect, b Budget, dst []Entry) ([]Entry, error) {
	if q.Dim() != t.cfg.Dim {
		return dst, fmt.Errorf("core: query has dim %d, tree expects %d", q.Dim(), t.cfg.Dim)
	}
	qc := &c.qc
	qc.acquire(t.cfg.Dim)
	defer qc.release()
	t.pinCtx(qc)
	qc.arm(ctx, b)
	_, start := t.beginQuery(qc, opBox)
	base := len(dst)
	dst, err := t.runBox(qc, q, dst)
	if err != nil {
		if isCtxErr(err) {
			dst = dst[:base]
		} else if be, ok := err.(*ErrBudgetExceeded); ok {
			be.Partial = len(dst) - base
		}
	}
	t.finishQuery(qc, opBox, start, len(dst)-base, err)
	return dst, err
}

// runBox is the box query's traversal loop, shared by SearchBoxCtx and
// ExplainBox (which supplies its own trace via qc.tr).
func (t *Tree) runBox(qc *queryCtx, q geom.Rect, dst []Entry) ([]Entry, error) {
	tr := qc.tr
	pending := append(qc.pending, visitRef{child: qc.ver.root, slot: qc.arena.put(t.cfg.Space), span: -1})
	for len(pending) > 0 {
		if err := qc.checkVisit(opBox); err != nil {
			qc.pending = pending[:0]
			return dst, err
		}
		v := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		qc.arena.copyOut(v.slot, qc.walk)
		qc.arena.release(v.slot)
		n, hit, err := t.getqTraced(tr, v.child, qc.ver.epoch)
		if err != nil {
			qc.pending = pending[:0]
			return dst, err
		}
		span := tr.Visit(v.span, uint32(v.child), n.leaf, hit)
		if n.leaf {
			qc.tally.scanned += n.count()
			tr.Scan(span, n.count())
			var scan0 time.Time
			if tr != nil {
				scan0 = time.Now()
			}
			// One linear pass over the slab collects the contained indices;
			// the containment test matches geom.Rect.Contains exactly.
			qc.hits = dist.FilterBoxSlab(q.Lo, q.Hi, n.vals, n.dim, qc.hits[:0])
			for _, i := range qc.hits {
				tr.Hit(span)
				dst = append(dst, Entry{Point: n.point(int(i)), RID: n.rids[i]})
			}
			if tr != nil {
				tr.AddCompute(int64(time.Since(scan0)))
			}
			continue
		}
		if n.kdRoot == kdNone {
			continue
		}
		mark := len(pending)
		pending = t.kdWalkBox(qc, n, q, span, pending)
		reverseVisits(pending[mark:])
	}
	qc.pending = pending[:0]
	return dst, nil
}

// kdWalkBox runs the box query's intra-node kd walk over index node n,
// narrowing one boundary of qc.walk per internal record (and re-testing only
// that boundary — the "a boundary is checked only once" property of Section
// 3.1) and appending one visit per surviving kd-leaf, in kd order. Leaves
// pass the second step of the paper's two-step overlap check (the encoded
// live space) before being kept. span is the current node's trace span.
func (t *Tree) kdWalkBox(qc *queryCtx, n *node, q geom.Rect, span int32, pending []visitRef) []visitRef {
	br := qc.walk
	tr := qc.tr
	kd, els, space := n.kd, qc.ver.els, t.cfg.Space
	st := append(qc.frames, kdFrame{idx: n.kdRoot})
	for len(st) > 0 {
		f := &st[len(st)-1]
		k := &kd[f.idx]
		switch f.stage {
		case 0:
			if k.isLeaf() {
				st = st[:len(st)-1]
				live, ok := els.Get(uint32(k.Child), space)
				if ok {
					qc.tally.elsHits++
					tr.ELSHit(span)
					if !live.Intersects(q) {
						qc.tally.elsPrunes++
						tr.ELSPrune(span)
						continue
					}
				}
				qc.tally.descents++
				tr.Descend(span)
				pending = append(pending, visitRef{child: k.Child, slot: qc.arena.put(br), span: span})
				continue
			}
			d := int(k.Dim)
			f.saved = br.Hi[d]
			f.stage = 1
			if k.Lsp < br.Hi[d] {
				br.Hi[d] = k.Lsp
			}
			if q.Lo[d] <= br.Hi[d] && br.Hi[d] >= br.Lo[d] {
				tr.KDLeft(span)
				st = append(st, kdFrame{idx: k.Left})
			} else {
				qc.tally.kdPrunes++
				tr.KDPrune(span)
			}
		case 1:
			d := int(k.Dim)
			br.Hi[d] = f.saved
			f.saved = br.Lo[d]
			f.stage = 2
			if k.Rsp > br.Lo[d] {
				br.Lo[d] = k.Rsp
			}
			if q.Hi[d] >= br.Lo[d] && br.Hi[d] >= br.Lo[d] {
				tr.KDRight(span)
				st = append(st, kdFrame{idx: k.Right})
			} else {
				qc.tally.kdPrunes++
				tr.KDPrune(span)
			}
		default:
			br.Lo[int(k.Dim)] = f.saved
			st = st[:len(st)-1]
		}
	}
	qc.frames = st[:0]
	return pending
}

// SearchPoint returns the record ids stored exactly at p.
func (t *Tree) SearchPoint(p geom.Point) ([]RecordID, error) {
	entries, err := t.SearchBox(geom.Rect{Lo: p, Hi: p})
	if err != nil {
		return nil, err
	}
	rids := make([]RecordID, 0, len(entries))
	for _, e := range entries {
		rids = append(rids, e.RID)
	}
	return rids, nil
}

// SearchRange returns every entry within distance radius of q under metric
// m — the distance-based range query of Section 3.5. The metric is supplied
// per query: nothing about the tree is specialized to it.
func (t *Tree) SearchRange(q geom.Point, radius float64, m dist.Metric) ([]Neighbor, error) {
	c := t.getCtx()
	defer t.putCtx(c)
	return t.SearchRangeCtx(c, q, radius, m, nil)
}

// SearchRangeCtx is SearchRange with caller-managed scratch state and result
// buffer (see SearchBoxCtx). When m supports the squared-distance fast path
// (dist.AsSquared), membership and pruning compare squared distances and
// each reported neighbor costs a single square root; leaf scans abandon a
// candidate as soon as its partial sum exceeds the squared radius.
func (t *Tree) SearchRangeCtx(c *QueryContext, q geom.Point, radius float64, m dist.Metric, dst []Neighbor) ([]Neighbor, error) {
	return t.SearchRangeContext(nil, c, q, radius, m, Budget{}, dst)
}

// SearchRangeContext is SearchRangeCtx under a request lifecycle (see
// SearchBoxContext): ctx abandonment discards partial results and returns
// ctx.Err(); budget exhaustion keeps the neighbors found so far in dst — a
// valid subset of the full answer — and returns *ErrBudgetExceeded.
func (t *Tree) SearchRangeContext(ctx context.Context, c *QueryContext, q geom.Point, radius float64, m dist.Metric, b Budget, dst []Neighbor) ([]Neighbor, error) {
	if len(q) != t.cfg.Dim {
		return dst, fmt.Errorf("core: query has dim %d, tree expects %d", len(q), t.cfg.Dim)
	}
	if radius < 0 {
		return dst, fmt.Errorf("core: negative radius %g", radius)
	}
	qc := &c.qc
	qc.acquire(t.cfg.Dim)
	defer qc.release()
	t.pinCtx(qc)
	qc.arm(ctx, b)
	tr, start := t.beginQuery(qc, opRange)
	base := len(dst)

	sqm, useSq := dist.AsSquared(m)
	bound := radius
	if useSq {
		bound = radius * radius
	}

	pending := append(qc.pending, visitRef{child: qc.ver.root, slot: qc.arena.put(t.cfg.Space), span: -1})
	for len(pending) > 0 {
		if err := qc.checkVisit(opRange); err != nil {
			qc.pending = pending[:0]
			if isCtxErr(err) {
				dst = dst[:base]
			} else if be, ok := err.(*ErrBudgetExceeded); ok {
				be.Partial = len(dst) - base
			}
			t.finishQuery(qc, opRange, start, len(dst)-base, err)
			return dst, err
		}
		v := pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		qc.arena.copyOut(v.slot, qc.walk)
		qc.arena.release(v.slot)
		n, hit, err := t.getqTraced(tr, v.child, qc.ver.epoch)
		if err != nil {
			qc.pending = pending[:0]
			t.finishQuery(qc, opRange, start, len(dst)-base, err)
			return dst, err
		}
		span := tr.Visit(v.span, uint32(v.child), n.leaf, hit)
		if n.leaf {
			qc.tally.scanned += n.count()
			tr.Scan(span, n.count())
			var scan0 time.Time
			if tr != nil {
				scan0 = time.Now()
			}
			if useSq {
				// Batch kernel: one linear pass over the slab with
				// partial-distance abandonment at the squared radius.
				// Accepted values (<= bound) are bit-identical to
				// DistanceSq.
				out := qc.distSlab(n.count())
				sqm.DistanceSqSlab(q, n.vals, n.dim, bound, out)
				for i, d2 := range out {
					if d2 <= bound {
						tr.Hit(span)
						dst = append(dst, Neighbor{Entry: Entry{Point: n.point(i), RID: n.rids[i]}, Dist: math.Sqrt(d2)})
					}
				}
			} else {
				for i := 0; i < n.count(); i++ {
					if d := m.Distance(q, n.point(i)); d <= radius {
						tr.Hit(span)
						dst = append(dst, Neighbor{Entry: Entry{Point: n.point(i), RID: n.rids[i]}, Dist: d})
					}
				}
			}
			if tr != nil {
				tr.AddCompute(int64(time.Since(scan0)))
			}
			continue
		}
		if n.kdRoot == kdNone {
			continue
		}
		mark := len(pending)
		pending = t.kdWalkDist(qc, n, q, m, sqm, useSq, bound, span, pending)
		reverseVisits(pending[mark:])
	}
	qc.pending = pending[:0]
	t.finishQuery(qc, opRange, start, len(dst)-base, nil)
	return dst, nil
}

// kdWalkDist is the distance-range query's intra-node kd walk: surviving
// kd-leaves are those whose region (mapped BR ∩ encoded live space, a
// strictly tighter bound than the max of the two separate MINDISTs) lies
// within bound of q. bound and the MINDIST computation are in squared space
// when useSq is set.
func (t *Tree) kdWalkDist(qc *queryCtx, n *node, q geom.Point, m dist.Metric, sqm dist.SquaredMetric, useSq bool, bound float64, span int32, pending []visitRef) []visitRef {
	br := qc.walk
	tr := qc.tr
	kd, els, space := n.kd, qc.ver.els, t.cfg.Space
	st := append(qc.frames, kdFrame{idx: n.kdRoot})
	for len(st) > 0 {
		f := &st[len(st)-1]
		k := &kd[f.idx]
		switch f.stage {
		case 0:
			if k.isLeaf() {
				st = st[:len(st)-1]
				lb := 0.0
				if live, ok := els.Get(uint32(k.Child), space); ok {
					qc.tally.elsHits++
					tr.ELSHit(span)
					if !intersectInto(&qc.scratch, br, live) {
						qc.tally.elsPrunes++
						tr.ELSPrune(span)
						continue
					}
					if useSq {
						lb = sqm.MinDistRectSq(q, qc.scratch)
					} else {
						lb = m.MinDistRect(q, qc.scratch)
					}
				} else if useSq {
					lb = sqm.MinDistRectSq(q, br)
				} else {
					lb = m.MinDistRect(q, br)
				}
				if lb <= bound {
					qc.tally.descents++
					tr.Descend(span)
					pending = append(pending, visitRef{child: k.Child, slot: qc.arena.put(br), span: span})
				} else {
					qc.tally.distPrunes++
					tr.DistPrune(span)
				}
				continue
			}
			d := int(k.Dim)
			f.saved = br.Hi[d]
			f.stage = 1
			if k.Lsp < br.Hi[d] {
				br.Hi[d] = k.Lsp
			}
			if br.Hi[d] >= br.Lo[d] {
				tr.KDLeft(span)
				st = append(st, kdFrame{idx: k.Left})
			} else {
				qc.tally.kdPrunes++
				tr.KDPrune(span)
			}
		case 1:
			d := int(k.Dim)
			br.Hi[d] = f.saved
			f.saved = br.Lo[d]
			f.stage = 2
			if k.Rsp > br.Lo[d] {
				br.Lo[d] = k.Rsp
			}
			if br.Hi[d] >= br.Lo[d] {
				tr.KDRight(span)
				st = append(st, kdFrame{idx: k.Right})
			} else {
				qc.tally.kdPrunes++
				tr.KDPrune(span)
			}
		default:
			br.Lo[int(k.Dim)] = f.saved
			st = st[:len(st)-1]
		}
	}
	qc.frames = st[:0]
	return pending
}

// SearchKNN returns the k entries nearest to q under metric m, closest
// first, using best-first (Hjaltason–Samet) traversal: nodes are expanded
// in order of the MINDIST between q and their (live-space-tightened) BRs,
// stopping when the next node cannot beat the current k-th distance.
func (t *Tree) SearchKNN(q geom.Point, k int, m dist.Metric) ([]Neighbor, error) {
	c := t.getCtx()
	defer t.putCtx(c)
	return t.SearchKNNCtx(c, q, k, m, nil)
}

// SearchKNNCtx is SearchKNN with caller-managed scratch state and result
// buffer (see SearchBoxCtx): the k results are appended to dst.
func (t *Tree) SearchKNNCtx(c *QueryContext, q geom.Point, k int, m dist.Metric, dst []Neighbor) ([]Neighbor, error) {
	return t.searchKNN(nil, c, q, k, m, 0, Budget{}, dst)
}

// SearchKNNContext is SearchKNNCtx under a request lifecycle (see
// SearchBoxContext). Budget exhaustion degrades rather than fails: the
// best-found-so-far neighbors are appended to dst, sorted and with true
// (non-squared) distances — a valid answer to a smaller effort — alongside
// the *ErrBudgetExceeded. Context abandonment returns ctx.Err() with dst
// unchanged past its input length.
func (t *Tree) SearchKNNContext(ctx context.Context, c *QueryContext, q geom.Point, k int, m dist.Metric, b Budget, dst []Neighbor) ([]Neighbor, error) {
	return t.searchKNN(ctx, c, q, k, m, 0, b, dst)
}

// searchKNN is the shared exact/(1+epsilon)-approximate best-first search;
// epsilon = 0 is exact. When m supports the squared-distance fast path,
// frontier priorities, pruning bounds and leaf scans all work on squared
// distances (with partial-distance early abandonment against the current
// k-th best) and only the k reported results pay a square root.
func (t *Tree) searchKNN(ctx context.Context, c *QueryContext, q geom.Point, k int, m dist.Metric, epsilon float64, b Budget, dst []Neighbor) ([]Neighbor, error) {
	if len(q) != t.cfg.Dim {
		return dst, fmt.Errorf("core: query has dim %d, tree expects %d", len(q), t.cfg.Dim)
	}
	if k < 1 {
		return dst, fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	if epsilon < 0 {
		return dst, fmt.Errorf("core: epsilon %g must be >= 0", epsilon)
	}
	qc := &c.qc
	qc.acquire(t.cfg.Dim)
	defer qc.release()
	t.pinCtx(qc)
	qc.arm(ctx, b)
	tr, start := t.beginQuery(qc, opKNN)
	base := len(dst)

	sqm, useSq := dist.AsSquared(m)
	// shrink scales the pruning bound for approximate search; for squared
	// distances the factor is squared too. epsilon = 0 gives shrink = 1,
	// and x*1 == x for floats, so the exact path is untouched.
	shrink := 1 / (1 + epsilon)
	if useSq {
		shrink *= shrink
	}

	pq := &qc.pq
	best := qc.kbest(k)
	pq.Push(visitRef{child: qc.ver.root, slot: qc.arena.put(t.cfg.Space), span: -1}, 0)
	for pq.Len() > 0 {
		if lerr := qc.checkVisit(opKNN); lerr != nil {
			if be, ok := lerr.(*ErrBudgetExceeded); ok {
				// Degrade to best-found-so-far: every neighbor in the
				// collector is real, sorted and correctly ranked — it is
				// the exact answer a smaller tree would have given.
				prev := len(dst)
				dst = flushKNN(best, useSq, dst)
				be.Partial = len(dst) - prev
				t.finishQuery(qc, opKNN, start, len(dst)-prev, lerr)
				return dst, lerr
			}
			t.finishQuery(qc, opKNN, start, 0, lerr)
			return dst, lerr
		}
		v, mindist := pq.Pop()
		if best.Full() && mindist > best.Bound()*shrink {
			break
		}
		qc.arena.copyOut(v.slot, qc.walk)
		qc.arena.release(v.slot)
		n, hit, err := t.getqTraced(tr, v.child, qc.ver.epoch)
		if err != nil {
			t.finishQuery(qc, opKNN, start, 0, err)
			return dst, err
		}
		span := tr.Visit(v.span, uint32(v.child), n.leaf, hit)
		if n.leaf {
			qc.tally.scanned += n.count()
			tr.Scan(span, n.count())
			var scan0 time.Time
			if tr != nil {
				scan0 = time.Now()
			}
			if useSq {
				// Batch kernel against the bound at leaf entry. A candidate
				// whose exact distance beats only the *stale* bound reaches
				// Offer, which rejects it with no state change (priority >=
				// current worst) — exactly the candidates a per-point loop
				// refreshing the bound would skip, so results and Hit
				// counts match it.
				bound := math.Inf(1)
				if best.Full() {
					bound = best.Bound()
				}
				out := qc.distSlab(n.count())
				sqm.DistanceSqSlab(q, n.vals, n.dim, bound, out)
				for i, d2 := range out {
					if d2 > bound {
						continue // abandoned or beaten; Offer would reject it
					}
					if best.Offer(Neighbor{Entry: Entry{Point: n.point(i), RID: n.rids[i]}, Dist: d2}, d2) {
						tr.Hit(span)
					}
				}
			} else {
				for i := 0; i < n.count(); i++ {
					d := m.Distance(q, n.point(i))
					if best.Offer(Neighbor{Entry: Entry{Point: n.point(i), RID: n.rids[i]}, Dist: d}, d) {
						tr.Hit(span)
					}
				}
			}
			if tr != nil {
				tr.AddCompute(int64(time.Since(scan0)))
			}
			continue
		}
		if n.kdRoot != kdNone {
			t.kdWalkKNN(qc, n, q, m, sqm, useSq, best, shrink, span)
		}
	}
	if dst == nil {
		dst = make([]Neighbor, 0, best.Len())
	}
	base = len(dst)
	dst = best.AppendSorted(dst)
	if useSq {
		for i := base; i < len(dst); i++ {
			dst[i].Dist = math.Sqrt(dst[i].Dist)
		}
	}
	t.finishQuery(qc, opKNN, start, len(dst)-base, nil)
	return dst, nil
}

// flushKNN appends the collector's neighbors to dst, closest first,
// converting squared distances back to true ones.
func flushKNN(best *pqueue.KBest[Neighbor], useSq bool, dst []Neighbor) []Neighbor {
	if dst == nil {
		dst = make([]Neighbor, 0, best.Len())
	}
	base := len(dst)
	dst = best.AppendSorted(dst)
	if useSq {
		for i := base; i < len(dst); i++ {
			dst[i].Dist = math.Sqrt(dst[i].Dist)
		}
	}
	return dst
}

// kdWalkKNN is the k-NN intra-node kd walk: each surviving kd-leaf joins
// the best-first frontier with its (live-space-tightened) MINDIST as
// priority, unless the current k-th best already rules it out.
func (t *Tree) kdWalkKNN(qc *queryCtx, n *node, q geom.Point, m dist.Metric, sqm dist.SquaredMetric, useSq bool, best *pqueue.KBest[Neighbor], shrink float64, span int32) {
	br := qc.walk
	tr := qc.tr
	kd, els, space := n.kd, qc.ver.els, t.cfg.Space
	st := append(qc.frames, kdFrame{idx: n.kdRoot})
	for len(st) > 0 {
		f := &st[len(st)-1]
		k := &kd[f.idx]
		switch f.stage {
		case 0:
			if k.isLeaf() {
				st = st[:len(st)-1]
				var md float64
				if live, ok := els.Get(uint32(k.Child), space); ok {
					qc.tally.elsHits++
					tr.ELSHit(span)
					if !intersectInto(&qc.scratch, br, live) {
						qc.tally.elsPrunes++
						tr.ELSPrune(span)
						continue
					}
					if useSq {
						md = sqm.MinDistRectSq(q, qc.scratch)
					} else {
						md = m.MinDistRect(q, qc.scratch)
					}
				} else if useSq {
					md = sqm.MinDistRectSq(q, br)
				} else {
					md = m.MinDistRect(q, br)
				}
				if !best.Full() || md <= best.Bound()*shrink {
					qc.tally.heapPushes++
					tr.Descend(span)
					qc.pq.Push(visitRef{child: k.Child, slot: qc.arena.put(br), span: span}, md)
				} else {
					qc.tally.distPrunes++
					tr.DistPrune(span)
				}
				continue
			}
			d := int(k.Dim)
			f.saved = br.Hi[d]
			f.stage = 1
			if k.Lsp < br.Hi[d] {
				br.Hi[d] = k.Lsp
			}
			if br.Hi[d] >= br.Lo[d] {
				tr.KDLeft(span)
				st = append(st, kdFrame{idx: k.Left})
			} else {
				qc.tally.kdPrunes++
				tr.KDPrune(span)
			}
		case 1:
			d := int(k.Dim)
			br.Hi[d] = f.saved
			f.saved = br.Lo[d]
			f.stage = 2
			if k.Rsp > br.Lo[d] {
				br.Lo[d] = k.Rsp
			}
			if br.Hi[d] >= br.Lo[d] {
				tr.KDRight(span)
				st = append(st, kdFrame{idx: k.Right})
			} else {
				qc.tally.kdPrunes++
				tr.KDPrune(span)
			}
		default:
			br.Lo[int(k.Dim)] = f.saved
			st = st[:len(st)-1]
		}
	}
	qc.frames = st[:0]
}

// intersectInto writes the intersection of a and b into dst (which must
// have matching dimensionality) and reports whether it is non-empty.
func intersectInto(dst *geom.Rect, a, b geom.Rect) bool {
	for d := range dst.Lo {
		lo, hi := a.Lo[d], a.Hi[d]
		if b.Lo[d] > lo {
			lo = b.Lo[d]
		}
		if b.Hi[d] < hi {
			hi = b.Hi[d]
		}
		if lo > hi {
			return false
		}
		dst.Lo[d], dst.Hi[d] = lo, hi
	}
	return true
}
