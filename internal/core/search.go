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
	d := query{op: opBox, win: q, ents: dst}
	err := t.search(ctx, c, b, &d)
	return d.ents, err
}

// CountBox returns the number of entries inside q without materializing
// them.
func (t *Tree) CountBox(q geom.Rect) (int, error) {
	c := t.getCtx()
	defer t.putCtx(c)
	d := query{op: opBox, win: q, count: true}
	err := t.search(nil, c, Budget{}, &d)
	return d.n, err
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
	d := query{op: opRange, point: q, metric: m, radius: radius, nbrs: dst}
	err := t.search(ctx, c, b, &d)
	return d.nbrs, err
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
	return t.SearchKNNContext(nil, c, q, k, m, Budget{}, dst)
}

// SearchKNNContext is SearchKNNCtx under a request lifecycle (see
// SearchBoxContext). Budget exhaustion degrades rather than fails: the
// best-found-so-far neighbors are appended to dst, sorted and with true
// (non-squared) distances — a valid answer to a smaller effort — alongside
// the *ErrBudgetExceeded. Context abandonment returns ctx.Err() with dst
// unchanged past its input length.
func (t *Tree) SearchKNNContext(ctx context.Context, c *QueryContext, q geom.Point, k int, m dist.Metric, b Budget, dst []Neighbor) ([]Neighbor, error) {
	d := query{op: opKNN, point: q, metric: m, k: k, nbrs: dst}
	err := t.search(ctx, c, b, &d)
	return d.nbrs, err
}

// SearchKNNApprox is (1+epsilon)-approximate k-nearest-neighbor search —
// the query type the paper names as future work ("we intend to support new
// types of queries like approximate nearest neighbor queries efficiently
// using the hybrid tree"). It runs the same best-first traversal as
// SearchKNN but discards any subtree whose MINDIST exceeds
// bound/(1+epsilon), so every reported neighbor's distance is within a
// (1+epsilon) factor of the true k-th distance, in exchange for visiting
// fewer pages. epsilon = 0 degenerates to exact search.
func (t *Tree) SearchKNNApprox(q geom.Point, k int, m dist.Metric, epsilon float64) ([]Neighbor, error) {
	c := t.getCtx()
	defer t.putCtx(c)
	d := query{op: opKNN, point: q, metric: m, k: k, eps: epsilon}
	err := t.search(nil, c, Budget{}, &d)
	return d.nbrs, err
}

// query is the one description of a search that the traversal runs: its
// kind, what it matches, and where its results go. The exported methods
// above only fill one in.
type query struct {
	op int // opBox, opRange or opKNN
	// win is the box window. Distance queries get the data space instead:
	// it contains every region the kd walk forms, so the walk's window tests
	// always pass for them and one walk serves every kind.
	win    geom.Rect
	point  geom.Point
	metric dist.Metric
	radius float64
	k      int
	eps    float64 // k-NN approximation: prune at bound/(1+eps)
	count  bool    // box: count matches instead of returning them

	// Set by run for distance queries. When the metric supports the
	// squared-distance fast path, priorities, bounds and leaf scans all
	// work on squared distances and only reported results pay a square
	// root. bound is the range radius and shrink the k-NN pruning factor,
	// both squared under useSq.
	sqm    dist.SquaredMetric
	useSq  bool
	bound  float64
	shrink float64

	ents []Entry    // box results
	nbrs []Neighbor // range and k-NN results
	n    int        // box matches counted under count
}

// results is the query's result count so far, caller prefix included.
func (q *query) results() int {
	switch {
	case q.count:
		return q.n
	case q.op == opBox:
		return len(q.ents)
	}
	return len(q.nbrs)
}

// truncate drops every result past the first base.
func (q *query) truncate(base int) {
	switch {
	case q.count:
		q.n = base
	case q.op == opBox:
		q.ents = q.ents[:base]
	default:
		q.nbrs = q.nbrs[:base]
	}
}

// validate rejects a query the tree cannot run.
func (t *Tree) validate(q *query) error {
	dim := len(q.point)
	if q.op == opBox {
		dim = q.win.Dim()
	}
	switch {
	case dim != t.cfg.Dim:
		return fmt.Errorf("core: query has dim %d, tree expects %d", dim, t.cfg.Dim)
	case q.op == opRange && q.radius < 0:
		return fmt.Errorf("core: negative radius %g", q.radius)
	case q.op == opKNN && q.k < 1:
		return fmt.Errorf("core: k must be >= 1, got %d", q.k)
	case q.op == opKNN && q.eps < 0:
		return fmt.Errorf("core: epsilon %g must be >= 0", q.eps)
	}
	return nil
}

// search runs q on context c under a request lifecycle and settles its
// results. A cancelled or timed-out ctx drops every result past the caller's
// prefix. An exhausted budget keeps the valid partial answer — for k-NN the
// sorted best-found-so-far — and reports its length as Partial. A failed
// page read keeps a box or range query's results so far and leaves a k-NN
// query's dst unchanged.
func (t *Tree) search(ctx context.Context, c *QueryContext, b Budget, q *query) error {
	if err := t.validate(q); err != nil {
		return err
	}
	qc := &c.qc
	qc.acquire(t.cfg.Dim)
	defer qc.release()
	t.pinCtx(qc)
	qc.arm(ctx, b)
	_, start := t.beginQuery(qc, q.op)
	base := q.results()
	err := t.run(qc, q)
	be, degraded := err.(*ErrBudgetExceeded)
	if q.op == opKNN && (err == nil || degraded) {
		q.nbrs = flushKNN(qc.best, q.useSq, q.nbrs)
	}
	if err != nil && isCtxErr(err) {
		q.truncate(base)
	}
	if degraded {
		be.Partial = q.results() - base
	}
	t.finishQuery(qc, q.op, start, q.results()-base, err)
	return err
}

// run is the one node-visit loop. Box and range queries visit nodes
// depth-first from the pending stack; k-NN expands the best-first frontier
// heap in MINDIST order and stops once the nearest unexpanded region cannot
// beat the current k-th best. Each step checks the lifecycle, reads the
// node, and either kd-walks an index node or scans a data node. The scan is
// the loop's only per-kind code: it picks its kind (and distance kernel)
// once per leaf, so no loop over a leaf's points branches on the kind.
// ExplainBox runs it with its own trace in qc.tr.
func (t *Tree) run(qc *queryCtx, q *query) error {
	if q.op != opBox {
		q.win = t.cfg.Space
		q.sqm, q.useSq = dist.AsSquared(q.metric)
		// shrink scales the k-NN pruning bound for approximate search.
		// epsilon = 0 gives shrink = 1, and x*1 == x for floats, so the
		// exact path is untouched.
		q.bound, q.shrink = q.radius, 1/(1+q.eps)
		if q.useSq {
			q.bound *= q.bound
			q.shrink *= q.shrink
		}
	}
	tr := qc.tr
	knn := q.op == opKNN
	pending := qc.pending
	root := visitRef{child: qc.ver.root, slot: qc.arena.put(t.cfg.Space), span: -1}
	var best *pqueue.KBest[Neighbor]
	if knn {
		best = qc.kbest(q.k)
		qc.pq.Push(root, 0)
	} else {
		pending = append(pending, root)
	}
	var err error
	for {
		var v visitRef
		if knn {
			if qc.pq.Len() == 0 {
				break
			}
			if err = qc.checkVisit(q.op); err != nil {
				break
			}
			var mindist float64
			v, mindist = qc.pq.Pop()
			if best.Full() && mindist > best.Bound()*q.shrink {
				break
			}
		} else {
			if len(pending) == 0 {
				break
			}
			if err = qc.checkVisit(q.op); err != nil {
				break
			}
			v = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
		}
		qc.arena.copyOut(v.slot, qc.walk)
		qc.arena.release(v.slot)
		var n *node
		var hit bool
		if n, hit, err = t.getqTraced(tr, v.child, qc.ver.epoch); err != nil {
			break
		}
		span := tr.Visit(v.span, uint32(v.child), n.leaf, hit)
		if !n.leaf {
			if n.kdRoot != kdNone {
				mark := len(pending)
				pending = t.kdWalk(qc, n, q, span, pending)
				reverseVisits(pending[mark:])
			}
			continue
		}

		qc.tally.scanned += n.count()
		tr.Scan(span, n.count())
		var scan0 time.Time
		if tr != nil {
			scan0 = time.Now()
		}
		switch {
		case q.op == opBox:
			// One linear pass over the slab collects the contained
			// indices; the containment test matches geom.Rect.Contains
			// exactly.
			qc.hits = dist.FilterBoxSlab(q.win.Lo, q.win.Hi, n.vals, n.dim, qc.hits[:0])
			if q.count {
				q.n += len(qc.hits)
				if tr != nil {
					for range qc.hits {
						tr.Hit(span)
					}
				}
				break
			}
			ents := q.ents
			for _, i := range qc.hits {
				tr.Hit(span)
				ents = append(ents, Entry{Point: n.point(int(i)), RID: n.rids[i]})
			}
			q.ents = ents
		case knn && q.useSq:
			// Batch kernel against the bound at leaf entry. A candidate
			// whose exact distance beats only the *stale* bound reaches
			// Offer, which rejects it with no state change (priority >=
			// current worst) — exactly the candidates a per-point loop
			// refreshing the bound would skip, so results and Hit counts
			// match it.
			bound := math.Inf(1)
			if best.Full() {
				bound = best.Bound()
			}
			out := qc.distSlab(n.count())
			q.sqm.DistanceSqSlab(q.point, n.vals, n.dim, bound, out)
			for i, d2 := range out {
				if d2 > bound {
					continue // abandoned or beaten; Offer would reject it
				}
				if best.Offer(Neighbor{Entry: Entry{Point: n.point(i), RID: n.rids[i]}, Dist: d2}, d2) {
					tr.Hit(span)
				}
			}
		case knn:
			// A metric without the squared fast path: one distance per
			// point.
			for i := 0; i < n.count(); i++ {
				d := q.metric.Distance(q.point, n.point(i))
				if best.Offer(Neighbor{Entry: Entry{Point: n.point(i), RID: n.rids[i]}, Dist: d}, d) {
					tr.Hit(span)
				}
			}
		case q.useSq:
			// Range batch kernel: one linear pass over the slab with
			// partial-distance abandonment at the squared radius. Accepted
			// values (<= bound) are bit-identical to DistanceSq.
			bound, nbrs := q.bound, q.nbrs
			out := qc.distSlab(n.count())
			q.sqm.DistanceSqSlab(q.point, n.vals, n.dim, bound, out)
			for i, d2 := range out {
				if d2 <= bound {
					tr.Hit(span)
					nbrs = append(nbrs, Neighbor{Entry: Entry{Point: n.point(i), RID: n.rids[i]}, Dist: math.Sqrt(d2)})
				}
			}
			q.nbrs = nbrs
		default:
			nbrs := q.nbrs
			for i := 0; i < n.count(); i++ {
				if d := q.metric.Distance(q.point, n.point(i)); d <= q.radius {
					tr.Hit(span)
					nbrs = append(nbrs, Neighbor{Entry: Entry{Point: n.point(i), RID: n.rids[i]}, Dist: d})
				}
			}
			q.nbrs = nbrs
		}
		if tr != nil {
			tr.AddCompute(int64(time.Since(scan0)))
		}
	}
	qc.pending = pending[:0]
	return err
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

// kdWalk is the one intra-node kd walk, run over index node n. It narrows
// one boundary of qc.walk per internal kd record and re-tests only that
// boundary against the window — the "a boundary is checked only once"
// property of Section 3.1. Each surviving kd-leaf then takes the per-kind
// step, the walk's only per-kind code:
//   - box tests the child's encoded live space (the second step of the
//     paper's two-step overlap check) against the window, and queues the
//     child on the pending stack if they meet;
//   - range bounds the child by the MINDIST from the query point to
//     BR ∩ live space (a strictly tighter bound than the larger of the two
//     separate MINDISTs) and queues it if that is within the radius;
//   - k-NN computes the same MINDIST and pushes the child onto the
//     best-first frontier unless the current k-th best × shrink rules it out.
//
// Box and range visits are appended in kd order; span is the node's trace
// span.
func (t *Tree) kdWalk(qc *queryCtx, n *node, q *query, span int32, pending []visitRef) []visitRef {
	br, win, tr := qc.walk, q.win, qc.tr
	kd, els, space := n.kd, qc.ver.els, t.cfg.Space
	op, best := q.op, qc.best
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
				}
				if op == opBox {
					if ok && !live.Intersects(win) {
						qc.tally.elsPrunes++
						tr.ELSPrune(span)
						continue
					}
					qc.tally.descents++
					tr.Descend(span)
					pending = append(pending, visitRef{child: k.Child, slot: qc.arena.put(br), span: span})
					continue
				}
				region := br
				if ok {
					if !intersectInto(&qc.scratch, br, live) {
						qc.tally.elsPrunes++
						tr.ELSPrune(span)
						continue
					}
					region = qc.scratch
				}
				var md float64
				if q.useSq {
					md = q.sqm.MinDistRectSq(q.point, region)
				} else {
					md = q.metric.MinDistRect(q.point, region)
				}
				switch {
				case op == opRange && md <= q.bound:
					qc.tally.descents++
					tr.Descend(span)
					pending = append(pending, visitRef{child: k.Child, slot: qc.arena.put(br), span: span})
				case op == opKNN && (!best.Full() || md <= best.Bound()*q.shrink):
					qc.tally.heapPushes++
					tr.Descend(span)
					qc.pq.Push(visitRef{child: k.Child, slot: qc.arena.put(br), span: span}, md)
				default:
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
			if win.Lo[d] <= br.Hi[d] && br.Hi[d] >= br.Lo[d] {
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
			if win.Hi[d] >= br.Lo[d] && br.Hi[d] >= br.Lo[d] {
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
