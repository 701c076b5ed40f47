package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/index"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/seqscan"
)

// checkSample is how many pooled queries of each of the workload's read
// kinds are checked against the scan after the timed phases.
const checkSample = 32

// writeLog is what the timed phases did to the data: the acknowledged
// inserts and deletes, and the writes that failed (their effect unknown).
type writeLog struct {
	inserts, deletes, unknown []request
}

func collectWrites(recs []rec) writeLog {
	var w writeLog
	for _, r := range recs {
		switch {
		case !r.req.kind.write():
		case !r.ok:
			w.unknown = append(w.unknown, r.req)
		case r.req.kind == opInsert:
			w.inserts = append(w.inserts, r.req)
		default:
			w.deletes = append(w.deletes, r.req)
		}
	}
	return w
}

// liveSet is the data the server should hold: the loaded points minus
// acknowledged deletes plus acknowledged inserts. A failed write may or
// may not have taken effect, so present reports which way it went.
func liveSet(in *inputs, w writeLog, present func(request) (bool, error)) ([]geom.Point, []core.RecordID, error) {
	gone := make(map[core.RecordID]bool)
	var added []request
	for _, r := range w.deletes {
		gone[r.rid] = true
	}
	added = append(added, w.inserts...)
	for _, r := range w.unknown {
		in, err := present(r)
		if err != nil {
			return nil, nil, err
		}
		switch {
		case r.kind == opDelete && !in:
			gone[r.rid] = true
		case r.kind == opInsert && in:
			added = append(added, r)
		}
	}
	var pts []geom.Point
	var rids []core.RecordID
	for i, p := range in.pts {
		if !gone[in.rids[i]] {
			pts = append(pts, p)
			rids = append(rids, in.rids[i])
		}
	}
	for _, r := range added {
		pts = append(pts, r.point)
		rids = append(rids, r.rid)
	}
	return pts, rids, nil
}

// newScan loads the points into the flat-file baseline, in memory.
func newScan(dim int, pts []geom.Point, rids []core.RecordID) (*seqscan.Scan, error) {
	sc, err := seqscan.New(pagefile.NewMemFile(pageSize), dim)
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		if err := sc.Insert(p, uint64(rids[i])); err != nil {
			return nil, err
		}
	}
	return sc, nil
}

// answer is the part of htreed's response envelope the check reads.
type answer struct {
	Neighbors []struct {
		RID  uint64  `json:"rid"`
		Dist float64 `json:"dist"`
	} `json:"neighbors"`
	RIDs []uint64 `json:"rids"`
}

// checkAnswers replays a seeded sample of the workload's pooled queries
// over HTTP and compares each answer with the scan: the exact record-id
// set for box and range queries, the same k distances for k-NN.
func checkAnswers(s spec, in *inputs, c *client, sc *seqscan.Scan, seed int64) (int, error) {
	rng := rand.New(rand.NewSource(seed))
	sent := 0
	for _, k := range s.ownKinds() {
		for n := 0; n < checkSample; n++ {
			slot := rng.Intn(len(in.bodies[k]))
			status, body, err := c.post(k.path(), in.bodies[k][slot], true)
			sent++
			if err != nil || status != 200 {
				return sent, fmt.Errorf("check %s #%d: status %d, %v", k, slot, status, err)
			}
			var a answer
			if err := json.Unmarshal(body, &a); err != nil {
				return sent, fmt.Errorf("check %s #%d: %w", k, slot, err)
			}
			if err := compare(k, in, slot, a, sc); err != nil {
				return sent, fmt.Errorf("check %s #%d: %w", k, slot, err)
			}
		}
	}
	return sent, nil
}

func compare(k opKind, in *inputs, slot int, a answer, sc *seqscan.Scan) error {
	switch k {
	case opKNN:
		want, err := sc.SearchKNN(in.knn[slot], knnK, dist.L2())
		if err != nil {
			return err
		}
		got := make([]float64, len(a.Neighbors))
		for i, n := range a.Neighbors {
			got[i] = n.Dist
		}
		return sameDists(got, neighborDists(want))
	case opBox:
		want, err := sc.SearchBox(in.boxes[slot])
		if err != nil {
			return err
		}
		w := make([]uint64, len(want))
		for i, e := range want {
			w[i] = e.RID
		}
		return sameRIDs(a.RIDs, w)
	default:
		q := in.ranges[slot]
		want, err := sc.SearchRange(q.Center, q.Radius, dist.L2())
		if err != nil {
			return err
		}
		got := make([]uint64, len(a.Neighbors))
		for i, n := range a.Neighbors {
			got[i] = n.RID
		}
		w := make([]uint64, len(want))
		for i, n := range want {
			w[i] = n.RID
		}
		return sameRIDs(got, w)
	}
}

func neighborDists(ns []index.Neighbor) []float64 {
	ds := make([]float64, len(ns))
	for i, n := range ns {
		ds[i] = n.Dist
	}
	return ds
}

// sameDists compares two k-NN answers by their sorted distances; ties
// between equidistant records may legitimately pick different ids.
func sameDists(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d neighbors, scan finds %d", len(got), len(want))
	}
	slices.Sort(got)
	slices.Sort(want)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-9*math.Max(1, math.Abs(want[i])) {
			return fmt.Errorf("neighbor %d at distance %g, scan says %g", i, got[i], want[i])
		}
	}
	return nil
}

func sameRIDs(got, want []uint64) error {
	slices.Sort(got)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		return fmt.Errorf("%d records, scan finds %d (or the sets differ)", len(got), len(want))
	}
	return nil
}

// durability is what the crash-reopen check measured.
type durability struct {
	recovery   time.Duration
	checkpoint time.Duration
}

// checkDurability abandons the served stack without a checkpoint, as a
// killed process would, reopens the files through wal.Open, and checks
// that every acknowledged insert is present, every acknowledged delete is
// absent, the tree holds exactly the expected records and its invariants
// hold; then it checkpoints and requires no leaked pages.
func checkDurability(st *stack, w writeLog, liveCount int, tr *tracer) (durability, error) {
	var d durability
	st.abandon()
	start := time.Now()
	if err := st.open(tr); err != nil {
		return d, fmt.Errorf("reopen after crash: %w", err)
	}
	d.recovery = time.Since(start)
	has := func(r request) (bool, error) {
		rids, err := st.core.SearchPoint(r.point)
		return slices.Contains(rids, r.rid), err
	}
	fail := func(err error) (durability, error) {
		st.abandon()
		return d, err
	}
	for _, r := range w.inserts {
		if ok, err := has(r); err != nil || !ok {
			return fail(fmt.Errorf("acknowledged insert of record %d lost (%v)", r.rid, err))
		}
	}
	for _, r := range w.deletes {
		if ok, err := has(r); err != nil || ok {
			return fail(fmt.Errorf("acknowledged delete of record %d undone (%v)", r.rid, err))
		}
	}
	if n := st.core.Size(); n != liveCount {
		return fail(fmt.Errorf("reopened tree holds %d records, want %d", n, liveCount))
	}
	if err := st.core.CheckInvariants(); err != nil {
		return fail(fmt.Errorf("invariants after recovery: %w", err))
	}
	start = time.Now()
	if err := st.close(); err != nil {
		return d, fmt.Errorf("final checkpoint: %w", err)
	}
	d.checkpoint = time.Since(start)
	if n := st.core.LeakedPages(); n != 0 {
		return d, fmt.Errorf("%d leaked pages after the final checkpoint", n)
	}
	return d, nil
}
