package main

import (
	"context"
	"math/rand"
	"time"

	"hybridtree/internal/concurrent"
	"hybridtree/internal/core"
	"hybridtree/internal/dist"
	"hybridtree/internal/obs"
	"hybridtree/internal/seqscan"
)

// ladderSample is how many pooled queries of each kind the traced run
// replays down the ladder.
const ladderSample = 48

// Ladder levels, outermost first: the same query through HTTP, through the
// executor, straight into core, and as a flat scan.
const (
	lvlHTTP = iota
	lvlExec
	lvlCore
	lvlFloor
	numLevels
)

var levelNames = [numLevels]string{"http", "concurrent", "core", "seqscan"}

// ladderResult holds per-query times in microseconds by kind and level,
// and core's own counters over the workload's own kinds.
type ladderResult struct {
	us [numKinds][numLevels][]float64
	// codec holds, per query of the workload's own kinds, HTTP time minus
	// executor time: decoding, encoding and the loopback round trip.
	codec   []float64
	queries int
	reads   uint64 // logical node reads (cache hits included)
	hits    uint64
	prunes  uint64
	results int
}

// hybridCounters are core's shared node-read, cache-hit and prune counters.
type hybridCounters struct{ reads, hits, prunes *obs.Counter }

func newHybridCounters() hybridCounters {
	reads, hits, _ := obs.IndexCounters(obs.Default(), "hybrid")
	return hybridCounters{reads: reads, hits: hits, prunes: obs.PruneCounter(obs.Default(), "hybrid")}
}

// runLadder replays a seeded sample of every read kind serially: each
// query once per level, each call a span under one root per query.
func runLadder(s spec, in *inputs, st *stack, sc *seqscan.Scan, tr *tracer, seed int64) (ladderResult, int, error) {
	var res ladderResult
	c := newClient(st.url)
	defer c.close()
	exec := concurrent.NewExecutor(st.tree, concurrent.ExecutorConfig{Workers: 1})
	defer exec.Close()
	qc := core.NewQueryContext()
	hc := newHybridCounters()
	own := map[opKind]bool{}
	for _, k := range s.ownKinds() {
		own[k] = true
	}
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	l2 := dist.L2()
	sent := 0
	for _, k := range readKinds {
		for n := 0; n < ladderSample; n++ {
			slot := rng.Intn(len(in.bodies[k]))
			root := tr.newID()
			rootStart := time.Now()
			var t [numLevels]time.Duration
			var err error
			count := 0
			for lvl := 0; lvl < numLevels && err == nil; lvl++ {
				var r0, h0, p0 uint64
				if lvl == lvlCore {
					r0, h0, p0 = hc.reads.Value(), hc.hits.Value(), hc.prunes.Value()
				}
				start := time.Now()
				switch lvl {
				case lvlHTTP:
					var status int
					status, _, err = c.post(k.path(), in.bodies[k][slot], false)
					sent++
					if err == nil && status != 200 {
						err = errStatus(status)
					}
				case lvlExec:
					switch k {
					case opKNN:
						_, err = exec.SearchKNN(ctx, in.knn[slot], knnK, l2, core.Budget{})
					case opBox:
						_, err = exec.SearchBox(ctx, in.boxes[slot], core.Budget{})
					default:
						q := in.ranges[slot]
						_, err = exec.SearchRange(ctx, q.Center, q.Radius, l2, core.Budget{})
					}
				case lvlCore:
					switch k {
					case opKNN:
						var ns []core.Neighbor
						ns, err = st.core.SearchKNNCtx(qc, in.knn[slot], knnK, l2, nil)
						count = len(ns)
					case opBox:
						var es []core.Entry
						es, err = st.core.SearchBoxCtx(qc, in.boxes[slot], nil)
						count = len(es)
					default:
						q := in.ranges[slot]
						var ns []core.Neighbor
						ns, err = st.core.SearchRangeCtx(qc, q.Center, q.Radius, l2, nil)
						count = len(ns)
					}
				case lvlFloor:
					switch k {
					case opKNN:
						_, err = sc.SearchKNN(in.knn[slot], knnK, l2)
					case opBox:
						_, err = sc.SearchBox(in.boxes[slot])
					default:
						q := in.ranges[slot]
						_, err = sc.SearchRange(q.Center, q.Radius, l2)
					}
				}
				end := time.Now()
				t[lvl] = end.Sub(start)
				tr.addSpan(tr.newID(), k.String()+"."+levelNames[lvl], root, start, end)
				if lvl == lvlCore && own[k] {
					res.reads += hc.reads.Value() - r0
					res.hits += hc.hits.Value() - h0
					res.prunes += hc.prunes.Value() - p0
					res.results += count
					res.queries++
				}
			}
			if err != nil {
				return res, sent, err
			}
			tr.addSpan(root, "ladder."+k.String(), 0, rootStart, time.Now())
			for lvl := range t {
				res.us[k][lvl] = append(res.us[k][lvl], us(t[lvl]))
			}
			if own[k] {
				res.codec = append(res.codec, us(t[lvlHTTP]-t[lvlExec]))
			}
		}
	}
	return res, sent, nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
