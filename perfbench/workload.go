package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"hybridtree/internal/core"
	"hybridtree/internal/dataset"
	"hybridtree/internal/dist"
	"hybridtree/internal/geom"
	"hybridtree/internal/workload"
)

// opKind is one request type of a workload's traffic mix.
type opKind int

const (
	opKNN opKind = iota
	opBox
	opRange
	opInsert
	opDelete
	numKinds
)

var kindNames = [numKinds]string{"knn", "box", "range", "insert", "delete"}

func (k opKind) String() string { return kindNames[k] }
func (k opKind) write() bool    { return k == opInsert || k == opDelete }
func (k opKind) path() string   { return "/v1/" + kindNames[k] }

// readKinds are the query kinds the traced ladder replays on every workload.
var readKinds = []opKind{opKNN, opBox, opRange}

const (
	knnK     = 10
	pageSize = 4096
	// queryPool is how many distinct queries of each kind requests draw
	// from. Box sides and range radii are calibrated over the first
	// calibrationQueries centers, few enough for the paper's bisection to
	// run in about a second at 64 dimensions.
	queryPool          = 1024
	calibrationQueries = 128
	// freshPoints is the pool of never-loaded points inserts draw from.
	freshPoints = 20000
)

// spec is one benchmark workload: a dataset, its size, and a traffic mix.
type spec struct {
	name    string
	dataset string // "fourier" or "colhist"
	dim     int
	points  int
	// selectivity is the paper's constant query selectivity for the
	// dataset, used to calibrate box sides and range radii.
	selectivity float64
	mix         [numKinds]float64 // weights, summing to 1
	writes      bool              // serve writes through the WAL
}

var specs = []spec{
	{
		name: "knn-fourier16", dataset: "fourier", dim: 16, points: 100000,
		selectivity: workload.FourierSelectivity,
		mix:         [numKinds]float64{opKNN: 1},
	},
	{
		name: "boxrange-colhist64", dataset: "colhist", dim: 64, points: 70000,
		selectivity: workload.ColHistSelectivity,
		mix:         [numKinds]float64{opBox: 0.7, opRange: 0.3},
	},
	{
		name: "rw-fourier16", dataset: "fourier", dim: 16, points: 100000,
		selectivity: workload.FourierSelectivity,
		mix:         [numKinds]float64{opKNN: 0.5, opInsert: 0.25, opDelete: 0.25},
		writes:      true,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// ownKinds are the read kinds in the workload's own traffic.
func (s spec) ownKinds() []opKind {
	var ks []opKind
	for _, k := range readKinds {
		if s.mix[k] > 0 {
			ks = append(ks, k)
		}
	}
	return ks
}

// userBytes is the size of one record as a user hands it over: the vector
// as float32s plus a 64-bit record id.
func (s spec) userBytes() int { return s.dim*4 + 8 }

// inputs are everything a run sends, generated from the seeds before setup.
type inputs struct {
	pts    []geom.Point
	rids   []core.RecordID
	fresh  []geom.Point // insert candidates, never loaded
	perm   []int        // delete targets in request-index order
	knn    []geom.Point // k-NN query points, drawn from the data
	boxes  []geom.Rect
	ranges []workload.RangeQuery
	// bodies holds the encoded request body of every pooled read query.
	bodies [numKinds][][]byte
}

func makeInputs(s spec, points int, dataSeed, querySeed int64) (*inputs, error) {
	n := points
	extra := 0
	if s.writes {
		extra = freshPoints
	}
	var all []geom.Point
	switch s.dataset {
	case "fourier":
		all = dataset.Fourier(n+extra, s.dim, dataSeed)
	case "colhist":
		all = dataset.ColHist(n+extra, s.dim, dataSeed)
	default:
		return nil, fmt.Errorf("unknown dataset %q", s.dataset)
	}
	in := &inputs{pts: all[:n], fresh: all[n:]}
	in.rids = make([]core.RecordID, n)
	for i := range in.rids {
		in.rids[i] = core.RecordID(i)
	}
	rng := rand.New(rand.NewSource(querySeed))
	in.perm = rng.Perm(n)
	_, side, err := workload.BoxQueries(in.pts, calibrationQueries, s.selectivity, querySeed+1)
	if err != nil {
		return nil, err
	}
	_, radius, err := workload.RangeQueries(in.pts, calibrationQueries, s.selectivity, dist.L2(), querySeed+2)
	if err != nil {
		return nil, err
	}
	for i := 0; i < queryPool; i++ {
		in.knn = append(in.knn, in.pts[rng.Intn(n)])
		in.boxes = append(in.boxes, boxAround(in.pts[rng.Intn(n)], side))
		in.ranges = append(in.ranges, workload.RangeQuery{Center: in.pts[rng.Intn(n)], Radius: radius})
	}
	for _, q := range in.knn {
		in.bodies[opKNN] = append(in.bodies[opKNN], mustJSON(knnBody{Point: q, K: knnK}))
	}
	for _, q := range in.boxes {
		in.bodies[opBox] = append(in.bodies[opBox], mustJSON(boxBody{Lo: q.Lo, Hi: q.Hi}))
	}
	for _, q := range in.ranges {
		in.bodies[opRange] = append(in.bodies[opRange], mustJSON(rangeBody{Point: q.Center, Radius: q.Radius}))
	}
	return in, nil
}

// boxAround is the calibrated query box of the given side centred on c,
// clipped to the unit cube, as workload.BoxQueries builds its boxes.
func boxAround(c geom.Point, side float64) geom.Rect {
	lo := make(geom.Point, len(c))
	hi := make(geom.Point, len(c))
	h := float32(side / 2)
	for d := range c {
		lo[d] = max(c[d]-h, 0)
		hi[d] = min(c[d]+h, 1)
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

// Wire bodies of the htreed /v1 endpoints.
type knnBody struct {
	Point []float32 `json:"point"`
	K     int       `json:"k"`
}

type boxBody struct {
	Lo []float32 `json:"lo"`
	Hi []float32 `json:"hi"`
}

type rangeBody struct {
	Point  []float32 `json:"point"`
	Radius float64   `json:"radius"`
}

type writeBody struct {
	Point []float32 `json:"point"`
	RID   uint64    `json:"rid"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of numbers are encoded
	}
	return b
}

// request is one generated request: its kind, its pool slot (reads) and
// the write it carries (inserts and deletes).
type request struct {
	kind  opKind
	slot  int
	point geom.Point
	rid   core.RecordID
}

// splitmix64 is the SplitMix64 finalizer: a bijective mix of a 64-bit
// counter, so request i's choices depend only on (seed, i) and never on
// the order goroutines draw requests in.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// gen produces a workload's requests by index.
type gen struct {
	s    spec
	in   *inputs
	seed uint64
}

// at returns request i of the workload's mix.
func (g *gen) at(i int) request { return g.pick(i, nil) }

// pick returns request i, its kind drawn from the workload's mix cut down
// to the kinds keep accepts (nil keeps all). Inserts take fresh points
// with record ids above every loaded one; deletes take loaded points in a
// seeded order, so no two deletes target the same record while i stays
// below the point count.
func (g *gen) pick(i int, keep func(opKind) bool) request {
	h := splitmix64(g.seed ^ uint64(i)*0x9e3779b97f4a7c15)
	total := 0.0
	for k := opKind(0); k < numKinds; k++ {
		if keep == nil || keep(k) {
			total += g.s.mix[k]
		}
	}
	u := float64(h>>11) / (1 << 53) * total
	kind := opKind(-1)
	acc := 0.0
	for k := opKind(0); k < numKinds; k++ {
		if g.s.mix[k] == 0 || (keep != nil && !keep(k)) {
			continue
		}
		kind = k // the last kept kind also absorbs rounding at u ≈ total
		acc += g.s.mix[k]
		if u < acc {
			break
		}
	}
	r := request{kind: kind}
	switch kind {
	case opInsert:
		r.point = g.in.fresh[i%len(g.in.fresh)]
		r.rid = core.RecordID(len(g.in.pts) + i)
	case opDelete:
		j := g.in.perm[i%len(g.in.perm)]
		r.point, r.rid = g.in.pts[j], g.in.rids[j]
	default:
		r.slot = int(splitmix64(h) % uint64(len(g.in.bodies[kind])))
	}
	return r
}

func isRead(k opKind) bool { return !k.write() }

// body encodes request r for the wire.
func (g *gen) body(r request) []byte {
	if r.kind.write() {
		return mustJSON(writeBody{Point: r.point, RID: uint64(r.rid)})
	}
	return g.in.bodies[r.kind][r.slot]
}
