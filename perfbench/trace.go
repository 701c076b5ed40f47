package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"hybridtree/internal/pagefile"
	"hybridtree/internal/wal"
)

// phase tags what the stack is doing when a wrapped call happens, so
// physical I/O can be split between set-up and the timed phases.
type phase int32

const (
	phaseOther phase = iota // checks, the ladder, shutdown
	phaseSetup
	phaseTimed
	numPhases
)

// layerOp names one timed boundary call.
type layerOp int

const (
	pageRead layerOp = iota
	pageWrite
	pageSync
	walSeal
	walAppend
	walFsync
	numLayerOps
)

var layerOpNames = [numLayerOps]string{
	"pagefile.read", "pagefile.write", "pagefile.sync",
	"wal.seal", "wal.append", "wal.fsync",
}

// span is one timed call, kept in memory and written out at the end of
// the run. Spans of one ladder query share a parent; wrapper spans have
// no parent because the program's layers do not pass a request identity
// down to the page file or the log.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Phase  string `json:"phase"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log; later spans are counted, not kept.
const maxSpans = 1 << 18

var phaseNames = [numPhases]string{"other", "setup", "timed"}

// tracer records spans and per-phase call durations at the boundaries the
// benchmark wraps. A nil *tracer records nothing: the untraced run builds
// the stack without any wrapper at all.
type tracer struct {
	t0      time.Time
	on      atomic.Bool // false: wrappers forward without timing
	phase   atomic.Int32
	nextID  atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
	// durs[phase][op] holds call durations in microseconds.
	durs [numPhases][numLayerOps][]float64
	// logBytes[phase] counts bytes appended to the WAL log.
	logBytes [numPhases]int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

func (t *tracer) setPhase(p phase) { t.phase.Store(int32(p)) }

// resetPhase forgets everything recorded in phase p (each repeated set-up
// starts afresh, so the report describes the set-up that is served).
func (t *tracer) resetPhase(p phase) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for op := range t.durs[p] {
		t.durs[p][op] = nil
	}
	t.logBytes[p] = 0
}

func (t *tracer) newID() uint64 { return t.nextID.Add(1) }

// record stores one finished call: a span and its duration in the current
// phase's bucket for op.
func (t *tracer) record(op layerOp, start, end time.Time) {
	p := phase(t.phase.Load())
	t.mu.Lock()
	t.durs[p][op] = append(t.durs[p][op], float64(end.Sub(start).Nanoseconds())/1e3)
	t.mu.Unlock()
	t.addSpan(t.newID(), layerOpNames[op], 0, start, end)
}

// addSpan keeps one span; parent 0 marks a root.
func (t *tracer) addSpan(id uint64, name string, parent uint64, start, end time.Time) {
	p := phase(t.phase.Load())
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Phase: phaseNames[p],
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
}

// calls returns a copy of the durations recorded for op in phase p.
func (t *tracer) calls(p phase, op layerOp) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.durs[p][op]...)
}

func (t *tracer) appended(p phase) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.logBytes[p]
}

// writeSpans dumps the span log as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	if t.dropped > 0 {
		fmt.Fprintf(w, "{\"dropped_spans\":%d}\n", t.dropped)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timed runs fn as one call of op when tracing is on.
func (t *tracer) timed(op layerOp, fn func() error) error {
	if !t.on.Load() {
		return fn()
	}
	start := time.Now()
	err := fn()
	t.record(op, start, time.Now())
	return err
}

// pageTimer times the physical page file under the retry layer and the
// WAL. core reads through its never-evicting node cache, so these are the
// real page reads; pagefile.Stats.RandomReads counts logical node visits.
type pageTimer struct {
	pagefile.File
	t *tracer
}

func (p *pageTimer) ReadPage(id pagefile.PageID, buf []byte) error {
	return p.t.timed(pageRead, func() error { return p.File.ReadPage(id, buf) })
}

func (p *pageTimer) ReadPageSeq(id pagefile.PageID, buf []byte) error {
	return p.t.timed(pageRead, func() error { return p.File.ReadPageSeq(id, buf) })
}

func (p *pageTimer) WritePage(id pagefile.PageID, data []byte) error {
	return p.t.timed(pageWrite, func() error { return p.File.WritePage(id, data) })
}

func (p *pageTimer) Sync() error {
	return p.t.timed(pageSync, p.File.Sync)
}

// txTimer times SealTx on the WAL file. core type-asserts pagefile.TxFile
// on the file it is opened over, which this forwarding wrapper satisfies.
type txTimer struct {
	*wal.File
	t *tracer
}

func (x *txTimer) SealTx() error { return x.t.timed(walSeal, x.File.SealTx) }

// logTimer times the WAL's log appends and fsyncs and counts appended bytes.
type logTimer struct {
	wal.LogStore
	t *tracer
}

func (l *logTimer) Append(b []byte) error {
	p := phase(l.t.phase.Load())
	l.t.mu.Lock()
	l.t.logBytes[p] += int64(len(b))
	l.t.mu.Unlock()
	return l.t.timed(walAppend, func() error { return l.LogStore.Append(b) })
}

func (l *logTimer) Sync() error { return l.t.timed(walFsync, l.LogStore.Sync) }
