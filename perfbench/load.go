package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// client is one keep-alive connection to the server: each load worker owns
// one, so a phase never holds more connections than it has workers.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends one request. With keep false the response body is drained
// and dropped; it is read either way so the connection is reused.
func (c *client) post(path string, body []byte, keep bool) (int, []byte, error) {
	resp, err := c.hc.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if !keep {
		_, err = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil, err
	}
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// sendFunc issues request i on connection conn and reports the request
// and whether it succeeded (a 2xx answer).
type sendFunc func(conn, i int) (request, bool)

// rec is one request's timeline, in nanoseconds since the phase started:
// when it was due, when it was sent, when its answer was complete.
type rec struct {
	i               int
	req             request
	ok              bool
	due, sent, done int64
}

// latency is the request's latency from its scheduled send time — the
// client-visible delay, queueing behind earlier slow requests included.
func (r rec) latency() time.Duration { return time.Duration(r.done - r.due) }

// openResult is an open-loop phase: every request and how far behind its
// schedule the generator fell.
type openResult struct {
	recs []rec
	// backlogs holds, per open-loop segment, the number of requests not
	// yet sent when the segment's last arrival slot ended. A sustainable
	// rate leaves at most a request per connection; an unsustainable one
	// leaves a backlog that grows with the segment length.
	backlogs []int
	// lag is the largest delay between a request's due time and its send.
	lag time.Duration
}

// openLoop sends requests first..first+n-1 at a fixed rate over conns
// connections. Request i is due at start + (i-first)/rate whether or not
// earlier requests have completed; a worker that falls behind sends late
// requests at once, and the lateness counts in every latency.
func openLoop(rate float64, first, n, conns int, send sendFunc) openResult {
	interval := time.Duration(float64(time.Second) / rate)
	recs := make([]rec, n)
	start := time.Now().Add(2 * time.Millisecond)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for {
				j := int(next.Add(1) - 1)
				if j >= n {
					return
				}
				due := time.Duration(j) * interval
				sleepUntil(start.Add(due))
				sent := time.Since(start)
				req, ok := send(conn, first+j)
				recs[j] = rec{i: first + j, req: req, ok: ok,
					due: int64(due), sent: int64(sent), done: int64(time.Since(start))}
			}
		}(c)
	}
	wg.Wait()
	res := openResult{recs: recs, backlogs: []int{0}}
	end := int64(time.Duration(n) * interval)
	for _, r := range recs {
		if r.sent > end {
			res.backlogs[0]++
		}
		if lag := time.Duration(r.sent - r.due); lag > res.lag {
			res.lag = lag
		}
	}
	return res
}

// sleepUntil blocks the calling goroutine until t. It sleeps in the
// nanosleep system call rather than on a runtime timer: Go's timers wake
// through the network poller at millisecond granularity, which would add
// up to a millisecond of generator lag to every request.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// backlogLimit is the largest end-of-phase backlog a sustainable rate may
// leave: 50 ms of arrivals, and never less than two requests a connection.
func backlogLimit(rate float64, conns int) int {
	return max(2*conns, int(rate*0.05))
}

// closedResult is a saturation phase: what completed, over how long.
type closedResult struct {
	recs    []rec
	elapsed time.Duration
}

// closedLoop keeps conns connections busy for d: each sends its next
// request as soon as the previous answer arrives. Requests are numbered
// from first upwards in the order workers claim them.
func closedLoop(d time.Duration, first, conns int, send sendFunc) closedResult {
	start := time.Now()
	stop := start.Add(d)
	var next atomic.Int64
	next.Store(int64(first))
	per := make([][]rec, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				sent := time.Since(start)
				req, ok := send(conn, i)
				per[conn] = append(per[conn], rec{i: i, req: req, ok: ok,
					due: int64(sent), sent: int64(sent), done: int64(time.Since(start))})
			}
		}(c)
	}
	wg.Wait()
	res := closedResult{elapsed: time.Since(start)}
	for _, rs := range per {
		res.recs = append(res.recs, rs...)
	}
	return res
}

// rounds is how many times the timed phases alternate. Each round is an
// open-loop segment at the fixed rate followed by a closed-loop saturation
// slice, so both kinds of figure sample the whole run rather than one end
// of it. Saturation throughput is the median slice, so one disturbed slice
// does not move it.
const rounds = 6

// satResult is the saturation phase: every slice merged, the median slice
// throughputs, and (traced) the tracing overhead — untraced over traced
// throughput, minus one, from slices run with the wrappers off and on.
type satResult struct {
	closedResult
	readOps, writeOps float64 // acknowledged per second
	overhead          float64
}

// timedPhases runs the rounds. afterFirst runs once, after the first
// open-loop segment, when a fixed number of requests has been sent.
// A traced run alternates its wrappers off and on between saturation
// slices; open-loop segments always run traced.
func timedPhases(rate, seconds float64, conns int, openSend, satSend sendFunc, tr *tracer, afterFirst func(openResult)) (openResult, satResult) {
	var open openResult
	var sat satResult
	perOpen := max(1, int(rate*seconds*openShare/rounds))
	slice := time.Duration(seconds * (1 - openShare) / rounds * float64(time.Second))
	var reads, writes []float64
	var done, secs [2]float64 // by wrappers off, on
	next := 0
	for r := 0; r < rounds; r++ {
		o := openLoop(rate, next, perOpen, conns, openSend)
		next += perOpen
		open.recs = append(open.recs, o.recs...)
		open.backlogs = append(open.backlogs, o.backlogs...)
		open.lag = max(open.lag, o.lag)
		if r == 0 {
			afterFirst(o)
		}
		on := r % 2
		if tr != nil {
			tr.on.Store(on == 1)
		}
		c := closedLoop(slice, next, conns, satSend)
		if tr != nil {
			tr.on.Store(true)
		}
		next += len(c.recs)
		var nr, nw float64
		for _, x := range c.recs {
			switch {
			case !x.ok:
			case x.req.kind.write():
				nw++
			default:
				nr++
			}
		}
		el := c.elapsed.Seconds()
		reads = append(reads, nr/el)
		writes = append(writes, nw/el)
		done[on] += float64(len(c.recs))
		secs[on] += el
		sat.recs = append(sat.recs, c.recs...)
		sat.elapsed += c.elapsed
	}
	sat.readOps, sat.writeOps = median(reads), median(writes)
	if tr != nil {
		sat.overhead = ratio(done[0]/secs[0], done[1]/secs[1]) - 1
	}
	return open, sat
}

// httpSender sends generated requests over one client per connection.
type httpSender struct {
	g       *gen
	clients []*client
}

func newHTTPSender(g *gen, base string, conns int) *httpSender {
	h := &httpSender{g: g}
	for c := 0; c < conns; c++ {
		h.clients = append(h.clients, newClient(base))
	}
	return h
}

// send issues request i of the workload's mix.
func (h *httpSender) send(conn, i int) (request, bool) {
	return h.post(conn, h.g.at(i))
}

// sendSplit gives even connections the mix's reads and odd connections its
// writes. Saturation uses it on a workload with writes: a closed loop
// over the mixed stream would tie read throughput to fsync latency, which
// swings with the disk from run to run, while one reader and one writer
// saturate each path on its own.
func (h *httpSender) sendSplit(conn, i int) (request, bool) {
	if conn%2 == 1 {
		return h.post(conn, h.g.pick(i, opKind.write))
	}
	return h.post(conn, h.g.pick(i, isRead))
}

func (h *httpSender) post(conn int, r request) (request, bool) {
	status, _, err := h.clients[conn].post(r.kind.path(), h.g.body(r), false)
	return r, err == nil && status/100 == 2
}

func (h *httpSender) close() {
	for _, c := range h.clients {
		c.close()
	}
}

// maxBacklog is the largest end-of-segment backlog.
func (o openResult) maxBacklog() int {
	return slices.Max(append([]int{0}, o.backlogs...))
}

// check reports an unsustainable open-loop rate: one that left more than
// the limit unsent at the end of at least half the segments. A rate above
// capacity does so at the end of every segment. A host stall of more than
// 50 ms just before one segment ends does so at the end of that segment
// only; the requests it held back still count in the latencies.
func (o openResult) check(rate float64, conns int) error {
	lim := backlogLimit(rate, conns)
	over := 0
	for _, b := range o.backlogs {
		if b > lim {
			over++
		}
	}
	if over > 0 && 2*over >= len(o.backlogs) {
		return fmt.Errorf("open loop at %.0f ops/s left a backlog above %d requests in %d of %d segments (backlogs %v, generator %v late): the rate is above capacity",
			rate, lim, over, len(o.backlogs), o.backlogs, o.lag.Round(time.Millisecond))
	}
	return nil
}
