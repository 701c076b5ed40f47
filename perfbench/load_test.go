package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// fakeServer answers /v1/knn at once, except that the stallAt-th request
// (0-based) stalls for stall.
func fakeServer(stallAt int64, stall time.Duration) *httptest.Server {
	var n atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)-1 == stallAt {
			time.Sleep(stall)
		}
		w.Write([]byte(`{"outcome":"ok","count":0}`))
	}))
}

func sendTo(c *client) sendFunc {
	return func(_, _ int) (request, bool) {
		status, _, err := c.post("/v1/knn", []byte(`{}`), false)
		return request{kind: opKNN}, err == nil && status == 200
	}
}

// One stalled answer delays every request due behind it. Timed from the
// scheduled send time the queueing shows; timed from the actual send (a
// closed-loop client's view) it would not.
func TestOpenLoopShowsQueueingBehindStall(t *testing.T) {
	const stall = 200 * time.Millisecond
	srv := fakeServer(10, stall)
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()

	res := openLoop(200, 0, 120, 1, sendTo(c))
	var queued, slowRTT int
	var worst time.Duration
	for _, r := range res.recs {
		if !r.ok {
			t.Fatalf("request %d failed", r.i)
		}
		if time.Duration(r.sent-r.due) > 50*time.Millisecond {
			queued++
		}
		if time.Duration(r.done-r.sent) > 50*time.Millisecond {
			slowRTT++
		}
		worst = max(worst, r.latency())
	}
	if worst < stall {
		t.Errorf("worst due-time latency %v, want at least the %v stall", worst, stall)
	}
	// At 200/s a 200 ms stall holds back about 40 requests; each waits
	// more than 50 ms, yet only the stalled one has a slow round trip.
	if queued < 20 {
		t.Errorf("%d requests waited over 50 ms behind the stall, want at least 20", queued)
	}
	if slowRTT != 1 {
		t.Errorf("%d requests had a slow round trip, want exactly the stalled one", slowRTT)
	}
	if res.lag < stall-20*time.Millisecond {
		t.Errorf("generator lag %v, want about the stall", res.lag)
	}
	if err := res.check(200, 1); err != nil {
		t.Errorf("the stall drains before the phase ends, yet: %v", err)
	}
}

// A rate above capacity leaves a backlog, and the run fails instead of
// reporting a latency.
func TestOpenLoopRejectsGrowingBacklog(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond) // capacity 200/s on one connection
		w.Write([]byte(`{}`))
	}))
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	res := openLoop(1000, 0, 300, 1, sendTo(c))
	if err := res.check(1000, 1); err == nil {
		t.Fatalf("backlog %v at 5x capacity passed the check", res.backlogs)
	}
}

// A stall at the end of one segment leaves a backlog there only, and the
// run stands; a backlog at the end of half the segments or more fails it.
func TestBacklogCheckNeedsHalfTheSegments(t *testing.T) {
	lim := backlogLimit(400, 2) // 20 requests
	stall := openResult{backlogs: []int{0, 1, 90, 0, 2, 1}}
	if err := stall.check(400, 2); err != nil {
		t.Errorf("one stalled segment of six failed the run: %v", err)
	}
	over := openResult{backlogs: []int{lim + 1, 0, lim + 5, 1, lim + 9, 0}}
	if err := over.check(400, 2); err == nil {
		t.Errorf("backlogs %v above %d in half the segments passed the check", over.backlogs, lim)
	}
	if got := over.maxBacklog(); got != lim+9 {
		t.Errorf("maxBacklog = %d, want %d", got, lim+9)
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	srv := fakeServer(-1, 0)
	defer srv.Close()
	c := newClient(srv.URL)
	defer c.close()
	res := closedLoop(100*time.Millisecond, 5, 1, sendTo(c))
	if len(res.recs) == 0 || res.recs[0].i != 5 {
		t.Fatalf("closed loop sent %d requests, first %v", len(res.recs), res.recs)
	}
	if res.elapsed > time.Second {
		t.Errorf("closed loop ran %v for a 100 ms phase", res.elapsed)
	}
}
