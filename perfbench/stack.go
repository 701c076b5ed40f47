package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"hybridtree/internal/concurrent"
	"hybridtree/internal/core"
	"hybridtree/internal/geom"
	"hybridtree/internal/obs"
	"hybridtree/internal/pagefile"
	"hybridtree/internal/server"
	"hybridtree/internal/wal"
)

// retryPolicy is htreed's read path policy (decorrelated-jitter backoff).
var retryPolicy = pagefile.RetryPolicy{
	MaxAttempts: 3,
	Backoff:     200 * time.Microsecond,
	MaxBackoff:  5 * time.Millisecond,
	Jitter:      true,
	TripAfter:   16,
	ProbeAfter:  50 * time.Millisecond,
}

// stack is one served index: the files, every layer the benchmark keeps a
// handle on, and the HTTP front door on a loopback port.
type stack struct {
	s    spec
	path string // index file; the WAL log is path+".wal"

	disk *pagefile.DiskFile
	log  *wal.FileLog // nil for read-only workloads
	walf *wal.File    // nil for read-only workloads
	core *core.Tree
	tree *concurrent.Tree
	srv  *server.Server
	reg  *obs.Registry // the server's own registry
	ring *obs.Ring
	slow *obs.SlowRecorder
	url  string

	serveErr chan error
}

func coreConfig(s spec) core.Config { return core.Config{Dim: s.dim, PageSize: pageSize} }

// setUp builds the workload's index and serves it, exactly as
// `htree build -bulk` followed by `htreed [-wal -writes]` would: bulk load
// into a fresh index file, checkpoint, reopen through
// disk → retry → [WAL with FsyncEvery=1] → concurrent.Tree → server.Server,
// then warm the decoded-node cache with one full-space pass.
func setUp(s spec, in *inputs, dir string, tr *tracer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &stack{s: s, path: filepath.Join(dir, "index.ht")}
	if err := bulkBuild(s, in, st.path, tr); err != nil {
		return nil, err
	}
	if err := st.open(tr); err != nil {
		return nil, err
	}
	// Warm pass: a full-space box query visits every node once.
	if _, err := st.core.SearchBox(geom.UnitCube(s.dim)); err != nil {
		st.abandon()
		return nil, fmt.Errorf("warm pass: %w", err)
	}
	if err := st.serve(); err != nil {
		st.abandon()
		return nil, err
	}
	return st, nil
}

func bulkBuild(s spec, in *inputs, path string, tr *tracer) error {
	disk, err := pagefile.CreateDiskFile(path, pageSize)
	if err != nil {
		return err
	}
	var f pagefile.File = disk
	if tr != nil {
		f = &pageTimer{File: disk, t: tr}
	}
	t, err := core.BulkLoad(f, coreConfig(s), in.pts, in.rids)
	if err != nil {
		disk.Close()
		return fmt.Errorf("bulk load: %w", err)
	}
	if err := t.Close(); err != nil {
		disk.Close()
		return err
	}
	if err := t.Flush(); err != nil {
		disk.Close()
		return fmt.Errorf("checkpoint: %w", err)
	}
	return f.Close()
}

// open reopens the index file through the served storage stack.
func (st *stack) open(tr *tracer) error {
	disk, err := pagefile.OpenDiskFile(st.path, pageSize)
	if err != nil {
		return err
	}
	st.disk = disk
	var f pagefile.File = disk
	if tr != nil {
		f = &pageTimer{File: disk, t: tr}
	}
	f = pagefile.NewRetryFile(f, retryPolicy)
	if st.s.writes {
		if st.log, err = wal.OpenFileLog(st.path + ".wal"); err != nil {
			disk.Close()
			return err
		}
		var log wal.LogStore = st.log
		if tr != nil {
			log = &logTimer{LogStore: st.log, t: tr}
		}
		if st.walf, _, err = wal.Open(f, log, wal.Options{FsyncEvery: 1}); err != nil {
			st.log.Close()
			disk.Close()
			return fmt.Errorf("wal open: %w", err)
		}
		f = st.walf
		if tr != nil {
			f = &txTimer{File: st.walf, t: tr}
		}
	}
	// htreed's query trace sinks: recent queries and the slowest ones.
	st.ring = obs.NewRing(256)
	st.slow = obs.NewSlowRecorder(16, 0)
	core.SetDefaultTracer(obs.Tee(st.ring, st.slow))
	if st.core, err = core.Open(f, coreConfig(st.s)); err != nil {
		st.closeFiles()
		return fmt.Errorf("open index: %w", err)
	}
	st.tree = concurrent.Wrap(st.core)
	return nil
}

// serve starts htreed's front door on a loopback port.
func (st *stack) serve() error {
	st.reg = obs.NewRegistry()
	st.srv = server.New(st.tree, server.Config{
		Dim:          st.s.dim,
		EnableWrites: st.s.writes,
		Registry:     st.reg,
		Ring:         st.ring,
		Slow:         st.slow,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.url = "http://" + ln.Addr().String()
	st.serveErr = make(chan error, 1)
	go func() { st.serveErr <- st.srv.Serve(ln) }()
	// Set-up ends when the front door answers; this also guarantees Serve
	// has started before any Shutdown.
	resp, err := http.Get(st.url + "/readyz")
	if err != nil {
		return fmt.Errorf("readiness probe: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readiness probe: status %d", resp.StatusCode)
	}
	return nil
}

// shutdown drains the front door (executor and group committer included)
// and leaves the tree and files open.
func (st *stack) shutdown() error {
	if st.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := st.srv.Shutdown(ctx)
	if e := <-st.serveErr; e != nil && !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	st.srv = nil
	return err
}

// close drains the server, checkpoints and closes everything, in
// `htree build`'s order: persist the tree's metadata, then checkpoint.
func (st *stack) close() error {
	err := st.shutdown()
	if e := st.tree.Close(); e != nil && err == nil {
		err = e
	}
	if e := st.tree.Flush(); e != nil && err == nil {
		err = e
	}
	if e := st.closeFiles(); e != nil && err == nil {
		err = e
	}
	return err
}

// abandon drops the stack the way a killed process would: no checkpoint,
// the log and the index file are closed as they stand.
func (st *stack) abandon() {
	_ = st.shutdown()
	_ = st.closeFiles()
}

func (st *stack) closeFiles() error {
	var err error
	if st.log != nil {
		err = st.log.Close()
	}
	if e := st.disk.Close(); e != nil && err == nil {
		err = e
	}
	return err
}

// diskBytes is the index file plus the WAL log, as the file system has them.
func (st *stack) diskBytes() (int64, error) {
	var total int64
	for _, p := range []string{st.path, st.path + ".wal"} {
		fi, err := os.Stat(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}
