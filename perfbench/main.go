// Command perfbench is the repository's end-to-end benchmark. It builds the
// stack cmd/htreed serves — disk → retry (jittered) → [WAL, FsyncEvery=1,
// group commit] → concurrent.Tree → server.Server — in one process, drives
// it over loopback HTTP from a seeded open-loop generator and then a
// closed-loop saturation phase, checks the answers against a flat scan,
// and prints one JSON result line. With -trace 1 it instead reports
// per-layer metrics from timing wrappers at the page-file and log
// boundaries and a serial replay of one query sample down the layers.
// NOTES.md explains the workloads and every metric.
//
//	bash perfbench/run.sh --workload knn-fourier16 --seed 1 --seconds 20 --trace 0 \
//	    --rate knn-fourier16=300
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hybridtree/internal/obs"
	"hybridtree/internal/perf"
	"hybridtree/internal/wal"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	dataSeed int64
	seconds  float64
	trace    bool
	rate     float64
	points   int // 0: the workload's own size (tests run smaller)
	setups   int
	conns    int
	dir      string
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 3

// openShare is the share of --seconds spent in open-loop segments; the
// rest goes to closed-loop saturation slices.
const openShare = 0.6

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type errStatus int

func (e errStatus) Error() string { return "HTTP status " + strconv.Itoa(int(e)) }

// rateFlags collects repeated --rate name=ops/s settings.
type rateFlags map[string]float64

func (r rateFlags) String() string { return fmt.Sprint(map[string]float64(r)) }

func (r rateFlags) Set(v string) error {
	name, val, ok := strings.Cut(v, "=")
	f, err := strconv.ParseFloat(val, 64)
	if !ok || err != nil || f <= 0 {
		return fmt.Errorf("want <workload>=<ops/s>, got %q", v)
	}
	r[name] = f
	return nil
}

func main() {
	rates := rateFlags{}
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload name, or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "query and request seed")
	flag.Int64Var(&cfg.dataSeed, "data-seed", 1, "dataset seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "seconds measured (open loop, then saturation)")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Var(rates, "rate", "open-loop rate as <workload>=<ops/s> (repeatable, required per workload)")
	flag.StringVar(&cfg.dir, "dir", ".bench_build/runs", "scratch directory for index files and span dumps")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatal("-trace must be 0 or 1")
	}
	// One client connection per CPU: the generator must not out-multiplex
	// the machine it shares with the server.
	cfg.conns = runtime.NumCPU()
	cfg.setups = setups
	if cfg.workload == "all" {
		os.Exit(runAll())
	}
	s, ok := specByName(cfg.workload)
	if !ok {
		fatal(fmt.Sprintf("unknown -workload %q (want %s or all)", cfg.workload, workloadNames()))
	}
	if cfg.rate = rates[s.name]; cfg.rate == 0 {
		fatal(fmt.Sprintf("missing -rate %s=<ops/s>", s.name))
	}
	env, _ := json.Marshal(perf.CaptureEnv())
	fmt.Printf("# env %s\n", env)
	res, err := run(s, cfg, os.Stdout)
	if err != nil && res.Metrics == nil {
		fatal(err.Error())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fatal(jerr.Error())
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ")
}

// runAll runs every workload in its own process, one after another, with
// the remaining flags, and returns the worst exit status.
func runAll() int {
	self, err := os.Executable()
	if err != nil {
		fatal(err.Error())
	}
	var rest []string
	for i := 1; i < len(os.Args); i++ {
		a := os.Args[i]
		if a == "-workload" || a == "--workload" {
			i++
			continue
		}
		if strings.HasPrefix(a, "-workload=") || strings.HasPrefix(a, "--workload=") {
			continue
		}
		rest = append(rest, a)
	}
	code := 0
	for _, s := range specs {
		fmt.Printf("# workload %s\n", s.name)
		cmd := exec.Command(self, append([]string{"-workload", s.name}, rest...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", s.name, err)
			code = 1
		}
	}
	return code
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
	os.Exit(2)
}

// counters are the program's own obs counters the traced run reads as
// deltas over the timed phases.
type counters struct {
	shed, commits, fsyncs, batches uint64
	batchSum, batchCount           uint64
	gcs                            uint32
	cpu                            time.Duration
}

func readCounters() counters {
	r := obs.Default()
	bs := r.Histogram("wal_group_commit_batch_size")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		shed:       obs.NewOutcomes(r, "concurrent_request_outcomes_total").Get(obs.OutcomeShed).Value(),
		commits:    r.Counter("wal_commits_total").Value(),
		fsyncs:     r.Counter("wal_fsyncs_total").Value(),
		batches:    r.Counter("wal_group_commit_batches_total").Value(),
		batchSum:   bs.Sum(),
		batchCount: bs.Count(),
		gcs:        ms.NumGC,
		cpu:        cpuTime(),
	}
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcPausesSince returns the stop-the-world pauses (µs) of the collections
// after cycle n, as far back as the runtime's 256-entry ring reaches.
func gcPausesSince(n uint32) []float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var out []float64
	for c := ms.NumGC; c > n && ms.NumGC-c < uint32(len(ms.PauseNs)); c-- {
		out = append(out, float64(ms.PauseNs[(c+255)%256])/1e3)
	}
	return out
}

// run executes one workload and returns its result. A non-nil error with
// a result means a check failed after measuring; the result says so.
func run(s spec, cfg config, out io.Writer) (result, error) {
	points := s.points
	if cfg.points > 0 {
		points = cfg.points
	}
	in, err := makeInputs(s, points, cfg.dataSeed, cfg.seed)
	if err != nil {
		return result{}, err
	}
	g := &gen{s: s, in: in, seed: uint64(cfg.seed)}
	dir := filepath.Join(cfg.dir, fmt.Sprintf("%s-seed%d-pid%d", s.name, cfg.seed, os.Getpid()))
	defer os.RemoveAll(dir)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	wal.RegisterMetrics()
	sampler := obs.StartRuntimeSampler(obs.Default(), 0)
	defer sampler.Stop()

	// Set-up, repeated; the last one is served.
	var st *stack
	var setupTimes []float64
	for k := 0; k < cfg.setups; k++ {
		if tr != nil {
			tr.resetPhase(phaseSetup)
			tr.setPhase(phaseSetup)
		}
		sub := filepath.Join(dir, fmt.Sprintf("setup%d", k))
		start := time.Now()
		next, err := setUp(s, in, sub, tr)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if k == cfg.setups-1 {
			st = next
			break
		}
		if err := next.close(); err != nil {
			return result{}, fmt.Errorf("set-up: close: %w", err)
		}
		os.RemoveAll(sub)
	}
	if tr != nil {
		tr.setPhase(phaseTimed)
	}

	// Timed phases: rounds of open loop at the fixed rate and saturation.
	c0 := readCounters()
	sender := newHTTPSender(g, st.url, cfg.conns)
	// bytes_per_user_byte is taken after the first open-loop segment, when
	// a fixed number of requests (and so of writes) has been sent.
	var diskBytes int64
	var diskErr error
	userRecords := len(in.pts)
	satSend := sender.send
	if s.writes && cfg.conns > 1 {
		satSend = sender.sendSplit
	}
	open, sat := timedPhases(cfg.rate, cfg.seconds, cfg.conns, sender.send, satSend, tr, func(o openResult) {
		for _, r := range o.recs {
			if r.ok && r.req.kind == opInsert {
				userRecords++
			} else if r.ok && r.req.kind == opDelete {
				userRecords--
			}
		}
		diskBytes, diskErr = st.diskBytes()
	})
	sender.close()
	if diskErr != nil {
		st.abandon()
		return result{}, diskErr
	}
	c1 := readCounters()
	serverNs := st.reg.Histogram("server_request_ns")
	srvP50, srvP99 := serverNs.Quantile(0.5)/1e3, serverNs.Quantile(0.99)/1e3
	retired := st.core.RetiredVersions()
	overlay := 0
	if st.walf != nil {
		overlay = st.walf.OverlayPages()
	}
	if tr != nil {
		tr.setPhase(phaseOther)
	}
	pauses := gcPausesSince(c0.gcs)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	m := measure(open, sat)
	attempted, failed := m.attempted, m.failed
	e2e := map[string]float64{
		"setup_s":             median(setupTimes),
		"read_p50_ms":         m.readP50,
		"mem_mb":              float64(ms.HeapAlloc) / (1 << 20),
		"bytes_per_user_byte": float64(diskBytes) / float64(userRecords*s.userBytes()),
	}

	// Correctness: a sample of server answers against the scan, over the
	// data the acknowledged writes leave.
	var fails []string
	w := collectWrites(append(open.recs, sat.recs...))
	pts, rids, err := liveSet(in, w, func(r request) (bool, error) {
		got, err := st.core.SearchPoint(r.point)
		return slices.Contains(got, r.rid), err
	})
	if err != nil {
		st.abandon()
		return result{}, err
	}
	sc, err := newScan(s.dim, pts, rids)
	if err != nil {
		st.abandon()
		return result{}, err
	}
	chk := newClient(st.url)
	n, err := checkAnswers(s, in, chk, sc, cfg.seed)
	chk.close()
	attempted += n
	if err != nil {
		failed++
		fails = append(fails, err.Error())
	}
	var lad ladderResult
	if tr != nil {
		var sent int
		lad, sent, err = runLadder(s, in, st, sc, tr, cfg.seed)
		attempted += sent
		if err != nil {
			failed++
			fails = append(fails, "ladder: "+err.Error())
		}
	}
	var dur durability
	if s.writes {
		if err := st.shutdown(); err != nil {
			fails = append(fails, "drain: "+err.Error())
		}
		if dur, err = checkDurability(st, w, len(pts), tr); err != nil {
			fails = append(fails, "durability: "+err.Error())
		}
	} else if err := st.close(); err != nil {
		fails = append(fails, "close: "+err.Error())
	}
	if err := open.check(cfg.rate, cfg.conns); err != nil {
		fails = append(fails, err.Error())
	}
	if m.failed > 0 {
		fails = append(fails, fmt.Sprintf("%d of %d timed requests failed", m.failed, m.attempted))
	}

	layer := map[string]float64{
		"read_p99_ms":  m.readP99,
		"read_ops_s":   m.readOps,
		"write_p50_ms": m.writeP50,
		"write_p99_ms": m.writeP99,
		"write_ops_s":  m.writeOps,
		"fail_ratio":   ratio(float64(failed), float64(attempted)),
	}
	if tr != nil {
		addLayerMetrics(layer, s, tr, open, lad, c0, c1, pauses, m.ops)
		layer["server.request_us.p50"] = srvP50
		layer["server.request_us.p99"] = srvP99
		layer["core.retired_versions"] = float64(retired)
		layer["wal.overlay_pages"] = float64(overlay)
		layer["wal.recovery_s"] = dur.recovery.Seconds()
		layer["wal.checkpoint_s"] = dur.checkpoint.Seconds()
		layer["trace.overhead_frac"] = sat.overhead
		layer["wal.log_bytes_per_user_byte"] = ratio(float64(tr.appended(phaseTimed)), float64(m.writesOK*s.userBytes()))
		if err := os.MkdirAll(filepath.Dir(dir), 0o755); err == nil {
			spans := filepath.Join(filepath.Dir(dir), fmt.Sprintf("spans-%s-seed%d.jsonl", s.name, cfg.seed))
			if err := tr.writeSpans(spans); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			}
		}
	}
	for name, v := range e2e {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fails = append(fails, fmt.Sprintf("%s is unbounded: too many requests failed", name))
			e2e[name] = 0
		}
	}

	res := result{Correct: len(fails) == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	report(out, s, cfg, e2e, layer, tr != nil)
	declared := endToEnd
	values := e2e
	if tr != nil {
		declared, values = perLayer, layer
	}
	for name, unit := range declared {
		v := values[name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	if len(fails) > 0 {
		return res, errors.New(strings.Join(fails, "; "))
	}
	return res, nil
}

// report prints every measured metric by name and unit, ahead of the
// result line.
func report(out io.Writer, s spec, cfg config, e2e, layer map[string]float64, traced bool) {
	fmt.Fprintf(out, "# %s seed=%d data-seed=%d seconds=%g rate=%g conns=%d setups=%d trace=%v\n",
		s.name, cfg.seed, cfg.dataSeed, cfg.seconds, cfg.rate, cfg.conns, cfg.setups, traced)
	show := func(vals map[string]float64, units map[string]string) {
		names := make([]string, 0, len(vals))
		for n := range vals {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(out, "%-32s %14.6g %s\n", n, vals[n], units[n])
		}
	}
	show(e2e, endToEnd)
	show(layer, perLayer)
}
