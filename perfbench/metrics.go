package main

import "math"

// endToEnd are the metrics a client of htreed sees, reported with -trace 0.
// BENCHMARK.json declares the same names and units.
var endToEnd = map[string]string{
	"setup_s":             "s",
	"read_p50_ms":         "ms",
	"mem_mb":              "MiB",
	"bytes_per_user_byte": "ratio",
}

// perLayer are the traced run's metrics, reported with -trace 1. A layer a
// workload never calls reports 0 (no calls, no samples).
var perLayer = map[string]string{
	"read_p99_ms":  "ms",
	"read_ops_s":   "ops/s",
	"write_p50_ms": "ms",
	"write_p99_ms": "ms",
	"write_ops_s":  "ops/s",
	"fail_ratio":   "ratio",

	"client.wait_us.p50": "us",
	"client.wait_us.p99": "us",
	"client.rtt_us.p50":  "us",
	"gen.lag_ms.max":     "ms",
	"gen.backlog_end":    "count",

	"server.request_us.p50": "us",
	"server.request_us.p99": "us",
	"server.codec_us.p50":   "us",

	"concurrent.knn_us.p50":       "us",
	"concurrent.box_us.p50":       "us",
	"concurrent.range_us.p50":     "us",
	"concurrent.shed":             "count",
	"concurrent.group_batch.mean": "ops",
	"concurrent.group_batches":    "count",

	"core.knn_us.p50":            "us",
	"core.box_us.p50":            "us",
	"core.range_us.p50":          "us",
	"core.node_reads_per_query":  "count",
	"core.prunes_per_query":      "count",
	"core.node_reads_per_result": "ratio",
	"core.cache_hit_ratio":       "ratio",
	"core.retired_versions":      "count",

	"wal.seal_us.p50":             "us",
	"wal.seal_us.p99":             "us",
	"wal.fsync_us.p50":            "us",
	"wal.fsync_us.p99":            "us",
	"wal.append_us.p50":           "us",
	"wal.commits":                 "count",
	"wal.fsyncs":                  "count",
	"wal.log_bytes_per_user_byte": "ratio",
	"wal.overlay_pages":           "count",
	"wal.recovery_s":              "s",
	"wal.checkpoint_s":            "s",

	"pagefile.setup_reads":  "count",
	"pagefile.setup_writes": "count",
	"pagefile.setup_syncs":  "count",
	"pagefile.timed_reads":  "count",
	"pagefile.timed_writes": "count",
	"pagefile.timed_syncs":  "count",
	"pagefile.read_us.p50":  "us",

	"floor.knn_us.p50":          "us",
	"floor.box_us.p50":          "us",
	"floor.range_us.p50":        "us",
	"floor.knn_index_vs_scan":   "ratio",
	"floor.box_index_vs_scan":   "ratio",
	"floor.range_index_vs_scan": "ratio",

	"runtime.gc_cycles":       "count",
	"runtime.gc_pause_us.p99": "us",
	"runtime.cpu_ms_per_op":   "ms",
	"trace.overhead_frac":     "ratio",
}

// phaseSummary is what the two timed phases measured.
type phaseSummary struct {
	readP50, readP99   float64 // ms, open loop; failed reads are +Inf
	writeP50, writeP99 float64 // ms, open loop; failed writes are +Inf
	readOps, writeOps  float64 // acknowledged per second at saturation, median slice
	attempted, failed  int
	writesOK           int // acknowledged writes, both phases
	ops                int // completed requests, both phases
}

func measure(open openResult, sat satResult) phaseSummary {
	var m phaseSummary
	var reads, writes []float64
	for _, r := range open.recs {
		ms := math.Inf(1)
		if r.ok {
			ms = float64(r.latency().Nanoseconds()) / 1e6
		}
		if r.req.kind.write() {
			writes = append(writes, ms)
		} else {
			reads = append(reads, ms)
		}
	}
	m.readP50, m.readP99 = quantile(reads, 0.5), quantile(reads, 0.99)
	m.writeP50, m.writeP99 = quantile(writes, 0.5), quantile(writes, 0.99)
	m.readOps, m.writeOps = sat.readOps, sat.writeOps
	for _, rs := range [][]rec{open.recs, sat.recs} {
		for _, r := range rs {
			m.attempted++
			if !r.ok {
				m.failed++
				continue
			}
			m.ops++
			if r.req.kind.write() {
				m.writesOK++
			}
		}
	}
	return m
}

// addLayerMetrics fills the traced run's per-layer metrics.
func addLayerMetrics(out map[string]float64, s spec, tr *tracer, open openResult, lad ladderResult, c0, c1 counters, pauses []float64, ops int) {
	var wait, rtt []float64
	for _, r := range open.recs {
		wait = append(wait, float64(r.sent-r.due)/1e3)
		rtt = append(rtt, float64(r.done-r.sent)/1e3)
	}
	out["client.wait_us.p50"] = quantile(wait, 0.5)
	out["client.wait_us.p99"] = quantile(wait, 0.99)
	out["client.rtt_us.p50"] = quantile(rtt, 0.5)
	out["gen.lag_ms.max"] = float64(open.lag.Nanoseconds()) / 1e6
	out["gen.backlog_end"] = float64(open.maxBacklog())

	out["server.codec_us.p50"] = median(lad.codec)
	for _, k := range readKinds {
		core := median(lad.us[k][lvlCore])
		floor := median(lad.us[k][lvlFloor])
		out["concurrent."+k.String()+"_us.p50"] = median(lad.us[k][lvlExec])
		out["core."+k.String()+"_us.p50"] = core
		out["floor."+k.String()+"_us.p50"] = floor
		out["floor."+k.String()+"_index_vs_scan"] = ratio(core, floor)
	}
	out["concurrent.shed"] = float64(c1.shed - c0.shed)
	out["concurrent.group_batch.mean"] = ratio(float64(c1.batchSum-c0.batchSum), float64(c1.batchCount-c0.batchCount))
	out["concurrent.group_batches"] = float64(c1.batches - c0.batches)

	out["core.node_reads_per_query"] = ratio(float64(lad.reads), float64(lad.queries))
	out["core.prunes_per_query"] = ratio(float64(lad.prunes), float64(lad.queries))
	out["core.node_reads_per_result"] = ratio(float64(lad.reads), float64(lad.results))
	out["core.cache_hit_ratio"] = ratio(float64(lad.hits), float64(lad.reads))

	seal := tr.calls(phaseTimed, walSeal)
	fsync := tr.calls(phaseTimed, walFsync)
	out["wal.seal_us.p50"] = quantile(seal, 0.5)
	out["wal.seal_us.p99"] = quantile(seal, 0.99)
	out["wal.fsync_us.p50"] = quantile(fsync, 0.5)
	out["wal.fsync_us.p99"] = quantile(fsync, 0.99)
	out["wal.append_us.p50"] = median(tr.calls(phaseTimed, walAppend))
	out["wal.commits"] = float64(c1.commits - c0.commits)
	out["wal.fsyncs"] = float64(c1.fsyncs - c0.fsyncs)

	var reads []float64
	for _, p := range []phase{phaseSetup, phaseTimed} {
		name := "pagefile." + phaseNames[p] + "_"
		r := tr.calls(p, pageRead)
		reads = append(reads, r...)
		out[name+"reads"] = float64(len(r))
		out[name+"writes"] = float64(len(tr.calls(p, pageWrite)))
		out[name+"syncs"] = float64(len(tr.calls(p, pageSync)))
	}
	out["pagefile.read_us.p50"] = median(reads)

	out["runtime.gc_cycles"] = float64(c1.gcs - c0.gcs)
	out["runtime.gc_pause_us.p99"] = quantile(pauses, 0.99)
	out["runtime.cpu_ms_per_op"] = ratio(float64((c1.cpu-c0.cpu).Nanoseconds())/1e6, float64(ops))
}
