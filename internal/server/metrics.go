package server

import (
	"encoding/binary"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/jiffy"
	"repro/jiffy/durable"
)

// This file wires the serving layer into internal/obs. A Server always
// carries a metrics struct — into the caller's registry when
// Options.Registry is set, into a private one otherwise — so the
// instrumented path is the only path: the committed benchmarks
// (BENCH_0007) measure exactly what production serves, and enabling the
// endpoint cannot change performance. Every hot-path metric is a striped
// atomic (see internal/obs); the per-request cost is a few nanoseconds of
// counter adds plus two monotonic clock reads for the latency histogram,
// against multi-microsecond request service times.

// opNames maps request opcodes to their metric label. Index 0 is the
// unknown-opcode bucket.
var opNames = [wire.OpScan + 1]string{
	0:                "unknown",
	wire.OpPing:      "ping",
	wire.OpGet:       "get",
	wire.OpPut:       "put",
	wire.OpDel:       "del",
	wire.OpBatch:     "batch",
	wire.OpSnap:      "snap",
	wire.OpSnapClose: "snap_close",
	wire.OpScan:      "scan",
}

// statusNames maps response status bytes to their metric label.
var statusNames = [wire.StatusErr + 1]string{
	wire.StatusOK:          "ok",
	wire.StatusNotFound:    "not_found",
	wire.StatusUnknownSnap: "unknown_snap",
	wire.StatusBadRequest:  "bad_request",
	wire.StatusErr:         "error",
}

// metrics is the server's instrument panel.
type metrics struct {
	// Protocol engine (state.go, via connState.exec).
	requests  [len(opNames)]*obs.Counter   // completed requests by op
	latency   [len(opNames)]*obs.Histogram // service seconds by op
	responses [len(statusNames)]*obs.Counter
	inflight  *obs.UpDown

	// Connection lifecycle (conn.go).
	connsTotal *obs.Counter
	conns      *obs.UpDown
	bytesIn    *obs.Counter
	bytesOut   *obs.Counter

	// Snapshot sessions (state.go, server.go reaper).
	sessionsOpen   *obs.UpDown
	sessionsOpened *obs.Counter
	sessionsReaped *obs.Counter
}

func newMetrics(r *obs.Registry) *metrics {
	m := &metrics{}
	for i, name := range opNames {
		if name == "" {
			continue
		}
		m.requests[i] = r.Counter(`jiffyd_requests_total{op="`+name+`"}`,
			"Requests executed, by opcode.")
		m.latency[i] = r.Histogram(`jiffyd_request_seconds{op="`+name+`"}`,
			"Request service time (decode through response encode), by opcode.",
			obs.LatencyBuckets)
	}
	for i, name := range statusNames {
		m.responses[i] = r.Counter(`jiffyd_responses_total{status="`+name+`"}`,
			"Responses sent, by status.")
	}
	m.inflight = r.UpDown("jiffyd_inflight_requests",
		"Requests currently executing against the store.")
	m.connsTotal = r.Counter("jiffyd_connections_total",
		"Connections accepted since start.")
	m.conns = r.UpDown("jiffyd_connections",
		"Connections currently registered.")
	m.bytesIn = r.Counter("jiffyd_bytes_read_total",
		"Request bytes read from clients.")
	m.bytesOut = r.Counter("jiffyd_bytes_written_total",
		"Response bytes written to clients.")
	m.sessionsOpen = r.UpDown("jiffyd_sessions_open",
		"Snapshot sessions currently registered.")
	m.sessionsOpened = r.Counter("jiffyd_sessions_opened_total",
		"Snapshot sessions opened since start.")
	m.sessionsReaped = r.Counter("jiffyd_sessions_reaped_total",
		"Snapshot sessions closed by the idle-TTL reaper.")
	return m
}

// opIndex folds an opcode into its opNames slot.
func opIndex(op byte) int {
	if int(op) < len(opNames) && opNames[op] != "" {
		return int(op)
	}
	return 0
}

// exec is the instrumented request executor the reader calls instead of
// connState.handle: strip the trace envelope, arm the request's trace
// context, count, time, execute, classify the response status, and leave
// the server-side span (plus the slow-request log line when the request
// crossed Options.TraceSlow).
func (st *connState[K, V]) exec(dst []byte, id uint64, op byte, body []byte) []byte {
	m := st.srv.metrics
	var tid uint64
	if op&wire.FlagTraced != 0 {
		if len(body) < 8 {
			return errFrame(dst, id, wire.StatusBadRequest, "traced request: short body")
		}
		tid = binary.LittleEndian.Uint64(body)
		body = body[8:]
		op &= wire.OpMask
	}
	st.tctx.Arm(st.srv.opts.Tracer, tid, op)
	oi := opIndex(op)
	m.inflight.Add(1)
	start := time.Now()
	out := st.handle(dst, id, op, body)
	dur := time.Since(start)
	m.latency[oi].Observe(dur.Seconds())
	m.inflight.Add(-1)
	m.requests[oi].Inc()
	if tr := st.srv.opts.Tracer; tr != nil {
		tr.Record(trace.StageServer, tid, op, start, dur, int64(len(out)-len(dst)))
		if slow := st.srv.opts.TraceSlow; slow > 0 && dur >= slow && st.srv.opts.TraceLog != nil {
			wal := time.Duration(st.tctx.StageNanos(trace.StageWAL))
			st.srv.opts.TraceLog.Warn("slow request",
				"trace", strconv.FormatUint(tid, 16),
				"op", opNames[oi],
				"dur", dur,
				"stage_wal", wal,
				"stage_other", dur-wal)
		}
	}
	// The response frame begins at len(dst): u32 len | u64 id | u8 status.
	if len(out) >= len(dst)+13 {
		if status := out[len(dst)+12]; int(status) < len(m.responses) {
			m.responses[status].Inc()
		}
	}
	return out
}

// RegisterStoreStats exposes the index's structural diagnostics
// (jiffy.Stats) as gauges refreshed by a scrape hook: one O(n) Stats walk
// per scrape, none between scrapes. jiffyd and the soak harness both use
// it; the serving hot path never touches these.
func RegisterStoreStats(r *obs.Registry, stats func() jiffy.Stats) {
	nodes := r.Gauge("jiffy_nodes", "Base-level index nodes.")
	entries := r.Gauge("jiffy_entries", "Entries in head revisions (live state size).")
	revisions := r.Gauge("jiffy_revisions", "Revisions reachable from heads.")
	maxRevList := r.Gauge("jiffy_max_revision_list", "Longest revision list observed.")
	avgRevSize := r.Gauge("jiffy_avg_revision_size", "Mean entries per head revision.")
	pendingOps := r.Gauge("jiffy_pending_ops", "Head revisions awaiting a final version.")
	indexLevels := r.Gauge("jiffy_index_levels", "Skip-list index height.")
	poolHits := r.Gauge("jiffy_pool_hits", "Payload allocations served by the free pools (cumulative).")
	poolMisses := r.Gauge("jiffy_pool_misses", "Payload allocations that fell through to the heap (cumulative).")
	recycled := r.Gauge("jiffy_recycled_bytes", "Buffer bytes returned to the pools (cumulative).")
	epoch := r.Gauge("jiffy_epoch", "Current global reclamation epoch.")
	seekSamples := r.Gauge("jiffy_seek_samples", "Sampled version seeks (cumulative).")
	seekSteps := r.Gauge("jiffy_seek_steps", "Revision-chain hops across sampled seeks (cumulative).")
	r.OnScrape(func() {
		st := stats()
		nodes.Set(float64(st.Nodes))
		entries.Set(float64(st.Entries))
		revisions.Set(float64(st.Revisions))
		maxRevList.Set(float64(st.MaxRevisionList))
		avgRevSize.Set(st.AvgRevisionSize)
		pendingOps.Set(float64(st.PendingOps))
		indexLevels.Set(float64(st.IndexLevels))
		poolHits.Set(float64(st.PoolHits))
		poolMisses.Set(float64(st.PoolMisses))
		recycled.Set(float64(st.RecycledBytes))
		epoch.Set(float64(st.Epoch))
		seekSamples.Set(float64(st.SeekSamples))
		seekSteps.Set(float64(st.SeekSteps))
	})
}

// RegisterDurableStats exposes the durability layer's log and checkpoint
// state (durable.DurStats) as scrape-refreshed gauges.
func RegisterDurableStats(r *obs.Registry, stats func() durable.DurStats) {
	segs := r.Gauge("jiffy_wal_segments", "Live WAL segments (sealed plus active) across shards.")
	bytes := r.Gauge("jiffy_wal_live_bytes", "Bytes held by live WAL segments across shards.")
	ckVer := r.Gauge("jiffy_checkpoint_version", "Commit version of the newest checkpoint (0: none).")
	ckAge := r.Gauge("jiffy_checkpoint_age_seconds", "Seconds since the newest checkpoint was written (-1: none).")
	r.OnScrape(func() {
		st := stats()
		segs.Set(float64(st.WALSegments))
		bytes.Set(float64(st.WALLiveBytes))
		ckVer.Set(float64(st.CheckpointVersion))
		if st.CheckpointTime.IsZero() {
			ckAge.Set(-1)
		} else {
			ckAge.Set(time.Since(st.CheckpointTime).Seconds())
		}
	})
}
