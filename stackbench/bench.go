package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/jiffy"
	"repro/jiffy/client"
	"repro/jiffy/durable"
)

const (
	numKeys     = 1 << 19
	numWorkers  = 2   // closed-loop workers: the CPUs of the reference machine
	clientConns = 2   // pooled, pipelined client connections
	scanPage    = 128 // client scan page: served scans span two pages
	traceSample = 0.1 // share of client requests carrying a trace ID in the traced phase
)

// spec is one workload: the operations of one round (each worker plays
// shuffled copies of it) and the path they take.
type spec struct {
	name      string
	mix       [numOps]int
	scanSlots int // key slots one scan covers
	served    bool
	durable   bool
}

var specs = []spec{
	{name: "embedded", mix: [numOps]int{opGet: 16, opPut: 2, opBatch: 1, opScan: 1}, scanSlots: 64},
	{name: "served-read", mix: [numOps]int{opGet: 14, opPut: 1, opBatch: 1, opScan: 4}, scanSlots: 256, served: true},
	{name: "served-durable-write", mix: [numOps]int{opGet: 3, opPut: 9, opBatch: 7, opScan: 1}, scanSlots: 256, served: true, durable: true},
}

func lookupSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func specNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ")
}

var codec = durable.Codec[string, []byte]{Key: durable.StringEnc(), Value: durable.BytesEnc()}

// bench is one run's stack: the store, and for the served workloads the
// in-process loopback server and the client the workers share.
type bench struct {
	spec    spec
	ks      *keyspace
	viol    violations
	workers []*worker

	mem      *jiffy.Map[string, []byte]       // embedded
	shd      *jiffy.Sharded[string, []byte]   // served-read
	dur      *durable.Sharded[string, []byte] // served-durable-write
	dir      string
	walReg   *obs.Registry // the durable store's WAL metrics
	prefills int           // prefill batches, one WAL record each

	srv    *server.Server[string, []byte]
	srvReg *obs.Registry
	cl     *client.Client[string, []byte]
}

func execute(sp spec, seed uint64, d time.Duration, traced bool, dataDir string) (*result, error) {
	b := &bench{spec: sp, ks: newKeyspace(numKeys, numWorkers, seed)}
	for i := range numWorkers {
		b.workers = append(b.workers, newWorker(i, b.ks, seed, sp.mix, sp.scanSlots, &b.viol))
	}
	heapBase := liveHeap()
	goroutines := runtime.NumGoroutine()
	defer b.close()
	if err := b.open(dataDir); err != nil {
		return nil, err
	}
	if sp.served {
		if _, err := b.serve(nil); err != nil {
			return nil, err
		}
	} else {
		for _, w := range b.workers {
			w.t = mapTarget{b.mem}
		}
	}
	setup := time.Since(procStart)

	res := &result{Metrics: map[string]metric{}}
	var all phaseStats
	if !traced {
		p := b.runPhase(d)
		all = p.phaseStats
		b.viol.add(b.checkServed(&all))
		res.Metrics = map[string]metric{
			"setup_s":      {setup.Seconds(), "s"},
			"ops_per_s":    {p.opsPerSecond(), "1/s"},
			"get_p50_us":   {p.p50Us(opGet), "us"},
			"put_p50_us":   {p.p50Us(opPut), "us"},
			"batch_p50_us": {p.p50Us(opBatch), "us"},
			"scan_p50_us":  {p.p50Us(opScan), "us"},
		}
		heap := float64(liveHeap()) - float64(heapBase)
		res.Metrics["heap_bytes_per_key"] = metric{heap / float64(b.ks.liveKeys()), "B"}
	} else {
		var err error
		all, err = b.tracedRun(d, res.Metrics)
		if err != nil {
			return nil, err
		}
	}
	b.viol.add(b.checkWAL(&all))
	reopen, err := b.checkFinalState()
	if err != nil {
		return nil, err
	}
	if traced {
		res.Metrics["persist.reopen_s"] = metric{reopen.Seconds(), "s"}
	}
	b.close()
	b.viol.add(checkGoroutines(goroutines))
	for _, w := range b.workers {
		if w.err != nil {
			fmt.Fprintln(os.Stderr, "stackbench: failed:", w.err)
		}
	}
	for _, v := range b.viol.first {
		fmt.Fprintln(os.Stderr, "stackbench: check failed:", v)
	}
	res.Correct = b.viol.count() == 0
	res.Attempted, res.Failed = all.attempted, all.failed
	return res, nil
}

// liveHeap returns the live heap after two forced collections (the second
// empties the sync.Pool victim caches the first leaves behind).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// open creates the workload's store and prefills every key.
func (b *bench) open(dataDir string) error {
	var err error
	switch {
	case b.spec.durable:
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return err
		}
		if b.dir, err = os.MkdirTemp(dataDir, "store-"); err != nil {
			return err
		}
		b.walReg = obs.NewRegistry()
		// The serving defaults of jiffyd -durable: fsync on, one shard
		// per CPU, no checkpoints.
		b.dur, err = durable.OpenSharded(b.dir, runtime.GOMAXPROCS(0), codec,
			durable.Options[string]{Metrics: persist.NewMetrics(b.walReg)})
		if err != nil {
			return fmt.Errorf("open durable store: %w", err)
		}
		b.prefills, err = b.ks.prefill(b.dur.BatchUpdate)
	case b.spec.served:
		b.shd = jiffy.NewSharded[string, []byte](runtime.GOMAXPROCS(0))
		b.prefills, err = b.ks.prefill(func(bt *jiffy.Batch[string, []byte]) error {
			b.shd.BatchUpdate(bt)
			return nil
		})
	default:
		b.mem = jiffy.New[string, []byte]()
		b.prefills, err = b.ks.prefill(func(bt *jiffy.Batch[string, []byte]) error {
			b.mem.BatchUpdate(bt)
			return nil
		})
	}
	return err
}

func (b *bench) store() server.Store[string, []byte] {
	if b.dur != nil {
		return server.NewDurableStore(b.dur)
	}
	return server.NewMemStore(b.shd)
}

// serve starts a loopback server on the default serving core, dials the
// pooled client and points every worker at it. With rec set, the server
// calls the store through a timedStore (returned) and the server and
// client record trace stages into rec.
func (b *bench) serve(rec *trace.Recorder) (*timedStore, error) {
	b.srvReg = obs.NewRegistry()
	store := b.store()
	var ts *timedStore
	copts := client.Options{Conns: clientConns, ScanPageSize: scanPage}
	sopts := server.Options{Registry: b.srvReg}
	if rec != nil {
		rec.RegisterMetrics(b.srvReg)
		ts = &timedStore{inner: store}
		store = ts
		sopts.Tracer = rec
		copts.Tracer, copts.TraceSample = rec, traceSample
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.srv = server.Serve(ln, store, codec, sopts)
	if b.cl, err = client.Dial(b.srv.Addr().String(), codec, copts); err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	for _, w := range b.workers {
		w.t = clientTarget{b.cl}
	}
	return ts, nil
}

// stopServing closes the client, then the server, joining their
// goroutines.
func (b *bench) stopServing() {
	if b.cl != nil {
		b.cl.Close()
		b.cl = nil
	}
	if b.srv != nil {
		b.srv.Close()
		b.srv = nil
	}
}

// close releases whatever the run still holds and removes the store
// directory. It is idempotent.
func (b *bench) close() {
	b.stopServing()
	if b.dur != nil {
		b.dur.Close()
		b.dur = nil
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
		b.dir = ""
	}
}

// checkGoroutines reports goroutines the stack left running after close:
// everything the server, client and store started must have been joined.
func checkGoroutines(before int) error {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		return fmt.Errorf("%d goroutines outlive the run (%d before it)", n, before)
	}
	return nil
}

// phaseRun is what the workers measured in one phase.
type phaseRun struct {
	phaseStats
	wins []*opHists // the phase's whole windows, merged over workers
}

// runPhase runs every worker for d and merges what they measured.
func (b *bench) runPhase(d time.Duration) *phaseRun {
	start := time.Now()
	for _, w := range b.workers {
		w.st, w.start, w.wins = phaseStats{}, start, nil
	}
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, w := range b.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(deadline)
		}()
	}
	wg.Wait()
	// Operations finishing the last round after the deadline fall in a
	// partial window, which is left out.
	p := &phaseRun{wins: make([]*opHists, int(d/window))}
	for k := range p.wins {
		p.wins[k] = new(opHists)
	}
	for _, w := range b.workers {
		p.merge(&w.st)
		for k, h := range w.wins {
			if k < len(p.wins) {
				p.wins[k].merge(h)
			}
		}
		w.wins = nil
	}
	if len(p.wins) == 0 { // a phase shorter than one window
		p.wins = []*opHists{&p.lat}
	}
	return p
}

// median returns the median over the phase's windows of f.
func (p *phaseRun) median(f func(h *opHists) float64) float64 {
	v := make([]float64, len(p.wins))
	for i, h := range p.wins {
		v[i] = f(h)
	}
	slices.Sort(v)
	n := len(v)
	return (v[(n-1)/2] + v[n/2]) / 2
}

func (p *phaseRun) opsPerSecond() float64 {
	return p.median(func(h *opHists) float64 { return float64(h.completed()) / window.Seconds() })
}

func (p *phaseRun) p50Us(op opKind) float64 {
	return p.median(func(h *opHists) float64 { return h[op].quantileUs(0.5) })
}

// tracedRun measures one untraced phase (for the tracing overhead and the
// tails), then one traced phase, and fills m with the per-layer metrics.
func (b *bench) tracedRun(d time.Duration, m map[string]metric) (phaseStats, error) {
	stA := b.runPhase(d / 2)
	b.viol.add(b.checkServed(&stA.phaseStats))
	var ts *timedStore
	var walBefore map[string]float64
	if b.spec.served {
		b.stopServing()
		var err error
		if ts, err = b.serve(trace.NewRecorder(0)); err != nil {
			return stA.phaseStats, err
		}
		if b.dur != nil {
			walBefore = scrape(b.walReg)
		}
	}
	stB := b.runPhase(d / 2)
	b.viol.add(b.checkServed(&stB.phaseStats))

	opsA, opsB := stA.opsPerSecond(), stB.opsPerSecond()
	m["trace.overhead_pct"] = metric{100 * (opsA - opsB) / opsA, "%"}
	for op := range numOps {
		m["client."+opNames[op]+"_p99_us"] = metric{stA.lat[op].quantileUs(0.99), "us"}
	}

	var cs jiffy.Stats
	switch {
	case b.mem != nil:
		cs = b.mem.Stats()
	case b.dur != nil:
		cs = b.dur.Stats()
	default:
		cs = b.shd.Stats()
	}
	m["core.avg_revision_size"] = metric{cs.AvgRevisionSize, "entries"}
	m["core.max_revision_list"] = metric{float64(cs.MaxRevisionList), "count"}
	m["core.pool_hit_ratio"] = metric{ratio(float64(cs.PoolHits), float64(cs.PoolHits+cs.PoolMisses)), "ratio"}
	m["core.seek_steps_per_sample"] = metric{ratio(float64(cs.SeekSteps), float64(cs.SeekSamples)), "count"}
	m["core.nodes"] = metric{float64(cs.Nodes), "count"}

	// Layers off the workload's path report 0.
	var sm, wal map[string]float64
	if b.srvReg != nil {
		sm = scrape(b.srvReg)
	}
	if walBefore != nil {
		wal = delta(scrape(b.walReg), walBefore)
	}
	var storeUs, self [numOps]float64
	var snapUs, iterNs float64
	if ts != nil {
		storeUs = [numOps]float64{ts.get.meanUs(), ts.put.meanUs(), ts.batch.meanUs(), ts.scanUs()}
		for op := range numOps {
			self[op] = stB.lat[op].meanUs() - storeUs[op]
		}
		snapUs, iterNs = ts.snap.meanUs(), ts.iterNsPerEntry()
	}
	m["store.get_us"] = metric{storeUs[opGet], "us"}
	m["store.put_us"] = metric{storeUs[opPut], "us"}
	m["store.batch_us"] = metric{storeUs[opBatch], "us"}
	m["store.snapshot_us"] = metric{snapUs, "us"}
	m["store.iter_ns_per_entry"] = metric{iterNs, "ns"}
	for op := range numOps {
		m["net."+opNames[op]+"_self_us"] = metric{self[op], "us"}
	}

	m["persist.fsync_us"] = metric{1e6 * ratio(wal["jiffy_wal_fsync_seconds_sum"], wal["jiffy_wal_fsync_seconds_count"]), "us"}
	m["persist.records_per_flush"] = metric{ratio(wal["jiffy_wal_appends_total"], wal["jiffy_wal_flushes_total"]), "count"}
	m["persist.bytes_per_user_byte"] = metric{ratio(wal["jiffy_wal_bytes_written_total"], float64(stB.userBytes)), "B/B"}

	reqs := 0.0
	for k, v := range sm {
		if strings.HasPrefix(k, "jiffyd_requests_total{") {
			reqs += v
		}
	}
	m["server.exec_us"] = metric{1e6 * ratio(sm[`jiffy_stage_seconds_sum{stage="server"}`], sm[`jiffy_stage_seconds_count{stage="server"}`]), "us"}
	m["server.requests_per_writev"] = metric{ratio(reqs, sm[`jiffy_stage_seconds_count{stage="flush"}`]), "count"}
	m["server.bytes_per_request"] = metric{ratio(sm["jiffyd_bytes_read_total"]+sm["jiffyd_bytes_written_total"], reqs), "B"}
	m["server.wakeups_per_request"] = metric{ratio(sm["jiffyd_loop_wakeups_total"], reqs), "count"}
	m["client.enqueue_us"] = metric{1e6 * ratio(sm[`jiffy_stage_seconds_sum{stage="client_enqueue"}`], sm[`jiffy_stage_seconds_count{stage="client_enqueue"}`]), "us"}

	var all phaseStats
	all.merge(&stA.phaseStats)
	all.merge(&stB.phaseStats)
	return all, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// scrape renders reg's exposition and returns every sample by its series
// name, labels included: the same numbers an operator's /metrics shows.
func scrape(reg *obs.Registry) map[string]float64 {
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

func delta(after, before map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// checkServed compares the server's request counters with the calls the
// workers completed in the phase just run against it.
func (b *bench) checkServed(st *phaseStats) error {
	if b.srvReg == nil {
		return nil
	}
	m := scrape(b.srvReg)
	scans := st.lat[opScan].n
	var errs []error
	for _, c := range []struct {
		op   string
		want uint64
	}{
		{"get", st.lat[opGet].n}, {"put", st.lat[opPut].n}, {"batch", st.lat[opBatch].n},
		{"snap", scans}, {"snap_close", scans},
	} {
		series := `jiffyd_requests_total{op="` + c.op + `"}`
		errs = append(errs, checkCount(series, uint64(m[series]), c.want))
	}
	return errors.Join(errs...)
}

// checkWAL compares the WAL's append counter with the records the durable
// store must have logged: one per prefill batch, acknowledged put and
// batch.
func (b *bench) checkWAL(st *phaseStats) error {
	if b.walReg == nil {
		return nil
	}
	want := uint64(b.prefills) + st.lat[opPut].n + st.lat[opBatch].n
	return checkCount("jiffy_wal_appends_total", uint64(scrape(b.walReg)["jiffy_wal_appends_total"]), want)
}

// checkFinalState stops serving and compares the store's full contents
// with the oracle: the durable store after Close and a reopen from disk,
// whose duration it returns.
func (b *bench) checkFinalState() (time.Duration, error) {
	b.stopServing()
	var reopen time.Duration
	var all func(func(string, []byte) bool)
	switch {
	case b.dur != nil:
		if err := b.dur.Close(); err != nil {
			return 0, fmt.Errorf("close durable store: %w", err)
		}
		t0 := time.Now()
		d, err := durable.OpenSharded(b.dir, runtime.GOMAXPROCS(0), codec)
		if err != nil {
			return 0, fmt.Errorf("reopen durable store: %w", err)
		}
		reopen = time.Since(t0)
		b.dur = d
		all = d.All
	case b.shd != nil:
		all = b.shd.All
	default:
		all = b.mem.All
	}
	b.viol.add(checkFinal(b.ks, all))
	return reopen, nil
}
