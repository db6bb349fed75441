package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"net"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workload"
	"repro/jiffy"
	"repro/jiffy/client"
	"repro/jiffy/durable"
)

// The -net mode measures the network serving layer (internal/server +
// jiffy/client) over loopback TCP: throughput as the client connection
// pool grows 1→256, with pipelined multiplexing on and off, and the
// batch-amortization effect of shipping 10- and 100-op atomic batches as
// one frame instead of ten or a hundred. A parity pass then runs a
// deterministic workload through the server and directly on an embedded
// jiffy.Sharded and compares digests of the two stores' contents, so an
// operation the serving layer dropped, misrouted or corrupted exits
// nonzero (CI runs this as a smoke test). By default it starts an
// in-process jiffyd-equivalent server on 127.0.0.1:0 (uint64 keys,
// 100-byte payload values, harness.ShardCount shards) so the whole
// measurement is self-contained; -netaddr points it at an external server
// instead (no parity pass). Results land in a BENCH_*.json file.
// BENCH_0006, BENCH_0007 and BENCH_0010 are legacy instances from when
// the server had two serving cores: their modes/mode fields name the
// core each point ran on.

// netFile is the -net JSON schema.
type netFile struct {
	Kind       string `json:"kind"` // always "net"
	GOMAXPROCS int    `json:"gomaxprocs"`
	Shards     int    `json:"shards"`
	Threads    int    `json:"threads"`
	KeySpace   uint64 `json:"keyspace"`
	Prefill    int    `json:"prefill"`
	Duration   string `json:"duration"`
	When       string `json:"when"`
	Parity     string `json:"parity,omitempty"` // "ok" when served and embedded stores matched
	// Trace marks a tracing A/B run (-trace): every sweep point was
	// measured against a tracing-free server (A) and a server running the
	// flight recorder with clients sampling trace IDs at TraceSample (B),
	// in interleaved A·B·B·A order (per EXPERIMENTS.md, drift cancels),
	// and appears twice in Sweep. TraceOverheadPct is the mean throughput
	// cost of tracing across the sweep: positive means traced runs were
	// slower.
	Trace            bool         `json:"trace,omitempty"`
	TraceSample      float64      `json:"trace_sample,omitempty"`
	TraceOverheadPct float64      `json:"trace_overhead_pct,omitempty"`
	Sweep            []netPoint   `json:"sweep"`
	Batch            []netBatchPt `json:"batch"`
}

// netPoint is one conns-sweep measurement (mix ul: 25 % updates, 75 %
// lookups, one op per request). Threads records the workload goroutines
// actually driving the point — max(-netthreads, conns), so wide pools are
// not throttled by a narrow driver.
type netPoint struct {
	Conns     int     `json:"conns"`
	Threads   int     `json:"threads"`
	Pipelined bool    `json:"pipelined"`
	Traced    bool    `json:"traced,omitempty"` // client propagated a trace ID on every request
	Mix       string  `json:"mix"`
	TotalMops float64 `json:"total_mops"`
	TotalOps  uint64  `json:"total_ops"`
	Runs      int     `json:"runs,omitempty"` // >1: TotalMops is the mean of interleaved runs
}

// netBatchPt is one batch-amortization measurement (update-only, all
// connections, pipelined): ops per second counted in basic operations, so
// the amortization of frame and round-trip overhead shows directly.
type netBatchPt struct {
	Batch     string  `json:"batch"`
	Conns     int     `json:"conns"`
	TotalMops float64 `json:"total_mops"`
	TotalOps  uint64  `json:"total_ops"`
}

// netPayloadEnc encodes harness.Payload values as their raw 100 bytes.
func netPayloadEnc() durable.Enc[*harness.Payload] {
	return durable.Enc[*harness.Payload]{
		Append: func(dst []byte, v *harness.Payload) []byte { return append(dst, v[:]...) },
		Decode: func(src []byte) (*harness.Payload, error) {
			var p harness.Payload
			copy(p[:], src)
			return &p, nil
		},
	}
}

func netCodec() durable.Codec[uint64, *harness.Payload] {
	return durable.Codec[uint64, *harness.Payload]{Key: durable.Uint64Enc(), Value: netPayloadEnc()}
}

// startNetServer starts the in-process loopback server, prefilled
// directly (skipping the network keeps setup fast). With tracing the
// server gets a registered flight recorder, exactly as jiffyd runs it.
// Returns the server and its address.
func startNetServer(base harness.Config, tracing bool) (*server.Server[uint64, *harness.Payload], string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "net bench: listen: %v\n", err)
		os.Exit(1)
	}
	var opts server.Options
	if tracing {
		rec := trace.NewRecorder(0)
		rec.RegisterMetrics(obs.NewRegistry())
		opts.Tracer = rec
	}
	s := jiffy.NewSharded[uint64, *harness.Payload](harness.ShardCount)
	srv := server.Serve(ln, server.NewMemStore(s), netCodec(), opts)
	harness.Prefill[uint64, *harness.Payload](&index.ShardedJiffy[uint64, *harness.Payload]{S: s}, base, harness.KeyA, harness.ValA)
	return srv, srv.Addr().String()
}

// measureNetPoint runs one sweep measurement. A traced run reproduces a
// deployed tracing setup on the client side: a local recorder plus a
// trace ID sampled onto sampleRate of the requests (8 extra body bytes
// and a span at every stage each one crosses).
func measureNetPoint(addr string, conns int, pipelined, traced bool, sampleRate float64, cfg harness.Config) harness.Result {
	copts := client.Options{Conns: conns, NoPipeline: !pipelined}
	if traced {
		copts.Tracer = trace.NewRecorder(0)
		copts.TraceSample = sampleRate
	}
	c, err := client.Dial(addr, netCodec(), copts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "net bench: dial: %v\n", err)
		os.Exit(1)
	}
	idx := index.NewNetJiffy(c)
	res := harness.Run[uint64, *harness.Payload](idx, cfg, harness.KeyA, harness.ValA)
	idx.Close()
	return res
}

// sweepOne runs the conns sweep and the batch-amortization points against
// addr. With a non-empty addrTraced every sweep point is measured four
// times in A·B·B·A order — A against addr (no tracing anywhere), B against
// addrTraced (flight recorder serving, clients sampling trace IDs) — and
// lands as two averaged points, so drift between runs cancels out of the
// traced-vs-untraced comparison.
func sweepOne(out *netFile, addr, addrTraced string, connsList []int, threads int, base harness.Config, sampleRate float64) {
	traceAB := addrTraced != ""
	base.Mix = workload.MixUpdateLookup
	for _, conns := range connsList {
		ptThreads := threads
		if conns > ptThreads {
			ptThreads = conns
		}
		cfg := base
		cfg.Threads = ptThreads
		for _, pipelined := range []bool{true, false} {
			order := []bool{false}
			if traceAB {
				order = []bool{false, true, true, false}
			}
			var mops [2]float64
			var ops [2]uint64
			var runs [2]int
			for _, traced := range order {
				a := addr
				if traced {
					a = addrTraced
				}
				res := measureNetPoint(a, conns, pipelined, traced, sampleRate, cfg)
				i := 0
				if traced {
					i = 1
				}
				mops[i] += res.TotalMops()
				ops[i] += res.TotalOps
				runs[i]++
			}
			for i, traced := range []bool{false, true} {
				if runs[i] == 0 {
					continue
				}
				mean := mops[i] / float64(runs[i])
				pt := netPoint{
					Conns:     conns,
					Threads:   ptThreads,
					Pipelined: pipelined,
					Traced:    traced,
					Mix:       cfg.Mix.Name,
					TotalMops: mean,
					TotalOps:  ops[i] / uint64(runs[i]),
				}
				if traceAB {
					pt.Runs = runs[i]
				}
				out.Sweep = append(out.Sweep, pt)
				fmt.Printf("net   %-3s conns=%-3d pipelined=%-5v traced=%-5v threads=%-3d total=%8.3f Mops/s\n",
					cfg.Mix.Name, conns, pipelined, traced, ptThreads, mean)
			}
		}
	}

	// Batch amortization: update-only at the largest pool, batches of 1,
	// 10 and 100 ops per frame.
	maxConns := connsList[0]
	for _, n := range connsList {
		if n > maxConns {
			maxConns = n
		}
	}
	bcfg := base
	bcfg.Mix = workload.MixUpdateOnly
	if maxConns > bcfg.Threads {
		bcfg.Threads = maxConns
	}
	for _, size := range []int{1, 10, 100} {
		bcfg.Batch = workload.BatchMode{Size: size}
		c, err := client.Dial(addr, netCodec(), client.Options{Conns: maxConns})
		if err != nil {
			fmt.Fprintf(os.Stderr, "net bench: dial: %v\n", err)
			os.Exit(1)
		}
		idx := index.NewNetJiffy(c)
		res := harness.Run[uint64, *harness.Payload](idx, bcfg, harness.KeyA, harness.ValA)
		idx.Close()
		out.Batch = append(out.Batch, netBatchPt{
			Batch:     bcfg.Batch.String(),
			Conns:     maxConns,
			TotalMops: res.TotalMops(),
			TotalOps:  res.TotalOps,
		})
		fmt.Printf("net   w   batch=%-7s conns=%-3d threads=%-3d total=%8.3f Mops/s\n",
			bcfg.Batch.String(), maxConns, bcfg.Threads, res.TotalMops())
	}
}

// runNet executes the serving-layer measurements and returns the file to
// serialize. addr == "" sweeps an in-process loopback server and then
// checks served against embedded contents; an external addr is measured
// as-is.
func runNet(addr string, connsList []int, threads int, keyspace uint64, prefill int, duration time.Duration, seed uint64, traceAB bool, sampleRate float64) *netFile {
	out := &netFile{
		Kind:       "net",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Shards:     harness.ShardCount,
		Threads:    threads,
		KeySpace:   keyspace,
		Prefill:    prefill,
		Duration:   duration.String(),
		When:       time.Now().UTC().Format(time.RFC3339),
		Trace:      traceAB,
	}
	if traceAB {
		out.TraceSample = sampleRate
	}

	base := harness.Config{
		KeySpace: keyspace,
		Prefill:  prefill,
		Duration: duration,
		Seed:     seed,
		Threads:  threads,
		Dist:     workload.Uniform,
	}

	if addr != "" {
		// External server: prefill through the wire, single sweep.
		c, err := client.Dial(addr, netCodec(), client.Options{Conns: 4})
		if err != nil {
			fmt.Fprintf(os.Stderr, "net bench: dial %s: %v\n", addr, err)
			os.Exit(1)
		}
		harness.Prefill[uint64, *harness.Payload](index.NewNetJiffy(c), base, harness.KeyA, harness.ValA)
		c.Close()
		fmt.Printf("# net bench: external server %s (prefill %d over the wire)\n", addr, prefill)
		// An external server can't be restarted with tracing on and off;
		// the A/B then measures the client-side cost only.
		addrTraced := ""
		if traceAB {
			addrTraced = addr
		}
		sweepOne(out, addr, addrTraced, connsList, threads, base, sampleRate)
		finishTraceAB(out, traceAB)
		return out
	}

	srv, a := startNetServer(base, false)
	// The B side of a tracing A/B gets its own server, identically
	// prefilled, running the flight recorder the way jiffyd does.
	addrTraced := ""
	var srvTraced *server.Server[uint64, *harness.Payload]
	if traceAB {
		srvTraced, addrTraced = startNetServer(base, true)
	}
	fmt.Printf("# net bench: loopback server on %s (%d shards, prefill %d)\n",
		a, harness.ShardCount, prefill)
	sweepOne(out, a, addrTraced, connsList, threads, base, sampleRate)
	srv.Close()
	if srvTraced != nil {
		srvTraced.Close()
	}

	out.Parity = checkParity(connsList)
	if out.Parity != "ok" {
		fmt.Fprintf(os.Stderr, "net bench: PARITY MISMATCH between served and embedded stores: %s\n", out.Parity)
		os.Exit(1)
	}
	fmt.Printf("# net bench: served-vs-embedded parity ok\n")
	finishTraceAB(out, traceAB)
	return out
}

// finishTraceAB summarizes a tracing A/B run: the mean percentage
// throughput cost of tracing over every paired sweep point (positive:
// traced slower). Left at zero for plain runs.
func finishTraceAB(out *netFile, traceAB bool) {
	if !traceAB {
		return
	}
	type key struct {
		conns     int
		pipelined bool
	}
	baseline := map[key]float64{}
	for _, pt := range out.Sweep {
		if !pt.Traced {
			baseline[key{pt.Conns, pt.Pipelined}] = pt.TotalMops
		}
	}
	var sum float64
	var n int
	for _, pt := range out.Sweep {
		if !pt.Traced {
			continue
		}
		if b := baseline[key{pt.Conns, pt.Pipelined}]; b > 0 {
			sum += (b - pt.TotalMops) / b * 100
			n++
		}
	}
	if n > 0 {
		out.TraceOverheadPct = sum / float64(n)
	}
	fmt.Printf("# net bench: tracing overhead %.2f%% mean over %d paired points (positive: traced slower)\n",
		out.TraceOverheadPct, n)
}

// parityStore is what the parity workload writes through: a served
// client directly, or an embedded store behind embeddedParity.
type parityStore interface {
	Put(key uint64, val *harness.Payload) error
	Remove(key uint64) (bool, error)
	BatchUpdate(ops []jiffy.BatchOp[uint64, *harness.Payload]) error
}

// embeddedParity runs the parity workload on an in-process store.
type embeddedParity struct {
	s *jiffy.Sharded[uint64, *harness.Payload]
}

func (e embeddedParity) Put(key uint64, val *harness.Payload) error {
	e.s.Put(key, val)
	return nil
}

func (e embeddedParity) Remove(key uint64) (bool, error) { return e.s.Remove(key), nil }

func (e embeddedParity) BatchUpdate(ops []jiffy.BatchOp[uint64, *harness.Payload]) error {
	e.s.BatchUpdate(jiffy.BatchOf(ops...))
	return nil
}

// parityWorkload drives workers goroutines over disjoint key ranges, so
// the final contents are independent of interleaving and identical on
// every store that applies each operation exactly once.
func parityWorkload(st parityStore, workers int) error {
	const opsPer = 2000
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(base uint64) {
			defer wg.Done()
			var last byte
			for i := uint64(0); i < opsPer; i++ {
				k := base + i%512 // revisit keys so puts overwrite and deletes hit
				var err error
				switch i % 5 {
				case 0, 1, 2:
					last = byte(i)
					err = st.Put(k, &harness.Payload{last})
				case 3:
					_, err = st.Remove(k + 256)
				case 4:
					val := &harness.Payload{last}
					err = st.BatchUpdate([]jiffy.BatchOp[uint64, *harness.Payload]{
						{Key: k, Val: val},
						{Key: k + 1, Val: val},
						{Key: k + 100, Remove: true},
					})
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(uint64(w * 10000))
	}
	wg.Wait()
	close(errc)
	return <-errc // nil when no worker failed
}

// parityDigest folds one key/value pair into an FNV digest of a store's
// contents in key order.
func parityDigest(h hash.Hash64, k uint64, v *harness.Payload) {
	var kb [8]byte
	binary.LittleEndian.PutUint64(kb[:], k)
	h.Write(kb[:])
	h.Write(v[:])
}

// checkParity runs one deterministic workload through a loopback server
// and, identically, on an embedded jiffy.Sharded, then digests a full
// scan of each and compares. A mismatch means the serving layer (client,
// wire or server) dropped, misrouted or corrupted an operation.
func checkParity(connsList []int) string {
	conns := 8
	for _, n := range connsList {
		if n > conns {
			conns = n
		}
	}
	if conns > 64 {
		conns = 64 // parity needs determinism, not scale
	}
	const workers = 8

	embedded := jiffy.NewSharded[uint64, *harness.Payload](harness.ShardCount)
	if err := parityWorkload(embeddedParity{embedded}, workers); err != nil {
		return fmt.Sprintf("embedded workload: %v", err)
	}
	want := fnv.New64a()
	embedded.All(func(k uint64, v *harness.Payload) bool {
		parityDigest(want, k, v)
		return true
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Sprintf("listen: %v", err)
	}
	srv := server.Serve(ln, server.NewMemStore(jiffy.NewSharded[uint64, *harness.Payload](harness.ShardCount)), netCodec(), server.Options{})
	defer srv.Close()
	c, err := client.Dial(srv.Addr().String(), netCodec(), client.Options{Conns: conns})
	if err != nil {
		return fmt.Sprintf("dial: %v", err)
	}
	defer c.Close()
	if err := parityWorkload(c, workers); err != nil {
		return fmt.Sprintf("served workload: %v", err)
	}
	got := fnv.New64a()
	sc := c.ScanAll()
	for sc.Next() {
		parityDigest(got, sc.Key(), sc.Value())
	}
	err = sc.Err()
	sc.Close()
	if err != nil {
		return fmt.Sprintf("served scan: %v", err)
	}
	if got.Sum64() != want.Sum64() {
		return fmt.Sprintf("served digest %016x != embedded digest %016x", got.Sum64(), want.Sum64())
	}
	return "ok"
}

func writeNetJSON(path string, out *netFile) error {
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
