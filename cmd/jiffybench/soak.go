package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/jiffy"
	"repro/jiffy/client"
)

// The -soak mode is the leak hunt: an in-process server with its full
// observability surface up (registry, /metrics listener), a sustained
// mixed workload — puts, gets, removes, batches, snapshot sessions,
// scans — at constant concurrency, and periodic self-scrapes of the HTTP
// endpoint. At the end it asserts steady state from the scrape series
// alone, exactly as an operator's alerting would: goroutine count flat
// (no per-request or per-session goroutine leak), fd count flat (no
// socket or segment-file leak), heap bounded (no unbounded buffer
// growth), the reclamation epoch advancing (no wedged epoch pin — a
// leaked snapshot would freeze it), and request counters actually moving
// between scrapes. Failures exit nonzero; -json records the scrape
// series for trajectory tracking.

// soakFile is the -soak JSON schema.
type soakFile struct {
	Kind       string             `json:"kind"` // always "soak"
	GOMAXPROCS int                `json:"gomaxprocs"`
	Shards     int                `json:"shards"`
	Conns      int                `json:"conns"`
	Threads    int                `json:"threads"`
	Duration   string             `json:"duration"`
	When       string             `json:"when"`
	Requests   float64            `json:"requests_total"`
	Scrapes    []soakScrape       `json:"scrapes"`
	Checks     []soakCheck        `json:"checks"`
	Final      map[string]float64 `json:"final"`
	Pass       bool               `json:"pass"`
}

// soakScrape is one self-scrape's steady-state signals.
type soakScrape struct {
	ElapsedMs  float64 `json:"elapsed_ms"`
	Goroutines float64 `json:"goroutines"`
	OpenFDs    float64 `json:"open_fds"`
	HeapBytes  float64 `json:"heap_alloc_bytes"`
	Epoch      float64 `json:"epoch"`
	Requests   float64 `json:"requests_total"`
	Sessions   float64 `json:"sessions_open"`
}

type soakCheck struct {
	Name   string `json:"name"`
	Detail string `json:"detail"`
	Pass   bool   `json:"pass"`
}

// scrapeMetrics GETs url and returns every unlabeled series value plus
// per-family sums of the labeled ones (so jiffyd_requests_total is the
// sum over its op labels). Histogram _bucket series are skipped; _sum
// and _count pass through.
func scrapeMetrics(url string) (map[string]float64, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("scrape: HTTP %d", resp.StatusCode)
	}
	vals := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		vals[name] += v
	}
	return vals, sc.Err()
}

// soakWorker drives one goroutine's share of the mixed workload until
// stop closes. Every op kind the protocol has is in the mix, including
// the leak-prone ones: snapshot sessions (opened, used, closed — and a
// fraction deliberately left to the TTL reaper) and cursored scans.
func soakWorker(c *client.Client[uint64, *harness.Payload], seed uint64, stop <-chan struct{}, errs chan<- error) {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	var val harness.Payload
	const keys = 1 << 14
	for i := uint64(0); ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		k := rng.Uint64() % keys
		var err error
		switch i % 16 {
		case 0, 1, 2, 3, 4, 5:
			val[0] = byte(i)
			err = c.Put(k, &val)
		case 6, 7, 8, 9, 10, 11:
			_, _, err = c.Get(k)
		case 12, 13:
			_, err = c.Remove(k)
		case 14:
			ops := make([]jiffy.BatchOp[uint64, *harness.Payload], 0, 8)
			for j := uint64(0); j < 8; j++ {
				ops = append(ops, jiffy.BatchOp[uint64, *harness.Payload]{Key: (k + j) % keys, Val: &val})
			}
			err = c.BatchUpdate(ops)
		case 15:
			var snap *client.Snap[uint64, *harness.Payload]
			snap, err = c.Snapshot()
			if err != nil {
				break
			}
			sc := snap.Scan(k)
			for n := 0; n < 64 && sc.Next(); n++ {
			}
			err = sc.Err()
			sc.Close()
			// Leak one session in 256 on purpose: the reaper must collect
			// them (sessions_open stays bounded) or the epoch check fails.
			// The rate is set so the steady-state reap backlog (leaks/sec x
			// TTL) stays well under the sessions-bounded cap.
			if i%(16*256) != 15 {
				snap.Close()
			}
		}
		if err != nil {
			select {
			case errs <- err:
			default:
			}
			return
		}
	}
}

// runSoak runs the soak for dur and returns the report; the process
// should exit nonzero when report.Pass is false.
func runSoak(dur time.Duration, connsN, threads int, seed uint64) *soakFile {
	out := &soakFile{
		Kind:       "soak",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Shards:     harness.ShardCount,
		Conns:      connsN,
		Threads:    threads,
		Duration:   dur.String(),
		When:       time.Now().UTC().Format(time.RFC3339),
	}

	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	s := jiffy.NewSharded[uint64, *harness.Payload](harness.ShardCount)
	server.RegisterStoreStats(reg, s.Stats)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: listen: %v\n", err)
		os.Exit(1)
	}
	// Short TTL so deliberately leaked sessions are reaped well within
	// the run.
	srv := server.Serve(ln, server.NewMemStore(s), netCodec(), server.Options{
		Registry: reg,
		SnapTTL:  time.Second,
	})

	mln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: metrics listen: %v\n", err)
		os.Exit(1)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	msrv := &http.Server{Handler: mux}
	go msrv.Serve(mln)
	url := "http://" + mln.Addr().String() + "/metrics"
	fmt.Printf("# soak: server %s, metrics %s, %d conns, %d workers, %v\n",
		srv.Addr(), url, connsN, threads, dur)

	c, err := client.Dial(srv.Addr().String(), netCodec(), client.Options{Conns: connsN})
	if err != nil {
		fmt.Fprintf(os.Stderr, "soak: dial: %v\n", err)
		os.Exit(1)
	}
	stop := make(chan struct{})
	errs := make(chan error, threads)
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			soakWorker(c, seed+uint64(w)*2654435761, stop, errs)
		}(w)
	}

	// Scrape on a fixed cadence; the first scrape (workload already
	// running at full concurrency) is the steady-state baseline.
	interval := dur / 8
	if interval < 250*time.Millisecond {
		interval = 250 * time.Millisecond
	}
	start := time.Now()
	var failed atomic.Bool
	for time.Since(start) < dur {
		time.Sleep(interval)
		vals, err := scrapeMetrics(url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "soak: scrape: %v\n", err)
			failed.Store(true)
			break
		}
		out.Scrapes = append(out.Scrapes, soakScrape{
			ElapsedMs:  float64(time.Since(start).Microseconds()) / 1e3,
			Goroutines: vals["go_goroutines"],
			OpenFDs:    vals["process_open_fds"],
			HeapBytes:  vals["go_heap_alloc_bytes"],
			Epoch:      vals["jiffy_epoch"],
			Requests:   vals["jiffyd_requests_total"],
			Sessions:   vals["jiffyd_sessions_open"],
		})
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		fmt.Fprintf(os.Stderr, "soak: worker: %v\n", err)
		failed.Store(true)
	}

	final, err := scrapeMetrics(url)
	if err == nil {
		out.Final = map[string]float64{}
		for _, k := range []string{
			"jiffyd_requests_total", "jiffyd_responses_total", "jiffyd_connections",
			"jiffyd_connections_total", "jiffyd_sessions_open", "jiffyd_sessions_opened_total",
			"jiffyd_sessions_reaped_total", "jiffyd_bytes_read_total", "jiffyd_bytes_written_total",
			"jiffyd_inflight_requests", "jiffy_epoch", "jiffy_entries",
			"go_goroutines", "go_heap_alloc_bytes", "process_open_fds",
		} {
			out.Final[k] = final[k]
		}
		out.Requests = final["jiffyd_requests_total"]
	}

	c.Close()
	srv.Close()
	msrv.Close()

	check := func(name string, pass bool, detail string) {
		out.Checks = append(out.Checks, soakCheck{Name: name, Detail: detail, Pass: pass})
		mark := "ok  "
		if !pass {
			mark = "FAIL"
		}
		fmt.Printf("soak  %s %-22s %s\n", mark, name, detail)
	}

	if len(out.Scrapes) < 2 {
		check("scrapes", false, fmt.Sprintf("only %d scrapes completed; need >= 2", len(out.Scrapes)))
	} else {
		first, last := out.Scrapes[0], out.Scrapes[len(out.Scrapes)-1]
		// Goroutines: constant concurrency must mean constant goroutines,
		// modulo transient request handling; slack covers scheduler noise.
		const gSlack = 10
		check("goroutines-steady", last.Goroutines <= first.Goroutines+gSlack,
			fmt.Sprintf("first %.0f, last %.0f (slack %d)", first.Goroutines, last.Goroutines, gSlack))
		// FDs: the connection set is fixed; a drifting count is a leaked
		// socket or file. Skip where /proc is unavailable (-1).
		if first.OpenFDs >= 0 && last.OpenFDs >= 0 {
			const fdSlack = 8
			check("fds-steady", last.OpenFDs <= first.OpenFDs+fdSlack,
				fmt.Sprintf("first %.0f, last %.0f (slack %d)", first.OpenFDs, last.OpenFDs, fdSlack))
		}
		// Heap: bounded, not flat — GC phase makes point samples noisy, so
		// the bound is generous and catches monotone growth only.
		heapCap := 2*first.HeapBytes + 64<<20
		check("heap-bounded", last.HeapBytes <= heapCap,
			fmt.Sprintf("first %.0f, last %.0f (cap %.0f)", first.HeapBytes, last.HeapBytes, heapCap))
		// Epoch: must never regress; with real parallelism it must also
		// advance (on one CPU, epoch progress can legitimately stall under
		// an oversubscribed update load — see DESIGN.md §7).
		pass := last.Epoch >= first.Epoch
		if runtime.GOMAXPROCS(0) > 1 {
			pass = last.Epoch > first.Epoch
		}
		check("epoch-advances", pass,
			fmt.Sprintf("first %.0f, last %.0f (GOMAXPROCS %d)", first.Epoch, last.Epoch, runtime.GOMAXPROCS(0)))
		// Throughput: counters must move between scrapes, or the soak
		// silently measured an idle server.
		check("requests-flowing", last.Requests > first.Requests,
			fmt.Sprintf("first %.0f, last %.0f", first.Requests, last.Requests))
		// Sessions: the deliberate leaks must be reaped, not accumulate.
		sessCap := float64(threads*2 + 16)
		check("sessions-bounded", last.Sessions <= sessCap,
			fmt.Sprintf("open %.0f (cap %.0f)", last.Sessions, sessCap))
	}

	out.Pass = !failed.Load()
	for _, ck := range out.Checks {
		if !ck.Pass {
			out.Pass = false
		}
	}
	return out
}

func writeSoakJSON(path string, out *soakFile) error {
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
