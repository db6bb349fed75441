package server

import (
	"bytes"
	"log/slog"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/trace"
	"repro/jiffy/client"
	"repro/jiffy/durable"
)

// spansByStage indexes a recorder snapshot: stage -> trace IDs seen.
func spansByStage(r *trace.Recorder) map[trace.Stage]map[uint64]int {
	out := map[trace.Stage]map[uint64]int{}
	for _, sp := range r.Snapshot() {
		m := out[sp.Stage]
		if m == nil {
			m = map[uint64]int{}
			out[sp.Stage] = m
		}
		m[sp.Trace]++
	}
	return out
}

// TestTracePropagationBothCores proves the trace envelope crosses the
// wire and stitches client-side and server-side spans by one ID, through
// the durable store so the WAL stage shows up. The test and its
// "goroutine" subtest keep the names they had when the server carried a
// second (event-loop) core, so their history stays continuous; they now
// run on the only serving core.
func TestTracePropagationBothCores(t *testing.T) {
	t.Run("goroutine", testTracePropagation)
}

func testTracePropagation(t *testing.T) {
	testutil.LeakCheck(t)
	dir := t.TempDir()
	codec := u64Codec()
	srec := trace.NewRecorder(4096)
	d, err := durable.OpenSharded(dir, 2, codec, durable.Options[uint64]{Tracer: srec})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, NewDurableStore(d), codec, Options{Tracer: srec})
	defer srv.Close()

	crec := trace.NewRecorder(4096)
	c, err := client.Dial(srv.Addr().String(), codec, client.Options{
		Conns: 2, Tracer: crec, TraceSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 50
	for i := uint64(0); i < n; i++ {
		if err := c.Put(i, i*3); err != nil {
			t.Fatalf("put: %v", err)
		}
	}
	for i := uint64(0); i < n; i++ {
		if v, ok, err := c.Get(i); err != nil || !ok || v != i*3 {
			t.Fatalf("get %d = %d/%v/%v", i, v, ok, err)
		}
	}

	cs, ss := spansByStage(crec), spansByStage(srec)
	clientIDs := cs[trace.StageClient]
	if len(clientIDs) < n {
		t.Fatalf("client recorded %d traced round trips, want >= %d", len(clientIDs), n)
	}
	if len(cs[trace.StageClientEnqueue]) == 0 {
		t.Fatalf("no client_enqueue spans (pipelined writer should record queue wait)")
	}
	// Every client-side ID must reappear in the server's recorder —
	// that is the wire propagation — and traced puts must leave a
	// WAL span under the same ID.
	joined, walJoined := 0, 0
	for id := range clientIDs {
		if id == 0 {
			t.Fatalf("client recorded an untraced span as traced")
		}
		if ss[trace.StageServer][id] > 0 {
			joined++
		}
		if ss[trace.StageWAL][id] > 0 {
			walJoined++
		}
	}
	if joined != len(clientIDs) {
		t.Fatalf("only %d of %d client trace IDs joined server spans", joined, len(clientIDs))
	}
	if walJoined < n {
		t.Fatalf("only %d trace IDs joined WAL spans, want >= %d (one per put)", walJoined, n)
	}
	// Batch-level spans carry trace ID 0: coalesced response flushes,
	// and the group-commit fsyncs under the store.
	if len(ss[trace.StageFlush]) == 0 || ss[trace.StageFlush][0] == 0 {
		t.Fatalf("no flush spans: %v", ss[trace.StageFlush])
	}
	if ss[trace.StageFsync][0] == 0 {
		t.Fatalf("no fsync spans")
	}
}

// TestUntracedRequestsStayUntraced: without client sampling the server
// still measures every stage, but no span carries a trace ID.
func TestUntracedRequestsStayUntraced(t *testing.T) {
	testutil.LeakCheck(t)
	srec := trace.NewRecorder(1024)
	_, _, addr := startServer(t, 2, Options{Tracer: srec})
	c := dial(t, addr, client.Options{Conns: 1})
	for i := uint64(0); i < 20; i++ {
		if err := c.Put(i, i); err != nil {
			t.Fatal(err)
		}
	}
	ss := spansByStage(srec)
	if len(ss[trace.StageServer]) != 1 || ss[trace.StageServer][0] == 0 {
		t.Fatalf("untraced traffic left trace IDs: %v", ss[trace.StageServer])
	}
}

// lockedBuf makes a bytes.Buffer safe to share with the server's logging
// goroutines.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestTraceSlowLog: a request crossing Options.TraceSlow leaves one
// structured line attributing its time across stages.
func TestTraceSlowLog(t *testing.T) {
	testutil.LeakCheck(t)
	var buf lockedBuf
	srec := trace.NewRecorder(1024)
	_, _, addr := startServer(t, 2, Options{
		Tracer:    srec,
		TraceSlow: time.Nanosecond, // everything is an outlier
		TraceLog:  slog.New(slog.NewTextHandler(&buf, nil)),
	})
	crec := trace.NewRecorder(1024)
	c := dial(t, addr, client.Options{Conns: 1, Tracer: crec, TraceSample: 1})
	if err := c.Put(1, 2); err != nil {
		t.Fatal(err)
	}
	// The log write happens inside exec, before the response flushes, so
	// one acked put guarantees the line is out.
	out := buf.String()
	if !strings.Contains(out, "slow request") || !strings.Contains(out, "stage_wal") {
		t.Fatalf("slow-request line missing or unattributed: %q", out)
	}
	if !strings.Contains(out, "op=put") {
		t.Fatalf("slow-request line lost the opcode: %q", out)
	}
}
