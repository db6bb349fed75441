package server

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/wire"
	"repro/jiffy/client"
	"repro/jiffy/durable"
)

// These tests put misbehaving clients in front of the server — dribbling
// writers, mid-frame resets, readers that stop reading — and assert the
// property that matters for a shared server: one bad connection never
// blocks its neighbors, and every teardown is clean (no goroutine, fd, or
// session leak; LeakCheck enforces the first two,
// TestIdleScanCursorDoesNotBlockReclamation-style assertions the third).

// TestFlakyNeighborsStayLive serves a healthy client next to a crowd of
// flaky ones — short writes fragmenting frames across many syscalls,
// periodic stalls, and mid-frame resets. The healthy client's pings must
// keep round-tripping throughout.
func TestFlakyNeighborsStayLive(t *testing.T) {
	testutil.LeakCheck(t)
	_, _, addr := startServer(t, 4, Options{})

	healthy := dial(t, addr, client.Options{Conns: 1})
	if err := healthy.Ping(); err != nil {
		t.Fatalf("healthy ping: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			seed := int64(i)
			for {
				select {
				case <-stop:
					return
				default:
				}
				raw, err := net.Dial("tcp", addr)
				if err != nil {
					continue
				}
				fc := testutil.NewFlaky(raw, testutil.Faults{
					ShortWrites:     3,
					StallEvery:      7,
					Stall:           2 * time.Millisecond,
					ResetAfterBytes: 200 + 100*i,
					Seed:            seed,
				})
				seed += 1000
				// Dribble pings and puts until the reset fault kills us.
				frame := wire.AppendFrame(nil, 1, wire.OpPing, nil)
				frame = wire.AppendFrame(frame, 2, wire.OpPut, func() []byte {
					b := wire.AppendBytes(nil, []byte{1, 0, 0, 0, 0, 0, 0, 0})
					return wire.AppendBytes(b, []byte{2, 0, 0, 0, 0, 0, 0, 0})
				}())
				for {
					if _, err := fc.Write(frame); err != nil {
						break
					}
				}
				fc.Close()
			}
		}()
	}

	// The healthy connection must answer promptly the whole time the
	// flaky crowd churns.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		start := time.Now()
		if err := healthy.Ping(); err != nil {
			t.Fatalf("healthy ping during fault storm: %v", err)
		}
		if d := time.Since(start); d > time.Second {
			t.Fatalf("healthy ping took %v behind flaky neighbors", d)
		}
	}
	close(stop)
	wg.Wait()
}

// TestSlowReaderDoesNotBlockNeighbors serves a reader that stops
// consuming responses mid-scan (leaving the server's writes to it
// blocked on a full socket) next to a healthy client. The healthy client
// must stay live while the slow one is stalled, and the slow one must
// finish once it resumes reading.
func TestSlowReaderDoesNotBlockNeighbors(t *testing.T) {
	testutil.LeakCheck(t)
	s, _, addr := startServer(t, 4, Options{})
	for i := uint64(0); i < 5000; i++ {
		s.Put(i, i)
	}

	healthy := dial(t, addr, client.Options{Conns: 1})

	// The slow reader: request a pile of scan pages raw, read nothing yet.
	slow, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer slow.Close()
	var req []byte
	for id := uint64(1); id <= 64; id++ {
		body := []byte{0, 0, 0, 0, 0, 0, 0, 0}      // snapID 0
		body = append(body, 0, 0, 0, 0, 0, 0, 0, 0) // floor 0
		body = append(body, 0xff, 0xff, 0, 0)       // maxEntries (clamped server-side)
		body = append(body, wire.ScanFromStart)
		req = wire.AppendFrame(req, id, wire.OpScan, body)
	}
	if _, err := slow.Write(req); err != nil {
		t.Fatalf("write scan burst: %v", err)
	}

	// While the backlog sits unread, the healthy neighbor keeps working.
	for i := 0; i < 50; i++ {
		if err := healthy.Ping(); err != nil {
			t.Fatalf("ping %d behind slow reader: %v", i, err)
		}
		if _, ok, err := healthy.Get(7); !ok || err != nil {
			t.Fatalf("get behind slow reader: %v/%v", ok, err)
		}
	}

	// Resume reading: all 64 pages arrive intact.
	slow.SetReadDeadline(time.Now().Add(10 * time.Second))
	var got atomic.Int64
	var buf []byte
	for got.Load() < 64 {
		_, status, _, nbuf, err := wire.ReadFrame(slow, buf)
		buf = nbuf
		if err != nil {
			t.Fatalf("slow reader resume after %d pages: %v", got.Load(), err)
		}
		if status != wire.StatusOK {
			t.Fatalf("scan page status %d", status)
		}
		got.Add(1)
	}
}

// TestFsyncStallDoesNotBlockNeighbors holds one client's durable PUT in a
// 300 ms fsync stall and asserts that another client's GET, on its own
// connection, is answered long before the stall ends: a request blocked
// in the store must park only its own connection.
func TestFsyncStallDoesNotBlockNeighbors(t *testing.T) {
	testutil.LeakCheck(t)
	const stall = 300 * time.Millisecond
	codec := u64Codec()
	d, err := durable.OpenSharded(t.TempDir(), 2, codec, durable.Options[uint64]{FsyncDelay: stall})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, NewDurableStore(d), codec, Options{})
	defer srv.Close()
	writer := dial(t, srv.Addr().String(), client.Options{Conns: 1})
	reader := dial(t, srv.Addr().String(), client.Options{Conns: 1})
	for _, c := range []*client.Client[uint64, uint64]{writer, reader} {
		if err := c.Ping(); err != nil {
			t.Fatalf("ping: %v", err)
		}
	}

	putDone := make(chan error, 1)
	go func() { putDone <- writer.Put(1, 1) }()
	// The PUT is executing in the store — waiting on its fsync — once the
	// server counts it in flight.
	testutil.Eventually(t, func() bool { return srv.metrics.inflight.Value() == 1 },
		"PUT never reached the store")

	start := time.Now()
	if _, _, err := reader.Get(2); err != nil {
		t.Fatalf("get: %v", err)
	}
	if took := time.Since(start); took >= 100*time.Millisecond {
		t.Fatalf("GET took %v behind a neighbor's %v fsync stall, want < 100ms", took, stall)
	}
	select {
	case <-putDone:
		t.Fatal("PUT finished before the GET: the GET did not overlap the stall")
	default:
	}
	if err := <-putDone; err != nil {
		t.Fatalf("put: %v", err)
	}
}

// scanBurst builds n pipelined sessionless full-scan requests. Each
// returns a full page (~80 KiB against the 5000-key fixture), so a burst
// of 128 queues ~10 MiB of responses: more than the loopback socket
// buffers hold while the client reads nothing.
func scanBurst(n int) []byte {
	var req []byte
	for id := uint64(1); id <= uint64(n); id++ {
		body := []byte{0, 0, 0, 0, 0, 0, 0, 0}      // snapID 0 (sessionless)
		body = append(body, 0, 0, 0, 0, 0, 0, 0, 0) // floor 0
		body = append(body, 0xff, 0xff, 0, 0)       // maxEntries (clamped server-side)
		body = append(body, wire.ScanFromStart)
		req = wire.AppendFrame(req, id, wire.OpScan, body)
	}
	return req
}

// TestHalfCloseWhilePausedTearsDown backs a connection up (a scan burst
// whose responses the client never reads, so the server's writer blocks
// on a full socket) and then half-closes it with FIN. The server must
// tear the connection down from the hangup even though its writer is
// stuck; a connection that waited for its backlog to drain first would
// never die, and neither would its sessions.
func TestHalfCloseWhilePausedTearsDown(t *testing.T) {
	testutil.LeakCheck(t)
	s, srv, addr := startServer(t, 4, Options{})
	for i := uint64(0); i < 5000; i++ {
		s.Put(i, i)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	// 128 full pages ≈ 10 MiB of responses: more than the socket buffers
	// hold, so most of it stays queued server-side.
	if _, err := nc.Write(scanBurst(128)); err != nil {
		t.Fatalf("write scan burst: %v", err)
	}
	testutil.Eventually(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 1
	}, "server never registered the connection")
	// Let the burst execute and the writer block, then send FIN without
	// having read a byte.
	time.Sleep(50 * time.Millisecond)
	if err := nc.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatalf("half-close: %v", err)
	}
	testutil.Eventually(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 0
	}, "backed-up connection not torn down after peer half-close")
}

// TestBurstWithPromptReaderNeverWedges sends bursts large enough to fill
// the socket buffers to a reader that drains them promptly: the server's
// writer repeatedly blocks and resumes mid-burst while the reader keeps
// executing. Every response must arrive, and each round's trailing ping
// probes for a connection left wedged with responses queued but never
// written.
func TestBurstWithPromptReaderNeverWedges(t *testing.T) {
	testutil.LeakCheck(t)
	s, _, addr := startServer(t, 4, Options{})
	for i := uint64(0); i < 5000; i++ {
		s.Put(i, i)
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(60 * time.Second))
	var buf []byte
	for round := 0; round < 4; round++ {
		const pages = 128
		if _, err := nc.Write(scanBurst(pages)); err != nil {
			t.Fatalf("round %d: write burst: %v", round, err)
		}
		for got := 0; got < pages; got++ {
			_, status, _, nbuf, err := wire.ReadFrame(nc, buf)
			buf = nbuf
			if err != nil {
				t.Fatalf("round %d: page %d: %v", round, got, err)
			}
			if status != wire.StatusOK {
				t.Fatalf("round %d: page %d: status %d", round, got, status)
			}
		}
		probe := wire.AppendFrame(nil, 1000+uint64(round), wire.OpPing, nil)
		if _, err := nc.Write(probe); err != nil {
			t.Fatalf("round %d: write probe: %v", round, err)
		}
		_, status, _, nbuf, err := wire.ReadFrame(nc, buf)
		buf = nbuf
		if err != nil || status != wire.StatusOK {
			t.Fatalf("round %d: probe after burst: status %d err %v", round, status, err)
		}
	}
}

// TestMidFrameResetCleansUp opens connections that die at every
// interesting moment — after the length prefix, mid-header, mid-body,
// between frames — with snapshot sessions open, and asserts the server
// releases everything: sessions close (reclamation resumes) and
// LeakCheck sees no goroutine or fd residue.
func TestMidFrameResetCleansUp(t *testing.T) {
	testutil.LeakCheck(t)
	s, srv, addr := startServer(t, 2, Options{SnapTTL: time.Hour})
	s.Put(1, 10)

	full := wire.AppendFrame(nil, 5, wire.OpSnap, nil)
	cuts := []int{1, 3, 4, 7, 12, len(full)}
	for _, cut := range cuts {
		for _, rst := range []bool{false, true} {
			nc, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("dial: %v", err)
			}
			if cut == len(full) {
				// Whole snap request: wait for the session to open so the
				// teardown path has real state to release.
				nc.Write(full)
				nc.SetReadDeadline(time.Now().Add(5 * time.Second))
				if _, status, _, _, err := wire.ReadFrame(nc, nil); err != nil || status != wire.StatusOK {
					t.Fatalf("snap open: status %d err %v", status, err)
				}
			} else {
				nc.Write(full[:cut])
			}
			if rst {
				if tc, ok := nc.(*net.TCPConn); ok {
					tc.SetLinger(0)
				}
			}
			nc.Close()
		}
	}

	// Every severed connection's state must drain: once the server has
	// forgotten them all, only the live-conn count remains.
	testutil.Eventually(t, func() bool {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		return n == 0
	}, "server still tracks %d conns after client resets", func() int {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns)
	}())
}
