package server

import (
	"cmp"
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// This file is the serving core: one acceptor goroutine, and two
// goroutines per connection mirroring the WAL's group-commit split
// (internal/persist): a reader that decodes request frames and executes
// them inline against the store, and a writer that coalesces the
// resulting response frames into as few socket writes as possible. A
// request that blocks in the store (a durable write waiting on its fsync)
// parks only its own connection's reader; every other connection keeps
// being served.

// respPool recycles response frame buffers between a conn's reader (which
// encodes into them) and its writer (which releases them after copying
// into the coalescing buffer). Buffers grown past maxPooledRespBytes by a
// large scan page are dropped instead of pooled, so one big scan does not
// pin multi-megabyte backing arrays behind every future ping.
const maxPooledRespBytes = 64 << 10

var respPool = sync.Pool{New: func() any { b := make([]byte, 0, 512); return &b }}

func getResp() []byte { return (*(respPool.Get().(*[]byte)))[:0] }
func putResp(b []byte) {
	if cap(b) > maxPooledRespBytes {
		return
	}
	respPool.Put(&b)
}

// conn is one client connection: the reader goroutine (readLoop)
// executes requests and queues encoded responses on out; the writer
// goroutine (writeLoop) coalesces them onto the socket.
type conn[K cmp.Ordered, V any] struct {
	st  connState[K, V]
	c   net.Conn
	out chan []byte

	rbuf []byte // frame read buffer, reader-goroutine scratch
}

// acceptLoop accepts connections until the listener closes.
func (s *Server[K, V]) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.logf("jiffyd: accept: %v", err)
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if !s.spawnConn(nc) {
			return // server closed
		}
	}
}

// spawnConn registers nc and starts its reader and writer. Returns false
// when the server is already closed (nc is closed too).
func (s *Server[K, V]) spawnConn(nc net.Conn) bool {
	c := &conn[K, V]{
		st:  connState[K, V]{srv: s, sess: map[uint64]*session[K, V]{}},
		c:   nc,
		out: make(chan []byte, 256),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		nc.Close()
		return false
	}
	s.conns[c] = struct{}{}
	s.wg.Add(2)
	s.mu.Unlock()
	s.metrics.connsTotal.Inc()
	s.metrics.conns.Add(1)
	go c.readLoop()
	go c.writeLoop()
	return true
}

// readLoop decodes and executes request frames until the connection
// drops, then tears the connection down: sessions close, the writer
// drains and exits, the server forgets the conn.
func (c *conn[K, V]) readLoop() {
	defer c.st.srv.wg.Done()
	m := c.st.srv.metrics
	for {
		id, op, body, buf, err := wire.ReadFrame(c.c, c.rbuf)
		c.rbuf = buf
		if err != nil {
			break
		}
		m.bytesIn.Add(uint64(4 + wire.FrameOverhead + len(body)))
		c.out <- c.st.exec(getResp(), id, op, body)
	}
	// Teardown. Closing the socket unblocks nothing here (the read
	// already failed) but stops the writer's Write calls from lingering.
	c.c.Close()
	c.st.closeSessions()
	close(c.out)
	c.st.srv.forget(c)
	m.conns.Add(-1)
}

// writeLoop coalesces response frames: one blocking receive, then a
// non-blocking drain of everything else already queued, one Write for the
// lot — the group-commit idiom, with the socket in the role of the log
// file. Exits when the reader closes out.
func (c *conn[K, V]) writeLoop() {
	defer c.st.srv.wg.Done()
	var wbuf []byte
	broken := false
	for f := range c.out {
		wbuf = append(wbuf[:0], f...)
		putResp(f)
	drain:
		for len(wbuf) < 256<<10 {
			select {
			case f, ok := <-c.out:
				if !ok {
					break drain
				}
				wbuf = append(wbuf, f...)
				putResp(f)
			default:
				break drain
			}
		}
		if !broken {
			tr := c.st.srv.opts.Tracer
			var fstart time.Time
			if tr != nil {
				fstart = time.Now()
			}
			if _, err := c.c.Write(wbuf); err == nil {
				if tr != nil {
					// Batch-level flush span (trace ID 0): one write
					// carries many responses.
					tr.Record(trace.StageFlush, 0, 0, fstart, time.Since(fstart), int64(len(wbuf)))
				}
				c.st.srv.metrics.bytesOut.Add(uint64(len(wbuf)))
			} else {
				// Sever the connection so the reader unblocks; keep
				// draining out so the reader never blocks sending to it.
				broken = true
				c.c.Close()
			}
		}
	}
}
