// Package server implements jiffyd's serving layer: a TCP server speaking
// the length-prefixed binary protocol of internal/wire over any Store (the
// in-memory or durable sharded jiffy frontends).
//
// Every connection runs two goroutines (conn.go): a reader that decodes
// request frames and executes them inline against the store, and a writer
// that coalesces the resulting responses into as few socket writes as
// possible. The protocol engine they share lives in state.go.
//
// Requests on one connection execute in arrival order (responses are
// matched by id, so clients need not rely on it); requests on different
// connections execute concurrently with no server-wide locks — the
// store's own lock-free paths are the only synchronization.
//
// Snapshot sessions (OpSnap) register a store snapshot server-side and
// hand the client its id; subsequent OpGet/OpScan against the id read the
// frozen version. Sessions are owned by the connection that opened them —
// they die with it — and are reaped when idle longer than Options.SnapTTL,
// so an abandoned session cannot pin multiversion history forever. Scans
// are cursored: each OpScan request delivers one bounded page through a
// jiffy.Iterator that is opened and closed within the request, so a client
// that stalls mid-scan holds no iterator, no epoch pin and no buffer on
// the server — only the session's snapshot registration (or nothing, for
// sessionless scans). See DESIGN.md §8.
package server

import (
	"cmp"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/jiffy/durable"
)

// Options tunes a Server. The zero value selects defaults.
type Options struct {
	// SnapTTL is how long an idle snapshot session lives before the
	// reaper closes it (default 30s). Every operation naming the session
	// resets its idle clock.
	SnapTTL time.Duration

	// MaxScanPage caps the entries one OpScan request may ask for
	// (default 4096): a page must fit one response frame and one
	// iterator hold.
	MaxScanPage int

	// Logf, when non-nil, receives connection-level diagnostics
	// (accept/teardown errors, reaper activity). The data path never logs.
	Logf func(format string, args ...any)

	// Registry, when non-nil, receives the server's metrics (see
	// metrics.go) for exposition. When nil the server instruments into a
	// private registry: the hot path is identical either way, so turning
	// the endpoint on never changes what the benchmarks measured.
	Registry *obs.Registry

	// Watermark, when non-nil, reports the store's replicated watermark:
	// reads carrying a version floor answer StatusBehind when the
	// watermark has not reached it, and a never-synced store (watermark
	// 0) serves no reads at all. Nil means the store is a primary —
	// every acked write is locally visible, so floors are trivially
	// satisfied and not checked.
	Watermark func() int64

	// ReadOnly starts the server refusing writes with StatusReadOnly
	// (replica serving). Promotion flips it off with SetReadOnly.
	ReadOnly bool

	// Epoch, when non-nil, reports the node's fencing epoch (see
	// DESIGN.md §12) for OpCluster responses and for judging client
	// epoch announcements. Nil reports epoch 0: an epoch-unaware
	// deployment, which no announcement can fence.
	Epoch func() int64

	// Cluster, when non-nil, supplies the OpCluster response — the
	// node's role, epoch, watermark and fleet member list. Nil makes the
	// server synthesize a members-less ClusterInfo from Epoch, Watermark
	// and the read-only/fenced flags, enough for a client to learn the
	// node's role and epoch but not to discover its peers.
	Cluster func() wire.ClusterInfo

	// OnPeerEpoch, when non-nil, is called when an OpCluster request
	// announces a fencing epoch HIGHER than this node's own — evidence
	// that a newer primary exists somewhere. The hook decides what to do
	// with it (a primary fences itself; a replica lets its failover
	// detector repoint). Called from request handlers: it must not block.
	OnPeerEpoch func(epoch int64)

	// Tracer, when non-nil, receives a span per request at the exec seam
	// (plus batch-level flush spans) and is threaded into store
	// writes for WAL attribution; see internal/trace. Nil disables
	// tracing entirely — the cost is one predicted branch per request.
	Tracer *trace.Recorder

	// TraceSlow, when positive, logs one structured line (via TraceLog)
	// for every request whose service time crosses it, with the
	// per-stage breakdown from the request's trace context.
	TraceSlow time.Duration

	// TraceLog receives the slow-request lines. Nil disables them even
	// when TraceSlow is set.
	TraceLog *slog.Logger
}

// maxScanPageBytes caps the encoded size of one scan page, comfortably
// inside wire.MaxFrameBytes, so entry-count limits cannot produce frames
// the peer must reject.
const maxScanPageBytes = 4 << 20

func (o Options) withDefaults() Options {
	if o.SnapTTL <= 0 {
		o.SnapTTL = 30 * time.Second
	}
	if o.MaxScanPage <= 0 {
		o.MaxScanPage = 4096
	}
	return o
}

// Server serves one Store over one listener. Create it with Serve; stop it
// with Close.
type Server[K cmp.Ordered, V any] struct {
	store   Store[K, V]
	codec   durable.Codec[K, V]
	opts    Options
	ln      net.Listener
	metrics *metrics

	readOnly atomic.Bool
	fenced   atomic.Bool

	mu     sync.Mutex
	conns  map[*conn[K, V]]struct{}
	closed bool

	stopReaper chan struct{}
	wg         sync.WaitGroup // accept loop + reaper + per-conn goroutines
}

// Serve starts serving store on ln with codec translating keys and values
// to and from their wire form. It returns immediately; Close stops the
// server and joins every goroutine it started.
func Serve[K cmp.Ordered, V any](ln net.Listener, store Store[K, V], codec durable.Codec[K, V], opts Options) *Server[K, V] {
	s := &Server[K, V]{
		store:      store,
		codec:      codec,
		opts:       opts.withDefaults(),
		ln:         ln,
		conns:      map[*conn[K, V]]struct{}{},
		stopReaper: make(chan struct{}),
	}
	reg := s.opts.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.metrics = newMetrics(reg)
	s.readOnly.Store(s.opts.ReadOnly)
	s.wg.Add(2)
	go s.acceptLoop()
	go s.reapLoop()
	return s
}

// SetReadOnly flips whether writes answer StatusReadOnly. Promotion
// calls SetReadOnly(false) after the store accepts writes; requests
// already executing race the flip harmlessly — the store's own
// not-promoted backstop maps to the same status.
func (s *Server[K, V]) SetReadOnly(ro bool) { s.readOnly.Store(ro) }

// IsReadOnly reports whether writes currently answer StatusReadOnly.
func (s *Server[K, V]) IsReadOnly() bool { return s.readOnly.Load() }

// SetFenced flips whether writes answer StatusFenced — set when the node
// has observed a fencing epoch above its own and must surrender primacy.
// Fenced outranks read-only: a fenced ex-primary tells clients to
// rediscover the fleet, not merely that it is a replica.
func (s *Server[K, V]) SetFenced(f bool) { s.fenced.Store(f) }

// IsFenced reports whether writes currently answer StatusFenced.
func (s *Server[K, V]) IsFenced() bool { return s.fenced.Load() }

// epoch reports the node's fencing epoch (0 when unconfigured).
func (s *Server[K, V]) epoch() int64 {
	if s.opts.Epoch != nil {
		return s.opts.Epoch()
	}
	return 0
}

// readOK reports whether a read carrying the given version floor may be
// served here. On a primary (no Watermark hook) every floor is
// satisfied: writes commit locally before they are acked. On a replica
// the replicated watermark must have reached the floor, and a
// never-synced replica (watermark 0) serves nothing — it holds no state
// a client could correctly observe.
func (s *Server[K, V]) readOK(floor int64) bool {
	wm := s.opts.Watermark
	if wm == nil {
		return true
	}
	w := wm()
	return w != 0 && floor <= w
}

// Addr returns the listener's address (useful with ":0" listeners).
func (s *Server[K, V]) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, severs every connection (closing their snapshot
// sessions) and joins all server goroutines. It is idempotent; operations
// in flight when it is called may or may not be applied, exactly as if the
// connection had dropped.
func (s *Server[K, V]) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	conns := make([]*conn[K, V], 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	err := s.ln.Close()
	close(s.stopReaper)
	for _, c := range conns {
		c.c.Close() // unblocks the reader, which tears the conn down
	}
	s.wg.Wait()
	return err
}

// forget removes a torn-down connection from the registry.
func (s *Server[K, V]) forget(c *conn[K, V]) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// logf forwards to Options.Logf when set.
func (s *Server[K, V]) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// reapLoop closes snapshot sessions idle longer than SnapTTL.
func (s *Server[K, V]) reapLoop() {
	defer s.wg.Done()
	tick := s.opts.SnapTTL / 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.stopReaper:
			return
		case <-t.C:
		}
		s.mu.Lock()
		conns := make([]*conn[K, V], 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		deadline := time.Now().Add(-s.opts.SnapTTL).UnixNano()
		reaped := 0
		for _, c := range conns {
			reaped += c.st.reapSessions(deadline)
		}
		if reaped > 0 {
			s.metrics.sessionsReaped.Add(uint64(reaped))
			s.logf("jiffyd: reaped %d idle snapshot session(s)", reaped)
		}
	}
}
