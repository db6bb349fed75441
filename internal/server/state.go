package server

import (
	"cmp"
	"encoding/binary"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
	"repro/jiffy"
	"repro/jiffy/durable"
)

// session is one server-side snapshot session: a registered store snapshot
// plus its idle clock.
type session[K cmp.Ordered, V any] struct {
	snap     Snap[K, V]
	lastUsed atomic.Int64 // unix nanos of the last operation naming it
}

func (s *session[K, V]) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

// connState is a connection's protocol engine: the session table, the
// per-connection scratch buffers, and the request handlers. Handlers
// append their encoded response frame onto the dst slice they are given
// and return the extended slice, so the engine knows nothing of the I/O
// framing around it (conn.go).
//
// Exactly one goroutine executes handlers for a given connection at a
// time (the conn's reader), so the scratch fields need no locks. The
// session table is additionally touched by the TTL reaper and by
// teardown, hence smu.
type connState[K cmp.Ordered, V any] struct {
	srv *Server[K, V]

	// smu guards the session table and spans any use of a session's
	// snapshot, so the TTL reaper cannot close a snapshot out from under
	// an executing request.
	smu      sync.Mutex
	sess     map[uint64]*session[K, V]
	nextSnap uint64

	// Handler scratch, reused across requests; owned by the executing
	// goroutine alone.
	kbuf  []byte // key encoding scratch
	vbuf  []byte // value encoding scratch
	batch *jiffy.Batch[K, V]

	// tctx is the request's trace context, re-armed by exec for every
	// request (same reuse discipline as the scratch buffers: exactly one
	// goroutine executes this connection's requests at a time, so tracing
	// allocates nothing per request). Store writes receive &tctx to
	// attribute their WAL time and propagate the trace ID downstream.
	tctx trace.Ctx
}

// closeSessions closes every session (connection teardown).
func (st *connState[K, V]) closeSessions() {
	st.smu.Lock()
	closed := len(st.sess)
	for id, sess := range st.sess {
		delete(st.sess, id)
		sess.snap.Close()
	}
	st.smu.Unlock()
	st.srv.metrics.sessionsOpen.Add(-int64(closed))
}

// reapSessions closes sessions idle since before deadline (unix nanos),
// reporting how many it closed.
func (st *connState[K, V]) reapSessions(deadline int64) int {
	st.smu.Lock()
	reaped := 0
	for id, sess := range st.sess {
		if sess.lastUsed.Load() < deadline {
			delete(st.sess, id)
			sess.snap.Close()
			reaped++
		}
	}
	st.smu.Unlock()
	st.srv.metrics.sessionsOpen.Add(-int64(reaped))
	return reaped
}

// lookupSess returns the named session with its idle clock touched, or
// nil. Caller must hold smu across its use of the session's snapshot.
func (st *connState[K, V]) lookupSess(snapID uint64) *session[K, V] {
	sess := st.sess[snapID]
	if sess != nil {
		sess.touch()
	}
	return sess
}

// handle executes one request and appends its encoded response frame to
// dst, returning the extended slice.
func (st *connState[K, V]) handle(dst []byte, id uint64, op byte, body []byte) []byte {
	switch op {
	case wire.OpPing:
		return okFrame(dst, id, nil)
	case wire.OpGet:
		return st.handleGet(dst, id, body)
	case wire.OpPut:
		return st.handlePut(dst, id, body)
	case wire.OpDel:
		return st.handleDel(dst, id, body)
	case wire.OpBatch:
		return st.handleBatch(dst, id, body)
	case wire.OpSnap:
		return st.handleSnap(dst, id, body)
	case wire.OpSnapClose:
		return st.handleSnapClose(dst, id, body)
	case wire.OpScan:
		return st.handleScan(dst, id, body)
	case wire.OpCluster:
		return st.handleCluster(dst, id, body)
	}
	return errFrame(dst, id, wire.StatusBadRequest, "unknown opcode")
}

// okFrame appends a StatusOK response carrying body.
func okFrame(dst []byte, id uint64, body []byte) []byte {
	return wire.AppendFrame(dst, id, wire.StatusOK, body)
}

// statusFrame appends an empty-bodied response with the given status.
func statusFrame(dst []byte, id uint64, status byte) []byte {
	return wire.AppendFrame(dst, id, status, nil)
}

// errFrame appends a failure response with a human-readable message.
func errFrame(dst []byte, id uint64, status byte, msg string) []byte {
	return wire.AppendFrame(dst, id, status, []byte(msg))
}

// verFrame appends a StatusOK response whose body is the i64 commit
// version of a write — the client folds it into its read-your-writes
// floor for replica reads.
func verFrame(dst []byte, id uint64, ver int64) []byte {
	var body [8]byte
	binary.LittleEndian.PutUint64(body[:], uint64(ver))
	return okFrame(dst, id, body[:])
}

// writeFailFrame maps a store write error to its response: a replica's
// not-promoted backstop becomes StatusReadOnly (the request raced a
// read-only flip), anything else StatusErr with the message.
func writeFailFrame(dst []byte, id uint64, prefix string, err error) []byte {
	if errors.Is(err, durable.ErrNotPromoted) {
		return statusFrame(dst, id, wire.StatusReadOnly)
	}
	return errFrame(dst, id, wire.StatusErr, prefix+": "+err.Error())
}

func (st *connState[K, V]) handleGet(dst []byte, id uint64, body []byte) []byte {
	if len(body) < 16 {
		return errFrame(dst, id, wire.StatusBadRequest, "get: short body")
	}
	snapID := binary.LittleEndian.Uint64(body[:8])
	floor := int64(binary.LittleEndian.Uint64(body[8:16]))
	if !st.srv.readOK(floor) {
		return statusFrame(dst, id, wire.StatusBehind)
	}
	key, err := st.srv.codec.Key.Decode(body[16:])
	if err != nil {
		return errFrame(dst, id, wire.StatusBadRequest, "get: "+err.Error())
	}
	var val V
	var ok bool
	if snapID == 0 {
		val, ok = st.srv.store.Get(key)
	} else {
		st.smu.Lock()
		sess := st.lookupSess(snapID)
		if sess == nil {
			st.smu.Unlock()
			return statusFrame(dst, id, wire.StatusUnknownSnap)
		}
		val, ok = sess.snap.Get(key)
		st.smu.Unlock()
	}
	if !ok {
		return statusFrame(dst, id, wire.StatusNotFound)
	}
	st.vbuf = st.srv.codec.Value.Append(st.vbuf[:0], val)
	return okFrame(dst, id, st.vbuf)
}

func (st *connState[K, V]) handlePut(dst []byte, id uint64, body []byte) []byte {
	if st.srv.fenced.Load() {
		return statusFrame(dst, id, wire.StatusFenced)
	}
	if st.srv.readOnly.Load() {
		return statusFrame(dst, id, wire.StatusReadOnly)
	}
	kb, rest, err := wire.TakeBytes(body)
	if err != nil {
		return errFrame(dst, id, wire.StatusBadRequest, "put: "+err.Error())
	}
	key, err := st.srv.codec.Key.Decode(kb)
	if err != nil {
		return errFrame(dst, id, wire.StatusBadRequest, "put: "+err.Error())
	}
	val, err := st.srv.codec.Value.Decode(rest)
	if err != nil {
		return errFrame(dst, id, wire.StatusBadRequest, "put: "+err.Error())
	}
	ver, err := st.srv.store.Put(key, val, &st.tctx)
	if err != nil {
		return writeFailFrame(dst, id, "put", err)
	}
	return verFrame(dst, id, ver)
}

func (st *connState[K, V]) handleDel(dst []byte, id uint64, body []byte) []byte {
	if st.srv.fenced.Load() {
		return statusFrame(dst, id, wire.StatusFenced)
	}
	if st.srv.readOnly.Load() {
		return statusFrame(dst, id, wire.StatusReadOnly)
	}
	key, err := st.srv.codec.Key.Decode(body)
	if err != nil {
		return errFrame(dst, id, wire.StatusBadRequest, "del: "+err.Error())
	}
	ver, ok, err := st.srv.store.Remove(key, &st.tctx)
	if err != nil {
		return writeFailFrame(dst, id, "del", err)
	}
	if !ok {
		return statusFrame(dst, id, wire.StatusNotFound)
	}
	return verFrame(dst, id, ver)
}

func (st *connState[K, V]) handleBatch(dst []byte, id uint64, body []byte) []byte {
	if st.srv.fenced.Load() {
		return statusFrame(dst, id, wire.StatusFenced)
	}
	if st.srv.readOnly.Load() {
		return statusFrame(dst, id, wire.StatusReadOnly)
	}
	if st.batch == nil {
		st.batch = jiffy.NewBatch[K, V](16)
	}
	b := st.batch.Reset()
	nops, n := binary.Uvarint(body)
	if n <= 0 {
		return errFrame(dst, id, wire.StatusBadRequest, "batch: missing op count")
	}
	p := body[n:]
	for i := uint64(0); i < nops; i++ {
		if len(p) < 1 {
			return errFrame(dst, id, wire.StatusBadRequest, "batch: truncated")
		}
		kind := p[0]
		p = p[1:]
		kb, rest, err := wire.TakeBytes(p)
		if err != nil {
			return errFrame(dst, id, wire.StatusBadRequest, "batch: "+err.Error())
		}
		p = rest
		key, err := st.srv.codec.Key.Decode(kb)
		if err != nil {
			return errFrame(dst, id, wire.StatusBadRequest, "batch: "+err.Error())
		}
		switch kind {
		case wire.BatchRemove:
			b.Remove(key)
		case wire.BatchPut:
			vb, rest, err := wire.TakeBytes(p)
			if err != nil {
				return errFrame(dst, id, wire.StatusBadRequest, "batch: "+err.Error())
			}
			p = rest
			val, err := st.srv.codec.Value.Decode(vb)
			if err != nil {
				return errFrame(dst, id, wire.StatusBadRequest, "batch: "+err.Error())
			}
			b.Put(key, val)
		default:
			return errFrame(dst, id, wire.StatusBadRequest, "batch: unknown op kind")
		}
	}
	ver, err := st.srv.store.BatchUpdate(b, &st.tctx)
	if err != nil {
		return writeFailFrame(dst, id, "batch", err)
	}
	return verFrame(dst, id, ver)
}

func (st *connState[K, V]) handleSnap(dst []byte, id uint64, body []byte) []byte {
	var floor int64
	switch len(body) {
	case 0:
	case 8:
		floor = int64(binary.LittleEndian.Uint64(body))
	default:
		return errFrame(dst, id, wire.StatusBadRequest, "snap: bad body")
	}
	if !st.srv.readOK(floor) {
		return statusFrame(dst, id, wire.StatusBehind)
	}
	snap := st.srv.store.Snapshot()
	if floor > 0 && snap.Version() < floor {
		snap.Close()
		return statusFrame(dst, id, wire.StatusBehind)
	}
	sess := &session[K, V]{snap: snap}
	sess.touch()
	st.smu.Lock()
	st.nextSnap++
	snapID := st.nextSnap
	st.sess[snapID] = sess
	st.smu.Unlock()
	st.srv.metrics.sessionsOpened.Inc()
	st.srv.metrics.sessionsOpen.Add(1)
	var resp [16]byte
	binary.LittleEndian.PutUint64(resp[0:8], snapID)
	binary.LittleEndian.PutUint64(resp[8:16], uint64(snap.Version()))
	return okFrame(dst, id, resp[:])
}

func (st *connState[K, V]) handleSnapClose(dst []byte, id uint64, body []byte) []byte {
	if len(body) != 8 {
		return errFrame(dst, id, wire.StatusBadRequest, "snap-close: short body")
	}
	snapID := binary.LittleEndian.Uint64(body)
	st.smu.Lock()
	sess := st.sess[snapID]
	if sess != nil {
		delete(st.sess, snapID)
		sess.snap.Close()
	}
	st.smu.Unlock()
	if sess == nil {
		return statusFrame(dst, id, wire.StatusUnknownSnap)
	}
	st.srv.metrics.sessionsOpen.Add(-1)
	return okFrame(dst, id, nil)
}

// handleCluster answers a topology/role inquiry and absorbs the caller's
// epoch announcement. The response is the Cluster hook's ClusterInfo (or
// a synthesized members-less one), with the role corrected to RoleFenced
// while the fence flag is up. An announced epoch above the node's own is
// forwarded to OnPeerEpoch — this is how a client that has already found
// the new primary fences a stale one it still has a connection to.
func (st *connState[K, V]) handleCluster(dst []byte, id uint64, body []byte) []byte {
	srv := st.srv
	if len(body) >= 8 {
		if known := int64(binary.LittleEndian.Uint64(body)); known > srv.epoch() && srv.opts.OnPeerEpoch != nil {
			srv.opts.OnPeerEpoch(known)
		}
	}
	var ci wire.ClusterInfo
	if srv.opts.Cluster != nil {
		ci = srv.opts.Cluster()
	} else {
		ci = wire.ClusterInfo{Epoch: srv.epoch(), Role: wire.RolePrimary}
		if wm := srv.opts.Watermark; wm != nil {
			ci.Watermark = wm()
		}
		if srv.readOnly.Load() {
			ci.Role = wire.RoleReplica
		}
	}
	if srv.fenced.Load() {
		ci.Role = wire.RoleFenced
	}
	st.vbuf = wire.AppendClusterInfo(st.vbuf[:0], ci)
	return okFrame(dst, id, st.vbuf)
}

// handleScan delivers one cursored page. The iterator lives only inside
// this request: a slow or stalled client pins no iterator state, no epoch
// and no server buffer between pages — just the session's snapshot
// registration, which the TTL reaper bounds.
func (st *connState[K, V]) handleScan(dst []byte, id uint64, body []byte) []byte {
	start := len(dst) // truncate back here if the page must become an error
	if len(body) < 21 {
		return errFrame(dst, id, wire.StatusBadRequest, "scan: short body")
	}
	snapID := binary.LittleEndian.Uint64(body[0:8])
	floor := int64(binary.LittleEndian.Uint64(body[8:16]))
	maxEntries := int(binary.LittleEndian.Uint32(body[16:20]))
	mode := body[20]
	rest := body[21:]
	if !st.srv.readOK(floor) {
		return statusFrame(dst, id, wire.StatusBehind)
	}
	var cursor K
	if mode == wire.ScanInclusive || mode == wire.ScanExclusive {
		kb, r2, err := wire.TakeBytes(rest)
		if err != nil {
			return errFrame(dst, id, wire.StatusBadRequest, "scan: "+err.Error())
		}
		rest = r2
		cursor, err = st.srv.codec.Key.Decode(kb)
		if err != nil {
			return errFrame(dst, id, wire.StatusBadRequest, "scan: "+err.Error())
		}
	} else if mode != wire.ScanFromStart {
		return errFrame(dst, id, wire.StatusBadRequest, "scan: unknown cursor mode")
	}
	if maxEntries < 1 {
		maxEntries = 1
	}
	if maxEntries > st.srv.opts.MaxScanPage {
		maxEntries = st.srv.opts.MaxScanPage
	}

	var snap Snap[K, V]
	if snapID == 0 {
		// Sessionless page: an ephemeral snapshot for this page only.
		snap = st.srv.store.Snapshot()
		defer snap.Close()
	} else {
		st.smu.Lock()
		defer st.smu.Unlock()
		sess := st.lookupSess(snapID)
		if sess == nil {
			return statusFrame(dst, id, wire.StatusUnknownSnap)
		}
		snap = sess.snap
	}
	if floor > 0 && snap.Version() < floor {
		return statusFrame(dst, id, wire.StatusBehind)
	}

	it := snap.Iter()
	defer it.Close()
	if mode != wire.ScanFromStart {
		it.Seek(cursor)
	}
	resp, lenAt := wire.BeginFrame(dst, id, wire.StatusOK)
	moreAt := len(resp)
	resp = append(resp, 0) // more flag, patched below
	countAt := len(resp)
	resp = append(resp, 0, 0, 0, 0) // u32 count, patched below
	count := 0
	pageStart := len(resp)
	truncated := false
	for count < maxEntries && it.Next() {
		k := it.Key()
		if mode == wire.ScanExclusive && count == 0 && k == cursor {
			continue // the cursor key itself: delivered by the previous page
		}
		st.kbuf = st.srv.codec.Key.Append(st.kbuf[:0], k)
		st.vbuf = st.srv.codec.Value.Append(st.vbuf[:0], it.Value())
		entryBytes := len(st.kbuf) + len(st.vbuf) + 16 // two uvarint prefixes, generously
		if count > 0 && len(resp)-pageStart+entryBytes > maxScanPageBytes {
			// The page is bounded by bytes as well as entries, so large
			// values cannot push a frame past the protocol limit. The
			// entry stays unsent; the client's cursor resumes on it.
			truncated = true
			break
		}
		if len(resp)-start+entryBytes > wire.MaxFrameBytes-64 {
			// A single entry too big for any frame (a value put near the
			// frame limit gains a key and length prefixes on the way
			// out): unservable by this protocol, and silently dropping it
			// would corrupt the scan. Report it instead of building a
			// frame the client must reject.
			return errFrame(resp[:start], id, wire.StatusErr, "scan: entry exceeds the protocol frame limit")
		}
		resp = wire.AppendBytes(resp, st.kbuf)
		resp = wire.AppendBytes(resp, st.vbuf)
		count++
	}
	if truncated || (count == maxEntries && it.Next()) {
		resp[moreAt] = 1
	}
	binary.LittleEndian.PutUint32(resp[countAt:], uint32(count))
	return wire.EndFrame(resp, lenAt)
}
