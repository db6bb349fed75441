// Package kiwi implements a KiWi-style chunked multiversion key-value map
// after Basin et al. (PPoPP '17), the paper's remaining baseline. Like the
// released KiWi codebase, it is specialized to 4-byte integer keys and
// values (the paper's footnote 8).
//
// The properties the evaluation depends on are reproduced faithfully:
//
//   - version numbers come from a single shared atomic counter — the
//     design §3.2 argues becomes a bottleneck (scans increment it, updates
//     read it), in contrast to Jiffy's TSC;
//   - updates overwrite in place (push a same-key version) and only the
//     multiversion chain makes concurrent scans consistent;
//   - keys live in cache-friendly sorted chunks.
//
// Simplification (DESIGN.md): chunk rebalance (key insertion and chunk
// split) is guarded by a per-chunk mutex instead of KiWi's lock-free
// rebalance protocol; value updates of existing keys and all reads remain
// lock-free.
package kiwi

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

const (
	maxChunk  = 2048
	scanSlots = 64
)

// cellVer is one version of a key's value.
type cellVer struct {
	ver  int64
	val  uint32
	del  bool
	next atomic.Pointer[cellVer]
}

// cell anchors a key's version chain.
type cell struct {
	head atomic.Pointer[cellVer]
}

// payload is a chunk's immutable sorted key array plus the per-key
// version-chain anchors, and a small sorted overflow region that absorbs
// new-key inserts cheaply (KiWi's pre-allocated k-cells region): only when
// the overflow fills is it merged into the base arrays. Replaced wholesale
// under the chunk mutex when keys are added.
type payload struct {
	keys   []uint32
	cells  []*cell
	okeys  []uint32
	ocells []*cell
}

// maxOverflow bounds the overflow region; merging 2048 base entries every
// 64 inserts keeps new-key insertion amortized ~O(maxOverflow).
const maxOverflow = 64

type chunk struct {
	minKey uint32
	next   atomic.Pointer[chunk]
	mu     sync.Mutex
	data   atomic.Pointer[payload]
}

// Map is a KiWi-style ordered map from uint32 to uint32.
type Map struct {
	gv    atomic.Int64 // the global version counter
	head  atomic.Pointer[chunk]
	scans [scanSlots]atomic.Int64 // active scan versions (0 = free)
}

// New returns an empty map.
func New() *Map {
	m := &Map{}
	m.gv.Store(1)
	c := &chunk{}
	c.data.Store(&payload{})
	m.head.Store(c)
	return m
}

// Name implements index.Named.
func (m *Map) Name() string { return "kiwi" }

// findChunk returns the chunk covering key.
func (m *Map) findChunk(key uint32) *chunk {
	c := m.head.Load()
	for {
		n := c.next.Load()
		if n == nil || n.minKey > key {
			return c
		}
		c = n
	}
}

// lookup returns the cell anchoring key's version chain, searching the base
// array and then the overflow region, or nil.
func (p *payload) lookup(key uint32) *cell {
	i := sort.Search(len(p.keys), func(i int) bool { return p.keys[i] >= key })
	if i < len(p.keys) && p.keys[i] == key {
		return p.cells[i]
	}
	i = sort.Search(len(p.okeys), func(i int) bool { return p.okeys[i] >= key })
	if i < len(p.okeys) && p.okeys[i] == key {
		return p.ocells[i]
	}
	return nil
}

// merged returns the union of base and overflow, sorted (both inputs are
// sorted and disjoint).
func (p *payload) merged() ([]uint32, []*cell) {
	if len(p.okeys) == 0 {
		return p.keys, p.cells
	}
	keys := make([]uint32, 0, len(p.keys)+len(p.okeys))
	cells := make([]*cell, 0, len(p.cells)+len(p.ocells))
	i, j := 0, 0
	for i < len(p.keys) && j < len(p.okeys) {
		if p.keys[i] < p.okeys[j] {
			keys = append(keys, p.keys[i])
			cells = append(cells, p.cells[i])
			i++
		} else {
			keys = append(keys, p.okeys[j])
			cells = append(cells, p.ocells[j])
			j++
		}
	}
	keys = append(keys, p.keys[i:]...)
	cells = append(cells, p.cells[i:]...)
	keys = append(keys, p.okeys[j:]...)
	cells = append(cells, p.ocells[j:]...)
	return keys, cells
}

// minActiveScan returns the smallest registered scan version, or now if no
// scan is active; versions older than it can be pruned.
func (m *Map) minActiveScan(now int64) int64 {
	min := now
	for i := range m.scans {
		if v := m.scans[i].Load(); v != 0 && v < min {
			min = v
		}
	}
	return min
}

// pushVersion prepends a version to a cell, retrying until it lands.
func (m *Map) pushVersion(c *cell, val uint32) {
	for !m.casVersion(c, c.head.Load(), val, false) {
	}
}

// casVersion prepends a version to a cell if its head is still cur, then
// prunes chain entries invisible to every active scan (the newest version
// at or below the minimal active scan version is the boundary; everything
// older is dead). Reports whether the version was installed.
func (m *Map) casVersion(c *cell, cur *cellVer, val uint32, del bool) bool {
	nv := &cellVer{ver: m.gv.Load(), val: val, del: del}
	nv.next.Store(cur)
	if !c.head.CompareAndSwap(cur, nv) {
		return false
	}
	prune(nv, m.minActiveScan(math.MaxInt64))
	return true
}

// prune cuts the chain after the first version visible to every present and
// future reader, like Jiffy's revision GC. Scan visibility here is strict
// (a scan at version sv reads versions < sv), so the boundary test is
// strict as well.
func prune(v *cellVer, minScan int64) {
	for v != nil {
		if v.ver < minScan {
			v.next.Store(nil)
			return
		}
		v = v.next.Load()
	}
}

// Put sets the value for key. For keys already present this is a lock-free
// in-place version push; new keys take the chunk's rebalance mutex.
func (m *Map) Put(key, val uint32) {
	for {
		c := m.findChunk(key)
		p := c.data.Load()
		if cell := p.lookup(key); cell != nil {
			m.pushVersion(cell, val)
			return
		}
		if m.insertKey(c, key, val) {
			return
		}
	}
}

// insertKey adds a key to a chunk under its mutex, splitting if oversized.
// Returns false if the chunk no longer covers key (caller retries).
func (m *Map) insertKey(c *chunk, key, val uint32) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.next.Load(); n != nil && n.minKey <= key {
		return false // chunk split under us
	}
	p := c.data.Load()
	if cell := p.lookup(key); cell != nil {
		m.pushVersion(cell, val)
		return true
	}
	nc := &cell{}
	nc.head.Store(&cellVer{ver: m.gv.Load(), val: val})

	// Cheap path: insert into the small overflow region.
	i := sort.Search(len(p.okeys), func(i int) bool { return p.okeys[i] >= key })
	okeys := make([]uint32, len(p.okeys)+1)
	ocells := make([]*cell, len(p.ocells)+1)
	copy(okeys, p.okeys[:i])
	copy(ocells, p.ocells[:i])
	okeys[i], ocells[i] = key, nc
	copy(okeys[i+1:], p.okeys[i:])
	copy(ocells[i+1:], p.ocells[i:])

	if len(okeys) <= maxOverflow && len(p.keys)+len(okeys) <= maxChunk {
		c.data.Store(&payload{keys: p.keys, cells: p.cells, okeys: okeys, ocells: ocells})
		return true
	}

	// Rebalance: merge overflow into the base, splitting if oversized.
	keys, cells := (&payload{keys: p.keys, cells: p.cells, okeys: okeys, ocells: ocells}).merged()
	if len(keys) > maxChunk {
		mid := len(keys) / 2
		right := &chunk{minKey: keys[mid]}
		right.data.Store(&payload{keys: keys[mid:], cells: cells[mid:]})
		right.next.Store(c.next.Load())
		// Publish the right chunk before shrinking this one so a
		// concurrent reader always finds every key in one of the two.
		c.next.Store(right)
		c.data.Store(&payload{keys: keys[:mid:mid], cells: cells[:mid:mid]})
		return true
	}
	c.data.Store(&payload{keys: keys, cells: cells})
	return true
}

// Get returns the newest value stored for key.
func (m *Map) Get(key uint32) (uint32, bool) {
	c := m.findChunk(key)
	p := c.data.Load()
	if cell := p.lookup(key); cell != nil {
		v := cell.head.Load()
		if v != nil && !v.del {
			return v.val, true
		}
	}
	return 0, false
}

// Remove deletes key, reporting whether it was present. Deletion pushes a
// tombstone version (KiWi never shrinks chunks). The tombstone is CASed
// against the very head that was checked live, so of two concurrent
// removes of one key only one reports success.
func (m *Map) Remove(key uint32) bool {
	c := m.findChunk(key)
	p := c.data.Load()
	cell := p.lookup(key)
	if cell == nil {
		return false
	}
	for {
		v := cell.head.Load()
		if v == nil || v.del {
			return false
		}
		if m.casVersion(cell, v, 0, true) {
			return true
		}
	}
}

// RangeFrom visits entries with key >= lo ascending until fn returns false.
// The scan increments the global version counter (its linearization point;
// this is the serializing step Jiffy avoids) and reads, per key, the newest
// version strictly below its scan version.
func (m *Map) RangeFrom(lo uint32, fn func(key, val uint32) bool) {
	// Register in a scan slot with a +inf placeholder before taking the
	// scan version, so concurrent pruning can never free versions this
	// scan might need (same publish-then-refresh pattern as Jiffy's
	// snapshot registry, §3.3.4).
	slot := -1
	for slot < 0 {
		for i := range m.scans {
			if m.scans[i].Load() == 0 && m.scans[i].CompareAndSwap(0, math.MaxInt64) {
				slot = i
				break
			}
		}
	}
	sv := m.gv.Add(1)
	m.scans[slot].Store(sv)
	defer m.scans[slot].Store(0)

	c := m.findChunk(lo)
	for c != nil {
		p := c.data.Load()
		keys, cells := p.merged()
		i := sort.Search(len(keys), func(i int) bool { return keys[i] >= lo })
		for ; i < len(keys); i++ {
			v := cells[i].head.Load()
			for v != nil && v.ver >= sv {
				v = v.next.Load()
			}
			if v == nil || v.del {
				continue
			}
			if !fn(keys[i], v.val) {
				return
			}
		}
		c = c.next.Load()
	}
}

// Len counts live entries (O(n); for tests).
func (m *Map) Len() int {
	n := 0
	m.RangeFrom(0, func(uint32, uint32) bool { n++; return true })
	return n
}
