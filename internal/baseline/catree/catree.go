// Package catree implements the contention-adapting (CA) search trees of
// Sagonas & Winblad used as baselines in the paper's evaluation (§4.1):
// CA-AVL and CA-SL (lock-based CA trees with mutable AVL / skip-list
// containers, the only competitors that also support linearizable batch
// updates) and CA-imm (immutable sorted-array containers).
//
// Structure: immutable routing nodes direct a key to a leaf (base node)
// holding a lock, a contention statistic and a container of entries. A leaf
// whose lock is frequently contended splits into two leaves under a new
// route; an uncontended leaf joins with its sibling. This is exactly the
// adaptation mechanism the paper contrasts with Jiffy's time-based policy
// (§3.3.6): here granularity follows lock contention, not the read/update
// time ratio.
//
// Batch updates and range scans lock every involved leaf in ascending key
// order and hold all of them until they finish (two-phase locking), which
// makes them linearizable — and is precisely the lock-based behaviour whose
// collapse under large random batches Figure 5/6 demonstrate. Because a
// scan holds every leaf it has visited until it returns, its callback must
// not call back into the tree.
package catree

import (
	"cmp"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/index"
)

// Variant selects the leaf container implementation.
type Variant int

const (
	AVL Variant = iota // CA-AVL: mutable AVL container
	SL                 // CA-SL: mutable skip-list container
	Imm                // CA-imm: immutable sorted-array container
)

// Contention-statistic tuning, following the constants in Sagonas &
// Winblad's implementations: contended lock acquisitions push a leaf
// towards splitting, uncontended ones towards joining.
const (
	statContended   = 250
	statUncontended = -1
	statSplitAt     = 1000
	statJoinAt      = -1000

	// maxLeafSize bounds a leaf regardless of contention: without it a
	// contention-free phase (e.g. single-threaded loading) leaves one
	// giant container whose lock hold times degrade everything that
	// follows. Immutable containers are bounded much tighter because
	// every update copies the whole container — in the published CA-imm,
	// contention keeps them at tens-to-hundreds of entries, an
	// equilibrium a low-core-count host never reaches on its own.
	maxLeafSize    = 1024
	maxLeafSizeImm = 128
)

// ctNode is either a routing node (route == true) or a leaf. Routes are
// immutable except for their child pointers and their validity (cleared
// under mu when a join removes them).
type ctNode[K cmp.Ordered, V any] struct {
	route bool

	// Route fields.
	key         K
	left, right atomic.Pointer[ctNode[K, V]]

	// Shared by routes and leaves: mu guards stat, valid and cont on
	// leaves, and valid on routes during joins.
	mu    sync.Mutex
	stat  int
	valid bool
	cont  container[K, V]
}

// Tree is a contention-adapting search tree.
type Tree[K cmp.Ordered, V any] struct {
	root    atomic.Pointer[ctNode[K, V]]
	variant Variant
}

// New returns an empty CA tree of the given variant.
func New[K cmp.Ordered, V any](variant Variant) *Tree[K, V] {
	t := &Tree[K, V]{variant: variant}
	t.root.Store(t.newLeaf(t.emptyContainer()))
	return t
}

// Name implements index.Named.
func (t *Tree[K, V]) Name() string {
	switch t.variant {
	case AVL:
		return "ca-avl"
	case SL:
		return "ca-sl"
	default:
		return "ca-imm"
	}
}

func (t *Tree[K, V]) emptyContainer() container[K, V] {
	switch t.variant {
	case AVL:
		return newAVL[K, V]()
	case SL:
		return newSL[K, V]()
	default:
		return newImm[K, V]()
	}
}

func (t *Tree[K, V]) fromSorted(keys []K, vals []V) container[K, V] {
	switch t.variant {
	case AVL:
		return avlFromSorted(keys, vals)
	case SL:
		return slFromSorted(keys, vals)
	default:
		return &immContainer[K, V]{keys, vals}
	}
}

func (t *Tree[K, V]) newLeaf(c container[K, V]) *ctNode[K, V] {
	return &ctNode[K, V]{valid: true, cont: c}
}

// traverse walks to the leaf responsible for key, returning the leaf, its
// parent and grandparent routes (nil at the top), and the leaf's exclusive
// upper bound (nil for the rightmost leaf), needed by scans and batches.
func (t *Tree[K, V]) traverse(key K) (gp, p, leaf *ctNode[K, V], upper *K) {
	cur := t.root.Load()
	for cur.route {
		gp = p
		p = cur
		if key < cur.key {
			k := cur.key
			upper = &k
			cur = cur.left.Load()
		} else {
			cur = cur.right.Load()
		}
	}
	return gp, p, cur, upper
}

// lockLeaf acquires the leaf lock, recording contention in the statistic.
// Returns false if the leaf was invalidated before we got it.
func lockLeaf[K cmp.Ordered, V any](leaf *ctNode[K, V]) bool {
	if leaf.mu.TryLock() {
		leaf.stat += statUncontended
	} else {
		leaf.mu.Lock()
		leaf.stat += statContended
	}
	if !leaf.valid {
		leaf.mu.Unlock()
		return false
	}
	return true
}

// Get returns the value stored for key.
func (t *Tree[K, V]) Get(key K) (V, bool) {
	for {
		_, _, leaf, _ := t.traverse(key)
		if !lockLeaf(leaf) {
			continue
		}
		v, ok := leaf.cont.get(key)
		leaf.mu.Unlock()
		return v, ok
	}
}

// Put sets the value for key.
func (t *Tree[K, V]) Put(key K, val V) {
	for {
		gp, p, leaf, _ := t.traverse(key)
		if !lockLeaf(leaf) {
			continue
		}
		leaf.cont = leaf.cont.put(key, val)
		t.adapt(gp, p, leaf)
		leaf.mu.Unlock()
		return
	}
}

// Remove deletes key, reporting whether it was present.
func (t *Tree[K, V]) Remove(key K) bool {
	for {
		gp, p, leaf, _ := t.traverse(key)
		if !lockLeaf(leaf) {
			continue
		}
		c, removed := leaf.cont.remove(key)
		leaf.cont = c
		t.adapt(gp, p, leaf)
		leaf.mu.Unlock()
		return removed
	}
}

// adapt performs a split or join if the contention statistic crossed a
// threshold. Called with leaf locked; may invalidate it.
func (t *Tree[K, V]) adapt(gp, p, leaf *ctNode[K, V]) {
	cap := maxLeafSize
	if t.variant == Imm {
		cap = maxLeafSizeImm
	}
	switch {
	case (leaf.stat > statSplitAt || leaf.cont.size() > cap) && leaf.cont.size() >= 2:
		t.splitLeaf(p, leaf)
	case leaf.stat < statJoinAt || leaf.cont.size() == 0:
		t.joinLeaf(gp, p, leaf)
	}
}

// splitLeaf replaces leaf with route{left, right}. Called with leaf locked.
func (t *Tree[K, V]) splitLeaf(p, leaf *ctNode[K, V]) {
	lc, rc, mid := leaf.cont.split()
	route := &ctNode[K, V]{route: true, key: mid, valid: true}
	route.left.Store(t.newLeaf(lc))
	route.right.Store(t.newLeaf(rc))
	if t.replaceChild(p, leaf, route) {
		leaf.valid = false
	} else {
		leaf.stat = 0 // structure moved under us; reset and carry on
	}
}

// joinLeaf merges leaf with its sibling when both are leaves, removing the
// parent route. Called with leaf locked; all additional locks are TryLocks
// so the ascending-order locking discipline of scans and batches cannot
// deadlock against joins.
func (t *Tree[K, V]) joinLeaf(gp, p, leaf *ctNode[K, V]) {
	leaf.stat = 0
	if p == nil {
		return // root leaf: nothing to join with
	}
	if !p.mu.TryLock() {
		return
	}
	defer p.mu.Unlock()
	if !p.valid {
		return
	}
	var sib *ctNode[K, V]
	leafIsLeft := p.left.Load() == leaf
	if leafIsLeft {
		sib = p.right.Load()
	} else {
		sib = p.left.Load()
	}
	if sib == nil || sib.route || sib == leaf {
		return
	}
	if !sib.mu.TryLock() {
		return
	}
	defer sib.mu.Unlock()
	if !sib.valid {
		return
	}
	var merged container[K, V]
	if leafIsLeft {
		merged = leaf.cont.join(sib.cont)
	} else {
		merged = sib.cont.join(leaf.cont)
	}
	nl := t.newLeaf(merged)
	if gp == nil {
		if !t.root.CompareAndSwap(p, nl) {
			return
		}
	} else {
		if !gp.mu.TryLock() {
			return
		}
		defer gp.mu.Unlock()
		if !gp.valid || !t.replaceChild(gp, p, nl) {
			return
		}
	}
	p.valid = false
	leaf.valid = false
	sib.valid = false
}

// replaceChild swaps old for new under parent (or the root). Returns false
// if the slot no longer holds old.
func (t *Tree[K, V]) replaceChild(p, old, nu *ctNode[K, V]) bool {
	if p == nil {
		return t.root.CompareAndSwap(old, nu)
	}
	if p.left.Load() == old {
		return p.left.CompareAndSwap(old, nu)
	}
	if p.right.Load() == old {
		return p.right.CompareAndSwap(old, nu)
	}
	return false
}

// RangeFrom visits entries with key >= lo ascending until fn returns false,
// using two-phase leaf locking: every visited leaf stays locked until the
// scan returns, and leaves are taken in ascending key order, the same order
// BatchUpdate uses. A batch that touches any visited leaf therefore commits
// wholly before or wholly after the scan, which linearizes the scan against
// single-leaf and batch updates. A locked leaf cannot be split or joined, so
// the leaves the scan holds keep their key ranges. fn runs with those locks
// held and must not call back into the tree.
func (t *Tree[K, V]) RangeFrom(lo K, fn func(key K, val V) bool) {
	cursor := lo
	var held []*ctNode[K, V]
	defer func() {
		for _, leaf := range held {
			leaf.mu.Unlock()
		}
	}()
	for {
		_, _, leaf, upper := t.traverse(cursor)
		if !lockLeaf(leaf) {
			continue
		}
		held = append(held, leaf)
		if !leaf.cont.ascend(cursor, fn) {
			return
		}
		if upper == nil {
			return // rightmost leaf
		}
		cursor = *upper
	}
}

// BatchUpdate applies ops atomically (CA-AVL and CA-SL support this; we
// provide it for every variant). All involved leaves are locked in
// ascending key order before any mutation, then mutated, then released —
// the textbook lock-based approach whose cost under random batches the
// paper measures.
func (t *Tree[K, V]) BatchUpdate(ops []index.BatchOp[K, V]) {
	if len(ops) == 0 {
		return
	}
	sorted := make([]index.BatchOp[K, V], len(ops))
	copy(sorted, ops)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })

retry:
	for {
		type lockedRun struct {
			leaf     *ctNode[K, V]
			gp, p    *ctNode[K, V]
			from, to int // ops[from:to] belong to this leaf
		}
		var locked []lockedRun
		unlockAll := func() {
			for _, lr := range locked {
				lr.leaf.mu.Unlock()
			}
		}
		i := 0
		for i < len(sorted) {
			gp, p, leaf, upper := t.traverse(sorted[i].Key)
			if !lockLeaf(leaf) {
				unlockAll()
				continue retry
			}
			j := i + 1
			for j < len(sorted) && (upper == nil || sorted[j].Key < *upper) {
				j++
			}
			locked = append(locked, lockedRun{leaf: leaf, gp: gp, p: p, from: i, to: j})
			i = j
		}
		// All locks held: apply every run, then adapt and release.
		for _, lr := range locked {
			for _, op := range sorted[lr.from:lr.to] {
				if op.Remove {
					c, _ := lr.leaf.cont.remove(op.Key)
					lr.leaf.cont = c
				} else {
					lr.leaf.cont = lr.leaf.cont.put(op.Key, op.Val)
				}
			}
		}
		for _, lr := range locked {
			t.adapt(lr.gp, lr.p, lr.leaf)
			lr.leaf.mu.Unlock()
		}
		return
	}
}

// Len counts entries (O(n); for tests).
func (t *Tree[K, V]) Len() int {
	n := 0
	var min K
	t.RangeFrom(min, func(K, V) bool { n++; return true })
	return n
}
