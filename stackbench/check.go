package main

import (
	"fmt"
	"sync"
)

// The output checks are properties of the workload, not copies of an
// earlier run's output:
//
//   - a get of a key its worker owns returns exactly the oracle's value
//     (or absence);
//   - a snapshot scan is strictly ascending, stays inside its range, holds
//     no zero amount, sees every owned key exactly as the oracle holds it,
//     and sums every block it covers whole to the block's conserved total
//     (a batch seen half-applied breaks the sum);
//   - the final state equals the oracle key for key, and the grand total
//     equals the prefill total;
//   - counts the program keeps (server requests, WAL appends) equal the
//     benchmark's own count of completed calls.

// checkGet checks a get of key idx by its owner against the oracle.
func checkGet(ks *keyspace, idx int, val []byte, found bool) error {
	wantA, wantS := ks.amount[idx], ks.stamp[idx]
	if !found {
		if wantA == 0 {
			return nil
		}
		return fmt.Errorf("get %s: absent, oracle holds amount %d stamp %#x", ks.keys[idx], wantA, wantS)
	}
	a, s, ok := decodeVal(val)
	switch {
	case !ok:
		return fmt.Errorf("get %s: malformed %d-byte value", ks.keys[idx], len(val))
	case wantA == 0:
		return fmt.Errorf("get %s: amount %d stamp %#x, oracle holds it absent", ks.keys[idx], a, s)
	case a != wantA || s != wantS:
		return fmt.Errorf("get %s: amount %d stamp %#x, oracle holds amount %d stamp %#x", ks.keys[idx], a, s, wantA, wantS)
	}
	return nil
}

// rangeCheck checks one scan of [lo, hi) as its entries stream in. Keys of
// blocks owned by worker w are compared with the oracle; w < 0 compares
// every key, which is the final-state check once all workers have stopped.
type rangeCheck struct {
	ks        *keyspace
	w, lo, hi int

	prev     int    // last index seen
	next     int    // first index not yet checked for a missing owned key
	cur      int    // block whose sum is accumulating
	endWhole int    // blocks [ceil(lo/blockSize), endWhole) lie wholly in range
	sum      uint64 // of block cur
	total    uint64 // of every amount seen
	err      error
}

func newRangeCheck(ks *keyspace, w, lo, hi int) rangeCheck {
	return rangeCheck{
		ks: ks, w: w, lo: lo, hi: hi,
		prev:     lo - 1,
		next:     lo,
		cur:      (lo + blockSize - 1) / blockSize,
		endWhole: hi / blockSize,
	}
}

func (r *rangeCheck) owned(idx int) bool {
	return r.w < 0 || r.ks.owner(idx/blockSize) == r.w
}

func (r *rangeCheck) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("scan [%s,%s): "+format, append([]any{r.ks.keys[r.lo], r.keyName(r.hi)}, args...)...)
	}
}

func (r *rangeCheck) keyName(idx int) string {
	if idx < r.ks.size() {
		return r.ks.keys[idx]
	}
	return "end"
}

// closeBlocks settles the sums of the whole blocks before block b.
func (r *rangeCheck) closeBlocks(b int) {
	for ; r.cur < b && r.cur < r.endWhole; r.cur++ {
		if r.sum != r.ks.totals[r.cur] {
			r.failf("block %d sums to %d, its conserved total is %d", r.cur, r.sum, r.ks.totals[r.cur])
		}
		r.sum = 0
	}
}

// missingUpTo reports owned keys in [next, end) the oracle holds present.
func (r *rangeCheck) missingUpTo(end int) {
	for j := r.next; j < end; j++ {
		if r.owned(j) && r.ks.amount[j] != 0 { // owned first: other workers write the rest
			r.failf("key %s missing, oracle holds amount %d stamp %#x", r.ks.keys[j], r.ks.amount[j], r.ks.stamp[j])
			break
		}
	}
	r.next = max(r.next, end)
}

// add checks one scanned entry.
func (r *rangeCheck) add(key string, val []byte) {
	idx, ok := indexOf(key, r.ks.size())
	switch {
	case !ok:
		r.failf("unknown key %q", key)
		return
	case idx < r.lo || idx >= r.hi:
		r.failf("key %s out of range", key)
		return
	case idx <= r.prev:
		r.failf("key %s after %s: not strictly ascending", key, r.ks.keys[r.prev])
		return
	}
	r.prev = idx
	a, s, ok := decodeVal(val)
	if !ok {
		r.failf("key %s: malformed %d-byte value", key, len(val))
		return
	}
	if a == 0 {
		r.failf("key %s present with amount 0", key)
	}
	r.missingUpTo(idx)
	r.next = idx + 1
	if r.owned(idx) && (a != r.ks.amount[idx] || s != r.ks.stamp[idx]) {
		r.failf("key %s: amount %d stamp %#x, oracle holds amount %d stamp %#x", key, a, s, r.ks.amount[idx], r.ks.stamp[idx])
	}
	b := idx / blockSize
	r.closeBlocks(b)
	if b == r.cur && b < r.endWhole {
		r.sum += a
	}
	r.total += a
}

// finish settles what the last entry left open and returns the first
// violation.
func (r *rangeCheck) finish() error {
	r.missingUpTo(r.hi)
	r.closeBlocks(r.endWhole)
	return r.err
}

// checkFinal checks a full listing of the store, by all, against the
// oracle.
func checkFinal(ks *keyspace, all func(fn func(key string, val []byte) bool)) error {
	r := newRangeCheck(ks, -1, 0, ks.size())
	all(func(k string, v []byte) bool {
		r.add(k, v)
		return true
	})
	if err := r.finish(); err != nil {
		return fmt.Errorf("final state: %w", err)
	}
	if r.total != ks.grand {
		return fmt.Errorf("final state: grand total %d, prefill total %d", r.total, ks.grand)
	}
	return nil
}

// checkCount compares a count the program keeps with the benchmark's own.
func checkCount(what string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("%s: program counts %d, benchmark counts %d", what, got, want)
	}
	return nil
}

// violations collects check failures from every worker; the first few are
// kept for the report.
type violations struct {
	mu    sync.Mutex
	n     int
	first []string
}

func (v *violations) add(err error) {
	if err == nil {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.n++
	if len(v.first) < 8 {
		v.first = append(v.first, err.Error())
	}
}

func (v *violations) count() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.n
}
