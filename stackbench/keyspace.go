package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"strconv"

	"repro/jiffy"
)

// Key layout. Keys are fixed-width hex strings of their index, so key order
// is index order and a block of blockSize consecutive indices is one
// contiguous key range. Block b belongs to worker b % workers; only its
// owner ever writes a key of the block, and every batch moves amounts among
// keys of one block, so each block's total is conserved.
const (
	blockSize = 16
	batchKeys = 10 // keys per batch: five transfers of one amount each
	valueLen  = 16 // amount (u64 LE) then stamp (u64 LE)
	emptyOdds = 16 // 1 in emptyOdds keys is absent, at prefill and in steady state
)

// keyspace is the benchmark's oracle: the exact amount and stamp of every
// key, and the conserved total of every block. A worker writes only the
// entries of its own blocks, so no entry is shared between workers while
// they run; everything is read by all once they have stopped.
type keyspace struct {
	keys    []string
	amount  []uint64 // 0: the key is absent
	stamp   []uint64
	totals  []uint64 // per block, fixed at prefill
	grand   uint64
	workers int
}

// newKeyspace builds n keys (a multiple of blockSize) and their prefill
// amounts, drawn from seed.
func newKeyspace(n, workers int, seed uint64) *keyspace {
	if n%blockSize != 0 || n <= 0 {
		panic(fmt.Sprintf("keyspace size %d is not a positive multiple of %d", n, blockSize))
	}
	ks := &keyspace{
		keys:    make([]string, n),
		amount:  make([]uint64, n),
		stamp:   make([]uint64, n),
		totals:  make([]uint64, n/blockSize),
		workers: workers,
	}
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	for i := range ks.keys {
		ks.keys[i] = keyOf(i)
		// One key in emptyOdds starts absent: the share batches keep
		// absent (see worker.doBatch), so the live-key count holds
		// steady through a run instead of drifting.
		if rng.IntN(emptyOdds) != 0 {
			ks.amount[i] = 1 + rng.Uint64N(1000)
		}
	}
	for b := range ks.totals {
		var t uint64
		for i := b * blockSize; i < (b+1)*blockSize; i++ {
			t += ks.amount[i]
		}
		if t == 0 { // no block starts empty
			t = 1 + rng.Uint64N(1000)
			ks.amount[b*blockSize] = t
		}
		ks.totals[b] = t
		ks.grand += t
	}
	return ks
}

func (ks *keyspace) size() int       { return len(ks.keys) }
func (ks *keyspace) blocks() int     { return len(ks.totals) }
func (ks *keyspace) owner(b int) int { return b % ks.workers }

// keyOf formats index i as an eight-digit hex key.
func keyOf(i int) string { return fmt.Sprintf("%08x", i) }

// indexOf parses a key back to its index; ok is false for anything keyOf
// cannot have produced.
func indexOf(k string, n int) (int, bool) {
	if len(k) != 8 {
		return 0, false
	}
	v, err := strconv.ParseUint(k, 16, 32)
	if err != nil || v >= uint64(n) || keyOf(int(v)) != k {
		return 0, false
	}
	return int(v), true
}

func encodeVal(amount, stamp uint64) []byte {
	b := make([]byte, valueLen)
	binary.LittleEndian.PutUint64(b, amount)
	binary.LittleEndian.PutUint64(b[8:], stamp)
	return b
}

func decodeVal(b []byte) (amount, stamp uint64, ok bool) {
	if len(b) != valueLen {
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(b), binary.LittleEndian.Uint64(b[8:]), true
}

// prefillChunk is how many consecutive key slots one prefill batch covers;
// a durable store logs one record per batch. Small batches leave revisions
// near the size the workloads' writes settle them at, so a run does not
// spend its first seconds splitting prefill-sized revisions.
const prefillChunk = 64

// prefill writes every present key's prefill value (stamp 0) through
// apply, one batch per prefillChunk slots, and reports the number of calls.
func (ks *keyspace) prefill(apply func(b *jiffy.Batch[string, []byte]) error) (int, error) {
	calls := 0
	b := jiffy.NewBatch[string, []byte](prefillChunk)
	for lo := 0; lo < ks.size(); lo += prefillChunk {
		b.Reset()
		for i := lo; i < min(lo+prefillChunk, ks.size()); i++ {
			if ks.amount[i] != 0 {
				b.Put(ks.keys[i], encodeVal(ks.amount[i], 0))
			}
		}
		if err := apply(b); err != nil {
			return calls, fmt.Errorf("prefill keys %d..: %w", lo, err)
		}
		calls++
	}
	return calls, nil
}

// liveKeys counts the keys the oracle holds present.
func (ks *keyspace) liveKeys() int {
	n := 0
	for _, a := range ks.amount {
		if a != 0 {
			n++
		}
	}
	return n
}
