package main

import (
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/jiffy"
)

// listing returns the oracle's state of [lo, hi) as a scan would return it.
func listing(ks *keyspace, lo, hi int) (keys []string, vals [][]byte) {
	for i := lo; i < hi; i++ {
		if ks.amount[i] != 0 {
			keys = append(keys, ks.keys[i])
			vals = append(vals, encodeVal(ks.amount[i], ks.stamp[i]))
		}
	}
	return keys, vals
}

func scanErr(ks *keyspace, w, lo, hi int, keys []string, vals [][]byte) error {
	r := newRangeCheck(ks, w, lo, hi)
	for i, k := range keys {
		r.add(k, vals[i])
	}
	return r.finish()
}

func wantErr(t *testing.T, err error, substr string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), substr) {
		t.Fatalf("got error %v, want one containing %q", err, substr)
	}
}

// firstPresent returns the first present key index in block b.
func firstPresent(ks *keyspace, b int) int {
	for i := b * blockSize; ; i++ {
		if ks.amount[i] != 0 {
			return i
		}
	}
}

func TestRangeCheckAcceptsOracleState(t *testing.T) {
	ks := newKeyspace(1024, 2, 1)
	for _, r := range [][2]int{{0, 1024}, {5, 300}, {16, 32}, {1000, 1024}, {3, 4}} {
		keys, vals := listing(ks, r[0], r[1])
		for w := -1; w < 2; w++ {
			if err := scanErr(ks, w, r[0], r[1], keys, vals); err != nil {
				t.Fatalf("worker %d range %v: %v", w, r, err)
			}
		}
	}
	if err := checkFinal(ks, func(fn func(string, []byte) bool) {
		keys, vals := listing(ks, 0, ks.size())
		for i, k := range keys {
			fn(k, vals[i])
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// A batch seen half-applied: the source lost its amount, the destination
// has not gained it yet.
func TestRangeCheckCatchesTornBatch(t *testing.T) {
	ks := newKeyspace(1024, 2, 2)
	src := firstPresent(ks, 3)
	keys, vals := listing(ks, 0, 160)
	i := slices.Index(keys, ks.keys[src])
	keys, vals = slices.Delete(keys, i, i+1), slices.Delete(vals, i, i+1)
	// Worker 0 does not own block 3, so only the block sum can tell.
	wantErr(t, scanErr(ks, 0, 0, 160, keys, vals), "block 3 sums to")
}

func TestRangeCheckCatchesWrongBlockSum(t *testing.T) {
	ks := newKeyspace(1024, 2, 3)
	k := firstPresent(ks, 5)
	keys, vals := listing(ks, 64, 128)
	i := slices.Index(keys, ks.keys[k])
	vals[i] = encodeVal(ks.amount[k]+1, ks.stamp[k])
	wantErr(t, scanErr(ks, 0, 64, 128, keys, vals), "block 5 sums to")
}

func TestRangeCheckCatchesOutOfOrderScan(t *testing.T) {
	ks := newKeyspace(1024, 2, 4)
	keys, vals := listing(ks, 0, 64)
	keys[3], keys[4] = keys[4], keys[3]
	vals[3], vals[4] = vals[4], vals[3]
	wantErr(t, scanErr(ks, 1, 0, 64, keys, vals), "not strictly ascending")

	keys, vals = listing(ks, 0, 64)
	keys, vals = append(keys, keys[len(keys)-1]), append(vals, vals[len(vals)-1])
	wantErr(t, scanErr(ks, 1, 0, 64, keys, vals), "not strictly ascending")
}

func TestRangeCheckCatchesOutOfRange(t *testing.T) {
	ks := newKeyspace(1024, 2, 5)
	keys, vals := listing(ks, 32, 96)
	wantErr(t, scanErr(ks, 1, 32, 96, append(keys, ks.keys[96]), append(vals, encodeVal(1, 0))), "out of range")
	keys, vals = listing(ks, 32, 96)
	wantErr(t, scanErr(ks, 1, 32, 96, append([]string{ks.keys[31]}, keys...), append([][]byte{encodeVal(1, 0)}, vals...)), "out of range")
}

// A lost write: the store still holds the value an acknowledged put
// replaced, or lost a key altogether.
func TestChecksCatchLostWrite(t *testing.T) {
	ks := newKeyspace(1024, 2, 6)
	k := firstPresent(ks, 4) // block 4: worker 0's
	stale := encodeVal(ks.amount[k], ks.stamp[k])
	ks.stamp[k] = 1<<40 | 7 // the acknowledged put's stamp
	keys, vals := listing(ks, 0, 128)
	i := slices.Index(keys, ks.keys[k])

	wantErr(t, checkGet(ks, k, stale, true), "oracle holds amount")
	wantErr(t, checkGet(ks, k, nil, false), "absent, oracle holds")

	vals[i] = stale
	wantErr(t, scanErr(ks, 0, 0, 128, keys, vals), "oracle holds amount")

	keys, vals = listing(ks, 0, 128)
	keys, vals = slices.Delete(keys, i, i+1), slices.Delete(vals, i, i+1)
	wantErr(t, scanErr(ks, 0, 0, 128, keys, vals), "missing")

	wantErr(t, checkFinal(ks, func(fn func(string, []byte) bool) {
		for j, key := range keys {
			fn(key, vals[j])
		}
	}), "missing")

	// A removed key that comes back is caught by its owner's get.
	ks.amount[k] = 0
	wantErr(t, checkGet(ks, k, stale, true), "oracle holds it absent")
}

func TestCheckCount(t *testing.T) {
	if err := checkCount("x", 5, 5); err != nil {
		t.Fatal(err)
	}
	wantErr(t, checkCount("jiffyd_requests_total", 4, 5), "program counts 4, benchmark counts 5")
}

// faultyMap is a store with a seeded fault, driven by the real workers.
type faultyMap struct {
	mapTarget
	fault string
	puts  atomic.Uint64
}

func (f *faultyMap) put(key string, val []byte) error {
	if f.fault == "lost-write" && f.puts.Add(1)%50 == 0 {
		return nil // acknowledged, never applied
	}
	return f.mapTarget.put(key, val)
}

func (f *faultyMap) batch(b *jiffy.Batch[string, []byte]) error {
	if f.fault != "torn-batch" {
		return f.mapTarget.batch(b)
	}
	// Two non-atomic halves, with a window between them.
	ops := b.Ops()
	h := len(ops) / 2
	f.m.BatchUpdate(jiffy.BatchOf(ops[:h]...))
	runtime.Gosched()
	f.m.BatchUpdate(jiffy.BatchOf(ops[h:]...))
	return nil
}

func (f *faultyMap) scan(lo, hi string, fn func(key string, val []byte)) error {
	if f.fault != "repeated-entry" {
		return f.mapTarget.scan(lo, hi, fn)
	}
	return f.mapTarget.scan(lo, hi, func(k string, v []byte) {
		fn(k, v)
		fn(k, v)
	})
}

// runFaulty runs the workload's workers against the store until a check
// fails or the time is up, then checks the final state too.
func runFaulty(t *testing.T, fault string, d time.Duration) *violations {
	t.Helper()
	ks := newKeyspace(2048, 2, 9)
	m := jiffy.New[string, []byte]()
	if _, err := ks.prefill(func(b *jiffy.Batch[string, []byte]) error {
		m.BatchUpdate(b)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	f := &faultyMap{mapTarget: mapTarget{m}, fault: fault}
	b := &bench{ks: ks}
	mix := [numOps]int{opGet: 4, opPut: 4, opBatch: 4, opScan: 4}
	for i := range 2 {
		w := newWorker(i, ks, 9, mix, 256, &b.viol)
		w.t = f
		b.workers = append(b.workers, w)
	}
	for end := time.Now().Add(d); time.Now().Before(end) && b.viol.count() == 0; {
		b.runPhase(50 * time.Millisecond)
	}
	b.viol.add(checkFinal(ks, m.All))
	return &b.viol
}

func TestWorkloadPassesOnCorrectStore(t *testing.T) {
	if v := runFaulty(t, "", time.Second); v.count() != 0 {
		t.Fatalf("%d violations on a correct store, first: %v", v.count(), v.first)
	}
}

func TestWorkloadCatchesSeededFaults(t *testing.T) {
	for _, c := range []struct{ fault, want string }{
		{"torn-batch", "sums to"},
		{"lost-write", "oracle holds"},
		{"repeated-entry", "not strictly ascending"},
	} {
		t.Run(c.fault, func(t *testing.T) {
			v := runFaulty(t, c.fault, 20*time.Second)
			if v.count() == 0 {
				t.Fatalf("no check failed with fault %s", c.fault)
			}
			if !slices.ContainsFunc(v.first, func(s string) bool { return strings.Contains(s, c.want) }) {
				t.Fatalf("fault %s: want a violation containing %q, got %v", c.fault, c.want, v.first)
			}
		})
	}
}
