package main

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"time"

	"repro/jiffy"
)

type opKind int

const (
	opGet opKind = iota
	opPut
	opBatch
	opScan
	numOps
)

var opNames = [numOps]string{"get", "put", "batch", "scan"}

// target is the surface a worker drives: the embedded map or the network
// client. scan opens a snapshot, reads [lo, hi) through it and closes it.
type target interface {
	get(key string) ([]byte, bool, error)
	put(key string, val []byte) error
	batch(b *jiffy.Batch[string, []byte]) error
	scan(lo, hi string, fn func(key string, val []byte)) error
}

// Latency histogram: exact below 128ns, then 64 linear sub-buckets per
// power of two (under 1.6% wide). Quantiles interpolate linearly inside a
// bucket, so a median moves smoothly with the samples instead of snapping
// to bucket edges.
const (
	histSub     = 64
	histBuckets = 46 * histSub
)

type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sumNs  uint64
}

func bucketOf(ns uint64) int {
	if ns < 2*histSub {
		return int(ns)
	}
	e := bits.Len64(ns) - 7 // ns>>e lies in [64, 128)
	return min((e+1)*histSub+int(ns>>e)-histSub, histBuckets-1)
}

// bucketSpan returns bucket i's lower bound and width in nanoseconds.
func bucketSpan(i int) (lo, width float64) {
	if i < 2*histSub {
		return float64(i), 1
	}
	e := i/histSub - 1
	m := uint64(i%histSub + histSub)
	return float64(m << e), float64(uint64(1) << e)
}

func (h *hist) record(d time.Duration) {
	ns := uint64(max(d, 0))
	h.counts[bucketOf(ns)]++
	h.n++
	h.sumNs += ns
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sumNs += o.sumNs
}

// quantileUs returns the q-quantile in microseconds (0 when empty).
func (h *hist) quantileUs(q float64) float64 {
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo, w := bucketSpan(i)
			return (lo + w*(rank-cum)/float64(c)) / 1e3
		}
		cum += float64(c)
	}
	return 0
}

func (h *hist) meanUs() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sumNs) / float64(h.n) / 1e3
}

// opHists holds one latency histogram per operation kind.
type opHists [numOps]hist

func (h *opHists) merge(o *opHists) {
	for i := range h {
		h[i].merge(&o[i])
	}
}

func (h *opHists) completed() uint64 {
	var n uint64
	for i := range h {
		n += h[i].n
	}
	return n
}

// window is the length of the slices of a phase whose medians the
// end-to-end metrics report: a burst of load from outside the benchmark
// then skews a few windows instead of the whole run.
const window = time.Second

// phaseStats is what one worker measured in one phase.
type phaseStats struct {
	lat       opHists // completed operations only
	attempted uint64
	failed    uint64
	userBytes uint64 // key and value bytes of acknowledged writes
}

func (s *phaseStats) merge(o *phaseStats) {
	s.lat.merge(&o.lat)
	s.attempted += o.attempted
	s.failed += o.failed
	s.userBytes += o.userBytes
}

// worker is one closed-loop client: it issues its next operation only when
// the previous one has completed, in whole rounds of a fixed deck.
type worker struct {
	id        int
	ks        *keyspace
	t         target
	rng       *rand.Rand
	viol      *violations
	deck      []opKind
	scanSlots int
	owned     int    // blocks this worker owns
	seq       uint64 // stamps issued
	err       error  // first failed operation; the worker stops on it

	st    phaseStats
	start time.Time  // of the phase
	wins  []*opHists // per window of the phase, by completion time

	b        *jiffy.Batch[string, []byte]
	slots    [blockSize]int
	scanKeys []string
	scanVals [][]byte
}

func newWorker(id int, ks *keyspace, seed uint64, mix [numOps]int, scanSlots int, viol *violations) *worker {
	w := &worker{
		id:        id,
		ks:        ks,
		rng:       rand.New(rand.NewPCG(seed, uint64(id)+1)),
		viol:      viol,
		scanSlots: scanSlots,
		owned:     (ks.blocks() - id + ks.workers - 1) / ks.workers,
		b:         jiffy.NewBatch[string, []byte](batchKeys),
	}
	for op, n := range mix {
		for range n {
			w.deck = append(w.deck, opKind(op))
		}
	}
	return w
}

// run plays shuffled rounds of the deck until the deadline has passed at
// the end of a round, or an operation fails.
func (w *worker) run(deadline time.Time) {
	for w.err == nil {
		w.rng.Shuffle(len(w.deck), func(i, j int) { w.deck[i], w.deck[j] = w.deck[j], w.deck[i] })
		for _, op := range w.deck {
			if w.err != nil {
				return
			}
			w.step(op)
		}
		if !time.Now().Before(deadline) {
			return
		}
	}
}

// ownedBlock picks one of the worker's blocks uniformly.
func (w *worker) ownedBlock() int {
	return w.id + w.rng.IntN(w.owned)*w.ks.workers
}

// presentKey returns the first key the oracle holds present in block b,
// starting at a random slot. Every block has one: its total is positive.
func (w *worker) presentKey(b int) int {
	s := w.rng.IntN(blockSize)
	for i := range blockSize {
		idx := b*blockSize + (s+i)%blockSize
		if w.ks.amount[idx] != 0 {
			return idx
		}
	}
	panic(fmt.Sprintf("block %d holds no key", b))
}

func (w *worker) nextStamp() uint64 {
	w.seq++
	return uint64(w.id+1)<<40 | w.seq
}

// record adds a completed operation that started at t0 and took d.
func (w *worker) record(op opKind, t0 time.Time, d time.Duration) {
	w.st.lat[op].record(d)
	k := int(t0.Add(d).Sub(w.start) / window)
	for len(w.wins) <= k {
		w.wins = append(w.wins, new(opHists))
	}
	w.wins[k][op].record(d)
}

func (w *worker) fail(op opKind, err error) {
	w.st.failed++
	w.err = fmt.Errorf("worker %d %s: %w", w.id, opNames[op], err)
}

func (w *worker) step(op opKind) {
	w.st.attempted++
	ks := w.ks
	switch op {
	case opGet:
		idx := w.ownedBlock()*blockSize + w.rng.IntN(blockSize)
		t0 := time.Now()
		val, found, err := w.t.get(ks.keys[idx])
		d := time.Since(t0)
		if err != nil {
			w.fail(op, err)
			return
		}
		w.record(op, t0, d)
		w.viol.add(checkGet(ks, idx, val, found))

	case opPut:
		// Rewrite a present key with its amount and a fresh stamp.
		idx := w.presentKey(w.ownedBlock())
		stamp := w.nextStamp()
		val := encodeVal(ks.amount[idx], stamp)
		t0 := time.Now()
		err := w.t.put(ks.keys[idx], val)
		d := time.Since(t0)
		if err != nil {
			w.fail(op, err)
			return
		}
		w.record(op, t0, d)
		ks.stamp[idx] = stamp
		w.st.userBytes += uint64(len(ks.keys[idx]) + len(val))

	case opBatch:
		w.doBatch()

	case opScan:
		lo := w.rng.IntN(ks.size() - w.scanSlots + 1)
		hi := lo + w.scanSlots
		w.scanKeys, w.scanVals = w.scanKeys[:0], w.scanVals[:0]
		hiKey := "~" // above every key
		if hi < ks.size() {
			hiKey = ks.keys[hi]
		}
		t0 := time.Now()
		err := w.t.scan(ks.keys[lo], hiKey, w.collect)
		d := time.Since(t0)
		if err != nil {
			w.fail(op, err)
			return
		}
		w.record(op, t0, d)
		r := newRangeCheck(ks, w.id, lo, hi)
		for i, k := range w.scanKeys {
			r.add(k, w.scanVals[i])
		}
		w.viol.add(r.finish())
	}
}

func (w *worker) collect(key string, val []byte) {
	w.scanKeys = append(w.scanKeys, key)
	w.scanVals = append(w.scanVals, val)
}

// doBatch moves amounts among batchKeys keys of one owned block in five
// transfers, removing keys that fall to zero. A transfer moves its
// source's whole amount one time in emptyOdds: a key empties as often as
// an absent one is refilled when about one key in emptyOdds is absent,
// which is how the keyspace is prefilled. The first transfer's source is
// present, so every batch writes at least one value.
func (w *worker) doBatch() {
	ks := w.ks
	blk := w.ownedBlock()
	base := blk * blockSize
	for i := range w.slots {
		w.slots[i] = i
	}
	first := w.presentKey(blk) - base
	w.slots[0], w.slots[first] = first, 0
	for i := 1; i < batchKeys; i++ {
		j := i + w.rng.IntN(blockSize-i)
		w.slots[i], w.slots[j] = w.slots[j], w.slots[i]
	}
	var amt [batchKeys]uint64
	for i := range amt {
		amt[i] = ks.amount[base+w.slots[i]]
	}
	for i := 0; i < batchKeys; i += 2 {
		var move uint64
		switch a := amt[i]; {
		case a == 0:
		case w.rng.IntN(emptyOdds) == 0:
			move = a
		default:
			move = 1 + w.rng.Uint64N(a)
		}
		amt[i] -= move
		amt[i+1] += move
	}
	stamp := w.nextStamp()
	w.b.Reset()
	var user uint64
	for i, a := range amt {
		k := ks.keys[base+w.slots[i]]
		if a == 0 {
			w.b.Remove(k)
			user += uint64(len(k))
			continue
		}
		w.b.Put(k, encodeVal(a, stamp))
		user += uint64(len(k) + valueLen)
	}
	t0 := time.Now()
	err := w.t.batch(w.b)
	d := time.Since(t0)
	if err != nil {
		w.fail(opBatch, err)
		return
	}
	w.record(opBatch, t0, d)
	w.st.userBytes += user
	for i, a := range amt {
		idx := base + w.slots[i]
		ks.amount[idx] = a
		ks.stamp[idx] = 0
		if a != 0 {
			ks.stamp[idx] = stamp
		}
	}
}
