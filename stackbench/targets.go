package main

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/trace"
	"repro/jiffy"
	"repro/jiffy/client"
)

// mapTarget drives an in-process jiffy.Map: the embedded workload.
type mapTarget struct{ m *jiffy.Map[string, []byte] }

func (t mapTarget) get(key string) ([]byte, bool, error) {
	v, ok := t.m.Get(key)
	return v, ok, nil
}

func (t mapTarget) put(key string, val []byte) error {
	t.m.Put(key, val)
	return nil
}

func (t mapTarget) batch(b *jiffy.Batch[string, []byte]) error {
	t.m.BatchUpdate(b)
	return nil
}

func (t mapTarget) scan(lo, hi string, fn func(key string, val []byte)) error {
	s := t.m.Snapshot()
	defer s.Close()
	s.Range(lo, hi, func(k string, v []byte) bool {
		fn(k, v)
		return true
	})
	return nil
}

// clientTarget drives the server through jiffy/client; scans run in a
// snapshot session.
type clientTarget struct {
	c *client.Client[string, []byte]
}

func (t clientTarget) get(key string) ([]byte, bool, error) { return t.c.Get(key) }

func (t clientTarget) put(key string, val []byte) error { return t.c.Put(key, val) }

func (t clientTarget) batch(b *jiffy.Batch[string, []byte]) error {
	return t.c.BatchUpdate(b.Ops())
}

func (t clientTarget) scan(lo, hi string, fn func(key string, val []byte)) error {
	s, err := t.c.Snapshot()
	if err != nil {
		return err
	}
	sc := s.Scan(lo)
	for sc.Next() && sc.Key() < hi {
		fn(sc.Key(), sc.Value())
	}
	err = sc.Err()
	sc.Close()
	return errors.Join(err, s.Close())
}

// timer accumulates the count and total duration of timed calls.
type timer struct {
	n  atomic.Uint64
	ns atomic.Uint64
}

func (t *timer) since(t0 time.Time) {
	t.n.Add(1)
	t.ns.Add(uint64(time.Since(t0)))
}

func (t *timer) meanUs() float64 {
	n := t.n.Load()
	if n == 0 {
		return 0
	}
	return float64(t.ns.Load()) / float64(n) / 1e3
}

// timedStore wraps the server.Store handed to server.Serve in the traced
// phase, timing every call the server makes into the store layer. Scans
// are priced as snapshot registration, iteration (per entry) and release.
type timedStore struct {
	inner       server.Store[string, []byte]
	get, put    timer
	batch, snap timer
	iter, close timer
	iterEntries atomic.Uint64
}

func (s *timedStore) Get(key string) ([]byte, bool) {
	t0 := time.Now()
	v, ok := s.inner.Get(key)
	s.get.since(t0)
	return v, ok
}

func (s *timedStore) Put(key string, val []byte, tc *trace.Ctx) (int64, error) {
	t0 := time.Now()
	ver, err := s.inner.Put(key, val, tc)
	s.put.since(t0)
	return ver, err
}

func (s *timedStore) Remove(key string, tc *trace.Ctx) (int64, bool, error) {
	return s.inner.Remove(key, tc)
}

func (s *timedStore) BatchUpdate(b *jiffy.Batch[string, []byte], tc *trace.Ctx) (int64, error) {
	t0 := time.Now()
	ver, err := s.inner.BatchUpdate(b, tc)
	s.batch.since(t0)
	return ver, err
}

func (s *timedStore) Snapshot() server.Snap[string, []byte] {
	t0 := time.Now()
	sn := s.inner.Snapshot()
	s.snap.since(t0)
	return &timedSnap{Snap: sn, s: s}
}

// scanUs is the mean store time one scan costs: registration, every
// page's iteration, and release.
func (s *timedStore) scanUs() float64 {
	n := s.snap.n.Load()
	if n == 0 {
		return 0
	}
	ns := s.snap.ns.Load() + s.iter.ns.Load() + s.close.ns.Load()
	return float64(ns) / float64(n) / 1e3
}

// iterNsPerEntry is the iteration time per entry the server read.
func (s *timedStore) iterNsPerEntry() float64 {
	n := s.iterEntries.Load()
	if n == 0 {
		return 0
	}
	return float64(s.iter.ns.Load()) / float64(n)
}

type timedSnap struct {
	server.Snap[string, []byte]
	s *timedStore
}

func (ts *timedSnap) Iter() jiffy.Iterator[string, []byte] {
	return &timedIter{Iterator: ts.Snap.Iter(), s: ts.s, t0: time.Now()}
}

func (ts *timedSnap) Close() {
	t0 := time.Now()
	ts.Snap.Close()
	ts.s.close.since(t0)
}

// timedIter times one page: from opening the iterator to closing it.
type timedIter struct {
	jiffy.Iterator[string, []byte]
	s  *timedStore
	t0 time.Time
	n  uint64
}

func (it *timedIter) Next() bool {
	ok := it.Iterator.Next()
	if ok {
		it.n++
	}
	return ok
}

func (it *timedIter) Close() {
	it.Iterator.Close()
	it.s.iter.since(it.t0)
	it.s.iterEntries.Add(it.n)
}
