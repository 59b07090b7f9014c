package main

import (
	"sync/atomic"
	"time"

	"locble/internal/core"
	"locble/internal/fleet"
)

// callStat counts calls into one store method and the time they took.
type callStat struct {
	n  atomic.Int64
	ns atomic.Int64
}

func (c *callStat) observe(t0 time.Time) {
	c.n.Add(1)
	c.ns.Add(int64(time.Since(t0)))
}

// storeStats is a reading of a timedStore's counters.
type storeStats struct {
	Saves, Loads, Deletes    int64
	SaveNs, LoadNs, DeleteNs int64
}

func (a storeStats) sub(b storeStats) storeStats {
	return storeStats{
		Saves: a.Saves - b.Saves, Loads: a.Loads - b.Loads, Deletes: a.Deletes - b.Deletes,
		SaveNs: a.SaveNs - b.SaveNs, LoadNs: a.LoadNs - b.LoadNs, DeleteNs: a.DeleteNs - b.DeleteNs,
	}
}

func (a storeStats) add(b storeStats) storeStats {
	return storeStats{
		Saves: a.Saves + b.Saves, Loads: a.Loads + b.Loads, Deletes: a.Deletes + b.Deletes,
		SaveNs: a.SaveNs + b.SaveNs, LoadNs: a.LoadNs + b.LoadNs, DeleteNs: a.DeleteNs + b.DeleteNs,
	}
}

// timedStore is a fleet.CheckpointStore that forwards every call to an
// inner store and, while recording is on, times it. It also forwards
// fleet.DurableStore, reporting a store without that contract as
// non-durable with nothing recovered — exactly how the fleet treats such
// a store — so a fleet's checkpoint accounting is the same over the
// wrapper as over the bare store.
type timedStore struct {
	inner fleet.CheckpointStore
	rec   atomic.Bool

	saves, loads, deletes callStat
}

func newTimedStore(inner fleet.CheckpointStore) *timedStore {
	return &timedStore{inner: inner}
}

// record turns timing on or off.
func (s *timedStore) record(on bool) { s.rec.Store(on) }

func (s *timedStore) stats() storeStats {
	return storeStats{
		Saves: s.saves.n.Load(), Loads: s.loads.n.Load(), Deletes: s.deletes.n.Load(),
		SaveNs: s.saves.ns.Load(), LoadNs: s.loads.ns.Load(), DeleteNs: s.deletes.ns.Load(),
	}
}

// Save implements fleet.CheckpointStore.
func (s *timedStore) Save(beacon string, cp *core.SessionCheckpoint) error {
	if !s.rec.Load() {
		return s.inner.Save(beacon, cp)
	}
	t0 := time.Now()
	err := s.inner.Save(beacon, cp)
	s.saves.observe(t0)
	return err
}

// Load implements fleet.CheckpointStore.
func (s *timedStore) Load(beacon string) (*core.SessionCheckpoint, bool, error) {
	if !s.rec.Load() {
		return s.inner.Load(beacon)
	}
	t0 := time.Now()
	cp, found, err := s.inner.Load(beacon)
	s.loads.observe(t0)
	return cp, found, err
}

// Delete implements fleet.CheckpointStore.
func (s *timedStore) Delete(beacon string) error {
	if !s.rec.Load() {
		return s.inner.Delete(beacon)
	}
	t0 := time.Now()
	err := s.inner.Delete(beacon)
	s.deletes.observe(t0)
	return err
}

// Durable implements fleet.DurableStore.
func (s *timedStore) Durable() bool {
	if ds, ok := s.inner.(fleet.DurableStore); ok {
		return ds.Durable()
	}
	return false
}

// RecoveryCounts implements fleet.DurableStore.
func (s *timedStore) RecoveryCounts() (replayed, truncated, quarantined int64) {
	if ds, ok := s.inner.(fleet.DurableStore); ok {
		return ds.RecoveryCounts()
	}
	return 0, 0, 0
}
