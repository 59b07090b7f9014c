package fleet

import (
	"fmt"
	"sync"

	"locble/internal/core"
)

// CheckpointStore persists evicted sessions' checkpoints and serves
// them back when a beacon reappears. Implementations must be safe for
// concurrent use — pushes on different shards call in at once.
// Durability is the implementation's business: MemStore survives
// evictions but not the process; a disk- or KV-backed store survives
// restarts, at which point the fleet's restore path doubles as crash
// recovery.
type CheckpointStore interface {
	// Save persists a beacon's checkpoint, replacing any previous one.
	Save(beacon string, cp *core.SessionCheckpoint) error
	// Load returns the stored checkpoint, or found=false when none.
	Load(beacon string) (cp *core.SessionCheckpoint, found bool, err error)
	// Delete drops a beacon's checkpoint; absent is not an error.
	Delete(beacon string) error
}

// DurableStore is the optional durability contract a CheckpointStore
// may additionally satisfy (internal/durable's FileStore does). The
// fleet uses it to account checkpoint writes honestly — acked when a
// nil Save means fsynced-to-disk, buffered otherwise — and to surface
// the store's crash-recovery outcome as fleet metrics. Methods use
// only basic types so any store can satisfy it structurally without
// importing this package.
type DurableStore interface {
	// Durable reports whether a nil Save return means the checkpoint
	// has reached stable storage (false for write-behind/buffered
	// configurations).
	Durable() bool
	// RecoveryCounts reports what opening the store replayed and
	// repaired: records applied, torn tails truncated, damaged regions
	// quarantined.
	RecoveryCounts() (replayed, truncated, quarantined int64)
}

// MemStore is the in-process CheckpointStore: serialized checkpoints in
// a map. It stores core.EncodeCheckpoint's bytes rather than the live
// struct, so a restore exercises the same round trip a durable store
// would — no accidental aliasing of mutable session state, and format
// breakage shows up in-process instead of only after a real restart.
type MemStore struct {
	mu sync.Mutex
	m  map[string][]byte
}

// NewMemStore returns an empty in-memory checkpoint store.
func NewMemStore() *MemStore {
	return &MemStore{m: make(map[string][]byte)}
}

// Save implements CheckpointStore.
func (s *MemStore) Save(beacon string, cp *core.SessionCheckpoint) error {
	raw, err := core.EncodeCheckpoint(cp)
	if err != nil {
		return fmt.Errorf("fleet: encode checkpoint %s: %w", beacon, err)
	}
	s.mu.Lock()
	s.m[beacon] = raw
	s.mu.Unlock()
	return nil
}

// Load implements CheckpointStore.
func (s *MemStore) Load(beacon string) (*core.SessionCheckpoint, bool, error) {
	s.mu.Lock()
	raw, ok := s.m[beacon]
	s.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	cp, err := core.DecodeCheckpoint(raw)
	if err != nil {
		return nil, false, fmt.Errorf("fleet: decode checkpoint %s: %w", beacon, err)
	}
	return cp, true, nil
}

// Delete implements CheckpointStore.
func (s *MemStore) Delete(beacon string) error {
	s.mu.Lock()
	delete(s.m, beacon)
	s.mu.Unlock()
	return nil
}

// Len returns how many checkpoints the store holds.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}
