package durable

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"sync"

	"locble/internal/core"
)

// Options configures a FileStore. The zero value (pass nil to Open) is
// the production configuration.
type Options struct {
	// Shards is how many independent WAL shards to spread beacons over
	// (FNV-1a on the beacon name, like the fleet's session shards). More
	// shards mean more group-commit lanes. Zero selects 4. The count is
	// fixed at store creation; reopening an existing directory uses the
	// persisted count and ignores this field.
	Shards int
	// SnapshotEvery is how many WAL records a shard accumulates before
	// rotating a snapshot and compacting the log. Zero selects 512.
	SnapshotEvery int
	// Buffered drops the per-Save fsync: appends land in the OS page
	// cache and become durable at the next snapshot rotation, Sync, or
	// clean Close. Saves are acknowledged as buffered, not durable —
	// Durable() reports false so the fleet accounts them honestly.
	Buffered bool
	// FS overrides the filesystem (tests inject MemFS or fault
	// wrappers). Nil selects the real directory at the Open path.
	FS FS
}

func (o *Options) withDefaults() Options {
	var opt Options
	if o != nil {
		opt = *o
	}
	if opt.Shards <= 0 {
		opt.Shards = 4
	}
	if opt.SnapshotEvery <= 0 {
		opt.SnapshotEvery = 512
	}
	return opt
}

// RecoveryStats is what Open found and repaired while replaying the
// store — the "how bad was the crash" report. All damage is counted and
// sidelined (per shard, into shard-NN.quar), never silently dropped.
type RecoveryStats struct {
	// Replayed counts records applied from snapshots and WALs.
	Replayed int64 `json:"replayed"`
	// TornTails counts trailing WAL regions with no valid frame — the
	// classic crash-mid-append tear, truncated away. TornBytes is their
	// total size.
	TornTails int64 `json:"torn_tails"`
	TornBytes int64 `json:"torn_bytes"`
	// Quarantined counts damaged mid-file regions (bad checksum or
	// undecodable structure) that replay skipped after resynchronizing
	// on a later valid frame. QuarantinedBytes is their total size.
	Quarantined      int64 `json:"quarantined"`
	QuarantinedBytes int64 `json:"quarantined_bytes"`
	// RepairedShards counts shards whose on-disk files were rewritten
	// (snapshot rotation) or truncated to repair damage at open.
	RepairedShards int64 `json:"repaired_shards"`
}

func (r *RecoveryStats) add(s scanStats) {
	r.Replayed += s.records
	r.TornTails += s.tornTail
	r.TornBytes += s.tornBytes
	r.Quarantined += s.quarRegions
	r.QuarantinedBytes += s.quarBytes
}

// ErrStoreClosed is returned by operations on a closed store.
var ErrStoreClosed = errors.New("durable: store is closed")

// metaName persists the shard count; the layout must survive reopening
// with different Options.
const metaName = "META"

type metaFile struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// FileStore is the crash-safe checkpoint store: fleet.CheckpointStore
// backed by per-shard write-ahead logs with periodic snapshot
// compaction. All state is also held in memory (checkpoints are small
// — the files exist to survive restarts, not to exceed RAM), so Load
// never touches the disk.
type FileStore struct {
	fs     FS
	opt    Options
	shards []*walShard
	rec    RecoveryStats
}

// Open opens (creating if needed) the store rooted at dir, replaying
// and repairing any existing state. A torn WAL tail is truncated;
// checksum-failed regions are quarantined into shard-NN.quar and
// skipped; both are counted in RecoveryStats. Open fails only when the
// filesystem itself does — damage in the data is repaired, not fatal.
func Open(dir string, opt *Options) (*FileStore, error) {
	o := opt.withDefaults()
	if o.FS == nil {
		dfs, err := NewDirFS(dir)
		if err != nil {
			return nil, fmt.Errorf("durable: open %s: %w", dir, err)
		}
		o.FS = dfs
	}
	st := &FileStore{fs: o.FS, opt: o}
	if err := st.loadMeta(); err != nil {
		return nil, err
	}
	st.shards = make([]*walShard, st.opt.Shards)
	for i := range st.shards {
		sh, err := st.openShard(i)
		if err != nil {
			return nil, err
		}
		st.shards[i] = sh
	}
	// One directory sync makes the whole namespace — META, every shard
	// WAL — durable before the first Save can be acknowledged. Without
	// it a freshly created store could fsync WAL content into files a
	// power cut then unlinks.
	if err := st.fs.SyncDir(); err != nil {
		return nil, fmt.Errorf("durable: sync dir: %w", err)
	}
	return st, nil
}

// loadMeta reads or creates the META file and pins the shard count. A
// corrupt or missing META with shard files on disk derives the count
// from the files themselves — data placement beats configuration.
func (st *FileStore) loadMeta() error {
	raw, err := st.fs.ReadFile(metaName)
	if err == nil {
		var m metaFile
		if jerr := json.Unmarshal(raw, &m); jerr == nil && m.Shards > 0 {
			st.opt.Shards = m.Shards
			return nil
		}
		// Fall through: META unreadable (e.g. a crash mid-creation).
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("durable: read %s: %w", metaName, err)
	}
	if n := st.shardCountFromFiles(); n > 0 {
		st.opt.Shards = n
	}
	return st.writeMeta()
}

// shardCountFromFiles infers the shard count from existing shard files
// (highest index + 1), for recovery from a damaged META.
func (st *FileStore) shardCountFromFiles() int {
	names, err := st.fs.List()
	if err != nil {
		return 0
	}
	max := -1
	for _, name := range names {
		var id int
		var kind string
		if _, err := fmt.Sscanf(name, "shard-%02d.%s", &id, &kind); err == nil && id > max {
			max = id
		}
	}
	return max + 1
}

func (st *FileStore) writeMeta() error {
	raw, _ := json.Marshal(metaFile{Version: 1, Shards: st.opt.Shards})
	tmp := metaName + ".tmp"
	f, err := st.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: create %s: %w", tmp, err)
	}
	if _, err := f.Write(raw); err == nil {
		err = f.Sync()
	} else {
		f.Close()
		return fmt.Errorf("durable: write %s: %w", tmp, err)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("durable: write %s: %w", tmp, err)
	}
	if err := st.fs.Rename(tmp, metaName); err != nil {
		return fmt.Errorf("durable: install %s: %w", metaName, err)
	}
	return nil
}

// shardIndex is FNV-1a over the beacon name — the same spread the
// fleet uses for its session shards.
func (st *FileStore) shardIndex(beacon string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(beacon); i++ {
		h ^= uint32(beacon[i])
		h *= prime32
	}
	return int(h % uint32(len(st.shards)))
}

// Save implements fleet.CheckpointStore. When the store is in durable
// (non-Buffered) mode, a nil return means the checkpoint has been
// fsynced — it survives an immediate power cut.
func (st *FileStore) Save(beacon string, cp *core.SessionCheckpoint) error {
	raw, err := core.EncodeCheckpoint(cp)
	if err != nil {
		return fmt.Errorf("durable: encode checkpoint %s: %w", beacon, err)
	}
	return st.shards[st.shardIndex(beacon)].save(beacon, raw, !st.opt.Buffered)
}

// Load implements fleet.CheckpointStore. It serves from the in-memory
// image (every byte of which arrived CRC-verified or was written by
// this process); a decode failure is reported as ErrCorruptCheckpoint
// so the fleet quarantines the beacon instead of wedging it.
func (st *FileStore) Load(beacon string) (*core.SessionCheckpoint, bool, error) {
	raw, ok := st.shards[st.shardIndex(beacon)].load(beacon)
	if !ok {
		return nil, false, nil
	}
	cp, err := core.DecodeCheckpoint(raw)
	if err != nil {
		return nil, false, fmt.Errorf("durable: decode checkpoint %s: %w", beacon, err)
	}
	return cp, true, nil
}

// Delete implements fleet.CheckpointStore: appends a tombstone record.
// Deleting an absent beacon is a no-op.
func (st *FileStore) Delete(beacon string) error {
	return st.shards[st.shardIndex(beacon)].delete(beacon, !st.opt.Buffered)
}

// Sync forces every shard durable — the Buffered mode's explicit
// durability point.
func (st *FileStore) Sync() error {
	var first error
	for _, sh := range st.shards {
		if err := sh.syncAll(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close syncs every shard (a clean Close makes Buffered saves durable)
// and releases file handles. Operations after Close fail.
func (st *FileStore) Close() error {
	var first error
	for _, sh := range st.shards {
		if err := sh.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Len returns how many checkpoints the store holds.
func (st *FileStore) Len() int {
	n := 0
	for _, sh := range st.shards {
		sh.mu.Lock()
		n += len(sh.mem)
		sh.mu.Unlock()
	}
	return n
}

// Beacons returns the stored beacon names, sorted.
func (st *FileStore) Beacons() []string {
	var names []string
	for _, sh := range st.shards {
		sh.mu.Lock()
		for name := range sh.mem {
			names = append(names, name)
		}
		sh.mu.Unlock()
	}
	sort.Strings(names)
	return names
}

// RecoveryStats reports what Open replayed and repaired.
func (st *FileStore) RecoveryStats() RecoveryStats { return st.rec }

// Durable reports whether a nil Save means fsynced-to-disk (false in
// Buffered mode). This plus RecoveryCounts satisfies the fleet's
// optional DurableStore interface.
func (st *FileStore) Durable() bool { return !st.opt.Buffered }

// RecoveryCounts reports (records replayed, torn tails truncated,
// regions quarantined) from the last Open.
func (st *FileStore) RecoveryCounts() (replayed, truncated, quarantined int64) {
	return st.rec.Replayed, st.rec.TornTails, st.rec.Quarantined
}

// walShard is one WAL + snapshot pair and its in-memory image.
//
// Locking: mu guards the image, the append handle and the on-disk
// byte accounting; cmu+cond run the group-commit protocol. A committer
// holds cmu only between fsyncs — the fsync itself runs with neither
// lock held (reading the watermark under mu first), so appends from
// other writers proceed while a batch is being flushed and the next
// fsync covers them all. The only both-locks path is rotation
// (mu → cmu), so the order is acyclic.
type walShard struct {
	st *FileStore
	id int

	walName, snapName, tmpName, quarName string

	mu      sync.Mutex
	mem     map[string][]byte // beacon -> checkpoint JSON, mirrors disk
	w       File              // WAL append handle (never nil until closed)
	walLen  int64             // bytes known good in the WAL
	recs    int               // WAL records since the last snapshot
	seq     int64             // appends ever; the group-commit clock
	scratch []byte            // frame-encoding buffer, reused under mu
	broken  error             // non-nil: durability lost (failed fsync / unrepairable tear); healed only by a successful rotation
	closed  bool

	cmu     sync.Mutex
	cond    *sync.Cond
	synced  int64 // appends covered by a successful fsync or snapshot
	syncing bool  // one fsync in flight; followers wait on cond
}

func (st *FileStore) openShard(id int) (*walShard, error) {
	sh := &walShard{
		st:       st,
		id:       id,
		walName:  fmt.Sprintf("shard-%02d.wal", id),
		snapName: fmt.Sprintf("shard-%02d.snap", id),
		tmpName:  fmt.Sprintf("shard-%02d.tmp", id),
		quarName: fmt.Sprintf("shard-%02d.quar", id),
		mem:      make(map[string][]byte),
	}
	sh.cond = sync.NewCond(&sh.cmu)
	// A leftover .tmp is an interrupted snapshot that never got renamed
	// into place — dead weight, remove it.
	if err := st.fs.Remove(sh.tmpName); err != nil {
		return nil, fmt.Errorf("durable: clear %s: %w", sh.tmpName, err)
	}
	apply := func(op byte, name string, val []byte) {
		if op == opDelete {
			delete(sh.mem, name)
			return
		}
		sh.mem[name] = append([]byte(nil), val...)
	}
	sideline := sh.sideliner()
	snapStats, err := sh.scanFile(sh.snapName, apply, sideline)
	if err != nil {
		return nil, err
	}
	walStats, err := sh.scanFile(sh.walName, apply, sideline)
	if err != nil {
		return nil, err
	}
	st.rec.add(snapStats)
	st.rec.add(walStats)
	sh.recs = int(walStats.records)
	sh.walLen = walStats.cleanLen

	switch {
	case snapStats.damaged() || walStats.quarRegions > 0:
		// Mid-file damage (bit rot) — rewrite both files from the
		// surviving image so the damage cannot be re-replayed.
		sh.mu.Lock()
		err := sh.rotateLocked()
		sh.mu.Unlock()
		if err != nil {
			return nil, fmt.Errorf("durable: shard %d: rewrite damaged files: %w", id, err)
		}
		st.rec.RepairedShards++
	case walStats.tornTail > 0:
		// Clean prefix + torn tail — the crash-mid-append shape. A plain
		// truncate to the clean prefix repairs it.
		if err := st.fs.Truncate(sh.walName, walStats.cleanLen); err != nil {
			return nil, fmt.Errorf("durable: shard %d: truncate torn tail: %w", id, err)
		}
		st.rec.RepairedShards++
	}
	w, err := st.fs.OpenAppend(sh.walName)
	if err != nil {
		return nil, fmt.Errorf("durable: open %s: %w", sh.walName, err)
	}
	sh.w = w
	return sh, nil
}

// scanFile replays one file (absent = empty).
func (sh *walShard) scanFile(name string, apply func(byte, string, []byte), sideline func([]byte, bool)) (scanStats, error) {
	b, err := sh.st.fs.ReadFile(name)
	if errors.Is(err, fs.ErrNotExist) {
		return scanStats{}, nil
	}
	if err != nil {
		return scanStats{}, fmt.Errorf("durable: read %s: %w", name, err)
	}
	return walScan(b, defaultMaxRecord, apply, sideline), nil
}

// sideliner appends damaged regions to the shard's quarantine file.
// Sidelining is best-effort — the bytes are already damaged and always
// counted; a quarantine-write failure must not block recovery.
func (sh *walShard) sideliner() func([]byte, bool) {
	return func(region []byte, torn bool) {
		f, err := sh.st.fs.OpenAppend(sh.quarName)
		if err != nil {
			return
		}
		f.Write(region)
		f.Close()
	}
}

func (sh *walShard) load(name string) ([]byte, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	raw, ok := sh.mem[name]
	return raw, ok
}

// save appends an upsert record; with sync set it blocks until a group
// commit covers it. A nil return with sync set means fsynced.
func (sh *walShard) save(name string, val []byte, sync bool) error {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return ErrStoreClosed
	}
	if sh.broken != nil {
		// Durability was lost (a failed fsync may have dropped dirty
		// pages — a later fsync of the same file proves nothing). The
		// only honest repair is a fresh snapshot of the full image, so
		// fold the record in and attempt exactly that.
		sh.mem[name] = val
		err := sh.rotateLocked()
		sh.mu.Unlock()
		return err
	}
	sh.scratch = appendRecord(sh.scratch[:0], opSave, name, val)
	if err := sh.appendLocked(); err != nil {
		sh.mu.Unlock()
		return err
	}
	sh.mem[name] = val
	return sh.finishAppend(sync)
}

// delete appends a tombstone. Absent beacons are a no-op (the image
// mirrors the log — nothing to tombstone).
func (sh *walShard) delete(name string, sync bool) error {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return ErrStoreClosed
	}
	if sh.broken != nil {
		// While broken, mem and disk can disagree (a failed rotation may
		// have applied the delete to mem only) — so even an
		// absent-in-mem delete must go through the snapshot rebuild
		// before it can be acknowledged.
		delete(sh.mem, name)
		err := sh.rotateLocked()
		sh.mu.Unlock()
		return err
	}
	if _, ok := sh.mem[name]; !ok {
		sh.mu.Unlock()
		return nil
	}
	sh.scratch = appendRecord(sh.scratch[:0], opDelete, name, nil)
	if err := sh.appendLocked(); err != nil {
		sh.mu.Unlock()
		return err
	}
	delete(sh.mem, name)
	return sh.finishAppend(sync)
}

// appendLocked writes sh.scratch to the WAL. On a short or failed
// write it repairs the tear by truncating back to the known-good
// length; if even that fails the shard is broken. Requires mu.
func (sh *walShard) appendLocked() error {
	n, err := sh.w.Write(sh.scratch)
	if err == nil && n != len(sh.scratch) {
		err = io.ErrShortWrite
	}
	if err == nil {
		sh.walLen += int64(len(sh.scratch))
		sh.recs++
		sh.seq++
		return nil
	}
	// The log now ends in a torn record. Cut it back off.
	if terr := sh.st.fs.Truncate(sh.walName, sh.walLen); terr != nil {
		sh.broken = fmt.Errorf("durable: shard %d: torn append unrepaired: %w", sh.id, terr)
	}
	return fmt.Errorf("durable: shard %d: append: %w", sh.id, err)
}

// finishAppend (entered with mu held, releases it) rotates a snapshot
// if the WAL is due and then, for sync saves, joins the group commit.
func (sh *walShard) finishAppend(sync bool) error {
	target := sh.seq
	if sh.recs >= sh.st.opt.SnapshotEvery {
		// Rotation failure is not this save's failure: the WAL record is
		// intact and the fsync below still covers it. recs stays high so
		// the next save retries the rotation.
		if err := sh.rotateLocked(); err == nil {
			sh.mu.Unlock()
			return nil // the snapshot itself made everything durable
		}
	}
	sh.mu.Unlock()
	if !sync {
		return nil
	}
	return sh.commit(target)
}

// commit blocks until a successful fsync (or snapshot) covers append
// number target. One committer fsyncs on behalf of everyone waiting —
// the group commit: followers arriving while a flush is in flight wait
// for it, then the first of them flushes the accumulated batch with a
// single fsync.
func (sh *walShard) commit(target int64) error {
	sh.cmu.Lock()
	defer sh.cmu.Unlock()
	for sh.synced < target {
		if sh.syncing {
			sh.cond.Wait()
			continue
		}
		sh.syncing = true
		sh.cmu.Unlock()

		// Snapshot the watermark before fsync: everything appended
		// before this point is covered by the flush that follows.
		sh.mu.Lock()
		upto := sh.seq
		err := sh.broken
		w := sh.w
		if err == nil && sh.closed {
			err = ErrStoreClosed
		}
		sh.mu.Unlock()
		if err == nil {
			if serr := w.Sync(); serr != nil {
				err = fmt.Errorf("durable: shard %d: fsync: %w", sh.id, serr)
				// A failed fsync may have dropped dirty pages on the
				// floor; retrying it can succeed while the data stays
				// lost. Poison the shard — only a fresh snapshot
				// rotation restores durability.
				sh.mu.Lock()
				if sh.broken == nil {
					sh.broken = err
				}
				sh.mu.Unlock()
			}
		}

		sh.cmu.Lock()
		sh.syncing = false
		if err == nil && upto > sh.synced {
			sh.synced = upto
		}
		sh.cond.Broadcast()
		if err != nil {
			return err
		}
	}
	return nil
}

// rotateLocked writes a snapshot of the in-memory image (write tmp →
// fsync → rename → fsync dir) and only then truncates the WAL — the
// compaction step. Any failure leaves the previous snapshot+WAL pair
// intact and replayable. On success the shard is durable up to now, so
// the group-commit watermark advances and a broken shard heals.
// Requires mu.
func (sh *walShard) rotateLocked() error {
	f, err := sh.st.fs.Create(sh.tmpName)
	if err != nil {
		return fmt.Errorf("durable: shard %d: create snapshot: %w", sh.id, err)
	}
	// Deterministic record order keeps snapshot bytes reproducible.
	names := make([]string, 0, len(sh.mem))
	for name := range sh.mem {
		names = append(names, name)
	}
	sort.Strings(names)
	buf := sh.scratch[:0]
	werr := func() error {
		for _, name := range names {
			buf = appendRecord(buf, opSave, name, sh.mem[name])
			if len(buf) >= 1<<16 {
				if _, err := f.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
		if len(buf) > 0 {
			if _, err := f.Write(buf); err != nil {
				return err
			}
		}
		return f.Sync()
	}()
	sh.scratch = buf[:0]
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("durable: shard %d: write snapshot: %w", sh.id, werr)
	}
	if err := sh.st.fs.Rename(sh.tmpName, sh.snapName); err != nil {
		return fmt.Errorf("durable: shard %d: install snapshot: %w", sh.id, err)
	}
	// The rename must be durable before the WAL shrinks, or a crash
	// between the two leaves an old snapshot with a truncated log.
	if err := sh.st.fs.SyncDir(); err != nil {
		return fmt.Errorf("durable: shard %d: sync dir: %w", sh.id, err)
	}
	// An absent WAL (open-time repair before the log was ever created)
	// is already length zero.
	if err := sh.st.fs.Truncate(sh.walName, 0); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("durable: shard %d: compact wal: %w", sh.id, err)
	}
	sh.walLen = 0
	sh.recs = 0
	sh.broken = nil
	// Everything appended so far is covered by the snapshot; release
	// any committers waiting on the old WAL's fsync.
	target := sh.seq
	sh.cmu.Lock()
	if target > sh.synced {
		sh.synced = target
	}
	sh.cond.Broadcast()
	sh.cmu.Unlock()
	return nil
}

// syncAll makes the shard durable up to its current append.
func (sh *walShard) syncAll() error {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return ErrStoreClosed
	}
	if sh.broken != nil {
		err := sh.rotateLocked()
		sh.mu.Unlock()
		return err
	}
	target := sh.seq
	sh.mu.Unlock()
	return sh.commit(target)
}

// close final-syncs (making Buffered saves durable on a clean
// shutdown) and releases the WAL handle.
func (sh *walShard) close() error {
	err := sh.syncAll()
	if errors.Is(err, ErrStoreClosed) {
		return nil
	}
	sh.mu.Lock()
	sh.closed = true
	if sh.w != nil {
		if cerr := sh.w.Close(); err == nil {
			err = cerr
		}
	}
	sh.mu.Unlock()
	// Wake committers parked on the condvar so they observe closed.
	sh.cmu.Lock()
	sh.cond.Broadcast()
	sh.cmu.Unlock()
	return err
}
