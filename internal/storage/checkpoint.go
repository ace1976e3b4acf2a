package storage

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"asterixdb/internal/crashpoint"
	"asterixdb/internal/fsutil"
)

// checkpointMetaFile holds the last checkpoint's metadata, written atomically
// next to the WAL.
const checkpointMetaFile = "checkpoint.meta"

// checkpointMeta is the durable record of one checkpoint: when it ran, its
// lifetime ordinal, and the per-dataset WAL watermarks it established. The
// watermarks are informational — recovery trusts the per-component stamps,
// which survive even if this file is lost.
type checkpointMeta struct {
	Count      uint64            `json:"count"`
	UnixTime   int64             `json:"unix_time"`
	Watermarks map[string]uint64 `json:"watermarks"`
}

// Checkpoint bounds recovery work: for each dataset it captures the WAL
// low-water mark, flushes every tree (primary and secondaries) stamped with
// it, records the watermarks in checkpoint.meta, and finally compacts the
// WAL down to the minimum watermark. Operations below a dataset's watermark
// are inside durable components; after a crash, Recover replays only the
// bounded suffix past each tree's stamp — the log prefix is physically gone.
//
// Checkpoints assume every dataset present in the WAL has been re-registered
// (the metadata layer recreates datasets before serving), matching the old
// flush-everything-then-truncate behavior.
func (m *Manager) Checkpoint() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
	meta := checkpointMeta{UnixTime: time.Now().Unix(), Watermarks: map[string]uint64{}}
	keep := uint64(0)
	haveKeep := false
	for _, name := range m.Datasets() {
		ds, ok := m.Dataset(name)
		if !ok {
			continue // dropped while checkpointing
		}
		// The low-water mark is captured per dataset, before its flush.
		low, err := m.flushStamped(ds.flushAll)
		if err != nil {
			return fmt.Errorf("storage: checkpoint %q: %w", name, err)
		}
		meta.Watermarks[name] = low
		if !haveKeep || low < keep {
			keep = low
			haveKeep = true
		}
	}
	if !haveKeep {
		keep = m.wal.LowWater()
	}
	crashpoint.Hit("ckpt-flushed")
	m.statsMu.Lock()
	meta.Count = m.ckptCount + 1
	m.statsMu.Unlock()
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	if err := fsutil.WriteFileAtomic(filepath.Join(m.dir, checkpointMetaFile), data, 0o644); err != nil {
		return fmt.Errorf("storage: checkpoint meta: %w", err)
	}
	m.statsMu.Lock()
	m.ckptCount = meta.Count
	m.lastCkptUnix = meta.UnixTime
	m.statsMu.Unlock()
	crashpoint.Hit("ckpt-meta")
	// Drop the log prefix below every watermark. LSNs are stable across
	// compaction (the header records the base), so component stamps written
	// before this checkpoint stay meaningful.
	if err := m.wal.Compact(keep); err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	return nil
}

// loadCheckpointMeta restores checkpoint counters from a previous run's
// meta file. A missing or unreadable file just means "no checkpoint yet":
// the file is advisory, recovery never depends on it.
func (m *Manager) loadCheckpointMeta() {
	data, err := os.ReadFile(filepath.Join(m.dir, checkpointMetaFile))
	if err != nil {
		return
	}
	var meta checkpointMeta
	if json.Unmarshal(data, &meta) != nil {
		return
	}
	m.statsMu.Lock()
	m.ckptCount = meta.Count
	m.lastCkptUnix = meta.UnixTime
	m.statsMu.Unlock()
}

// ManagerStats is a point-in-time aggregate of the manager's durability
// machinery, for the /metrics endpoints.
type ManagerStats struct {
	// WALBytes is the current log size on disk.
	WALBytes int64
	// Checkpoints is the lifetime checkpoint count (persisted across
	// restarts in checkpoint.meta); LastCheckpointUnix is when the newest
	// one completed (0 = never).
	Checkpoints        uint64
	LastCheckpointUnix int64
	// Recovery summarizes the last Recover call in this process.
	Recovery RecoveryStats
	// Background scheduler state: queued tasks, tasks running right now, and
	// lifetime flush/merge totals executed in the background.
	BgQueueDepth int
	BgInFlight   int
	BgFlushes    uint64
	BgMerges     uint64
}

// Stats reports the manager-level durability counters.
func (m *Manager) Stats() ManagerStats {
	var s ManagerStats
	s.WALBytes = m.wal.SizeBytes()
	m.statsMu.Lock()
	s.Checkpoints = m.ckptCount
	s.LastCheckpointUnix = m.lastCkptUnix
	s.Recovery = m.recovery
	m.statsMu.Unlock()
	s.BgQueueDepth, s.BgInFlight = m.sched.queueStats()
	s.BgFlushes = m.sched.flushes.Load()
	s.BgMerges = m.sched.merges.Load()
	return s
}
