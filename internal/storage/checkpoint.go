package storage

import (
	"fmt"
	"time"

	"asterixdb/internal/crashpoint"
	"asterixdb/internal/lsm"
	"asterixdb/internal/txn"
)

// Checkpoint bounds recovery work: for each dataset it captures the WAL
// low-water mark, flushes every tree (primary and secondaries) stamped with
// it, and finally compacts the WAL down to the minimum watermark. Operations
// below a dataset's watermark are inside durable components; after a crash,
// Recover replays only the bounded suffix past each tree's stamp — the log
// prefix is physically gone. The stamps are the only record of a checkpoint
// recovery needs, so nothing else is written.
//
// Checkpoints assume every dataset present in the WAL has been re-registered
// (the metadata layer recreates datasets before serving), matching the old
// flush-everything-then-truncate behavior.
func (m *Manager) Checkpoint() error {
	m.ckptMu.Lock()
	defer m.ckptMu.Unlock()
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
	m.ckptCount++
	m.lastCkptUnix = time.Now().Unix()
	m.statsMu.Unlock()
	// Drop the log prefix below every watermark. LSNs are stable across
	// compaction (the header records the base), so component stamps written
	// before this checkpoint stay meaningful.
	if err := m.wal.Compact(keep); err != nil {
		return fmt.Errorf("storage: checkpoint: %w", err)
	}
	return nil
}

// ManagerStats is a point-in-time aggregate of the manager's durability
// machinery, for the /metrics endpoints.
type ManagerStats struct {
	// WALBytes is the log bytes appended, including the unwritten tail.
	WALBytes int64
	// WAL counts the log's writes, fsyncs, commits and fsync time.
	WAL txn.WALStats
	// Checkpoints counts the checkpoints taken since the process started;
	// LastCheckpointUnix is when the newest of them completed (0 = none).
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
	// PageCache counts what the page cache every tree reads its disk
	// components through did.
	PageCache lsm.CacheStats
}

// Stats reports the manager-level durability counters.
func (m *Manager) Stats() ManagerStats {
	var s ManagerStats
	s.WALBytes = m.wal.SizeBytes()
	s.WAL = m.wal.Stats()
	m.statsMu.Lock()
	s.Checkpoints = m.ckptCount
	s.LastCheckpointUnix = m.lastCkptUnix
	s.Recovery = m.recovery
	m.statsMu.Unlock()
	s.BgQueueDepth, s.BgInFlight = m.sched.queueStats()
	s.BgFlushes = m.sched.flushes.Load()
	s.BgMerges = m.sched.merges.Load()
	s.PageCache = m.cache.Stats()
	return s
}
