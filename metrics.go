package asterixdb

import (
	"asterixdb/internal/metrics"
	"asterixdb/internal/runfile"
	"asterixdb/internal/storage"
)

// This file wires the engine's internals into a metrics.Registry for the
// GET /metrics endpoints: process-wide spill/budget accounting from
// internal/runfile and per-dataset LSM state from internal/storage. The
// server adds its own query/handle metrics on top; the cluster daemons
// add roster and job-gather state.

// RegisterInstanceMetrics registers the engine gauges against whatever
// get returns at scrape time. get may return nil (an asterixnc before
// cluster formation has no instance yet); the dataset collectors then
// emit nothing and the scalar gauges read zero.
func RegisterInstanceMetrics(r *metrics.Registry, get func() *Instance) {
	r.GaugeFunc("asterix_memory_budget_bytes",
		"Configured memory budget in bytes, which each job and the handle table get whole (0 = unlimited).",
		func() float64 {
			if in := get(); in != nil {
				return float64(in.MemoryBudget())
			}
			return 0
		})
	r.GaugeFunc("asterix_spill_used_bytes",
		"Budget-accounted resident bytes currently held by operators, process-wide.",
		func() float64 { return float64(runfile.Global().UsedBytes) })
	r.GaugeFunc("asterix_spill_peak_bytes",
		"High-water mark of budget-accounted resident bytes, process-wide.",
		func() float64 { return float64(runfile.Global().PeakBytes) })
	r.GaugeFunc("asterix_spill_live_runs",
		"Run files currently on disk, process-wide.",
		func() float64 { return float64(runfile.Global().LiveRuns) })
	r.CounterFunc("asterix_spill_runs_total",
		"Run files created since process start.",
		func() float64 { return float64(runfile.Global().RunsCreated) })
	r.CounterFunc("asterix_spill_run_opens_total",
		"Read passes over run files since process start.",
		func() float64 { return float64(runfile.Global().RunsOpened) })
	r.CounterFunc("asterix_spill_tuples_total",
		"Tuples written to run files since process start.",
		func() float64 { return float64(runfile.Global().TuplesSpilled) })
	r.CounterFunc("asterix_spill_bytes_total",
		"Bytes written to run files since process start.",
		func() float64 { return float64(runfile.Global().BytesSpilled) })

	eachDataset := func(visit func(name string, s storage.DatasetStats)) {
		in := get()
		if in == nil {
			return
		}
		store := in.Store()
		for _, name := range store.Datasets() {
			if ds, ok := store.Dataset(name); ok {
				visit(name, ds.Stats())
			}
		}
	}
	r.Collect("asterix_lsm_mem_bytes", "gauge",
		"Primary in-memory LSM component bytes per dataset.",
		func(emit func(float64, ...metrics.Label)) {
			eachDataset(func(name string, s storage.DatasetStats) {
				emit(float64(s.MemBytes), metrics.L("dataset", name))
			})
		})
	r.Collect("asterix_lsm_secondary_mem_bytes", "gauge",
		"Secondary-index in-memory LSM component bytes per dataset (B+-tree, R-tree and inverted).",
		func(emit func(float64, ...metrics.Label)) {
			eachDataset(func(name string, s storage.DatasetStats) {
				emit(float64(s.SecondaryMemBytes), metrics.L("dataset", name))
			})
		})
	r.Collect("asterix_lsm_components", "gauge",
		"Primary-index disk components per dataset.",
		func(emit func(float64, ...metrics.Label)) {
			eachDataset(func(name string, s storage.DatasetStats) {
				emit(float64(s.Components), metrics.L("dataset", name))
			})
		})
	r.Collect("asterix_lsm_secondary_components", "gauge",
		"Secondary-index disk components per dataset (B+-tree, R-tree and inverted).",
		func(emit func(float64, ...metrics.Label)) {
			eachDataset(func(name string, s storage.DatasetStats) {
				emit(float64(s.SecondaryComponents), metrics.L("dataset", name))
			})
		})
	r.Collect("asterix_lsm_flushes_total", "counter",
		"Lifetime primary-index flushes per dataset.",
		func(emit func(float64, ...metrics.Label)) {
			eachDataset(func(name string, s storage.DatasetStats) {
				emit(float64(s.Flushes), metrics.L("dataset", name))
			})
		})
	r.Collect("asterix_lsm_merges_total", "counter",
		"Lifetime primary-index merges per dataset.",
		func(emit func(float64, ...metrics.Label)) {
			eachDataset(func(name string, s storage.DatasetStats) {
				emit(float64(s.Merges), metrics.L("dataset", name))
			})
		})
	r.Collect("asterix_lsm_point_reads_total", "counter",
		"Point reads (one key) of the dataset's LSM trees since they were opened.",
		func(emit func(float64, ...metrics.Label)) {
			eachDataset(func(name string, s storage.DatasetStats) {
				emit(float64(s.Reads.PointReads), metrics.L("dataset", name))
			})
		})
	r.Collect("asterix_lsm_filter_skips_total", "counter",
		"Disk components a point read passed over because their filter ruled the key out.",
		func(emit func(float64, ...metrics.Label)) {
			eachDataset(func(name string, s storage.DatasetStats) {
				emit(float64(s.Reads.FilterSkips), metrics.L("dataset", name))
			})
		})
	r.Collect("asterix_lsm_filter_false_positives_total", "counter",
		"Disk components a point read searched on its filter's word and did not find the key in.",
		func(emit func(float64, ...metrics.Label)) {
			eachDataset(func(name string, s storage.DatasetStats) {
				emit(float64(s.Reads.FilterFalsePositives), metrics.L("dataset", name))
			})
		})
	r.Collect("asterix_lsm_filter_bytes", "gauge",
		"Memory the bloom filters of the primary index's disk components hold per dataset.",
		func(emit func(float64, ...metrics.Label)) {
			eachDataset(func(name string, s storage.DatasetStats) {
				emit(float64(s.FilterBytes), metrics.L("dataset", name))
			})
		})

	managerStats := func() storage.ManagerStats {
		if in := get(); in != nil {
			return in.Store().Stats()
		}
		return storage.ManagerStats{}
	}
	// The page cache every LSM tree reads its disk components through.
	r.CounterFunc("asterix_lsm_page_cache_hits_total",
		"Component page fetches the page cache answered.",
		func() float64 { return float64(managerStats().PageCache.Hits) })
	r.CounterFunc("asterix_lsm_page_cache_misses_total",
		"Component page fetches that read the page from its file.",
		func() float64 { return float64(managerStats().PageCache.Misses) })
	r.CounterFunc("asterix_lsm_page_cache_evictions_total",
		"Pages the page cache dropped for room or because their component was gone.",
		func() float64 { return float64(managerStats().PageCache.Evictions) })
	r.GaugeFunc("asterix_lsm_page_cache_resident_bytes",
		"Bytes of the pages the page cache holds now.",
		func() float64 { return float64(managerStats().PageCache.ResidentBytes) })
	r.CounterFunc("asterix_lsm_page_cache_read_bytes_total",
		"Bytes of the pages read from component files on cache misses.",
		func() float64 { return float64(managerStats().PageCache.BytesRead) })

	// Durability & recovery gauges from the storage manager.
	r.GaugeFunc("asterix_wal_bytes",
		"Write-ahead log bytes appended, including the unwritten tail.",
		func() float64 { return float64(managerStats().WALBytes) })
	r.CounterFunc("asterix_wal_writes_total",
		"Write-ahead log tail writes to the file since the log was opened.",
		func() float64 { return float64(managerStats().WAL.Writes) })
	r.CounterFunc("asterix_wal_fsyncs_total",
		"Write-ahead log fsyncs since the log was opened.",
		func() float64 { return float64(managerStats().WAL.Fsyncs) })
	r.CounterFunc("asterix_wal_commits_total",
		"Commit records appended to the write-ahead log since it was opened.",
		func() float64 { return float64(managerStats().WAL.Commits) })
	r.CounterFunc("asterix_wal_fsync_seconds_total",
		"Time spent in write-ahead log fsyncs since the log was opened.",
		func() float64 { return managerStats().WAL.FsyncTime.Seconds() })
	r.CounterFunc("asterix_checkpoints_total",
		"Checkpoints taken since the process started.",
		func() float64 { return float64(managerStats().Checkpoints) })
	r.GaugeFunc("asterix_checkpoint_last_unixtime",
		"Completion time of the newest checkpoint since the process started (0 = none).",
		func() float64 { return float64(managerStats().LastCheckpointUnix) })
	r.GaugeFunc("asterix_recovery_duration_seconds",
		"Wall-clock duration of the last WAL recovery in this process.",
		func() float64 { return managerStats().Recovery.Duration.Seconds() })
	r.GaugeFunc("asterix_recovery_replayed_records",
		"Log records re-applied by the last recovery (past the durable watermarks).",
		func() float64 { return float64(managerStats().Recovery.Replayed) })
	r.GaugeFunc("asterix_recovery_skipped_records",
		"Log records the last recovery skipped as already durable.",
		func() float64 { return float64(managerStats().Recovery.Skipped) })
	r.GaugeFunc("asterix_bg_queue_depth",
		"Background flush/merge/checkpoint tasks waiting to run.",
		func() float64 { return float64(managerStats().BgQueueDepth) })
	r.GaugeFunc("asterix_bg_inflight",
		"Background tasks running right now.",
		func() float64 { return float64(managerStats().BgInFlight) })
	r.CounterFunc("asterix_bg_flushes_total",
		"Lifetime background flushes across all trees.",
		func() float64 { return float64(managerStats().BgFlushes) })
	r.CounterFunc("asterix_bg_merges_total",
		"Lifetime background merges across all trees.",
		func() float64 { return float64(managerStats().BgMerges) })
}

// RegisterMetrics registers this instance's engine gauges; the HTTP
// server detects this method on its engine and calls it when building
// the /metrics endpoint.
func (in *Instance) RegisterMetrics(r *metrics.Registry) {
	RegisterInstanceMetrics(r, func() *Instance { return in })
}
