package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
	"asterixdb/internal/aql"
	"asterixdb/internal/expr"
	"asterixdb/internal/lsm"
	"asterixdb/internal/runfile"
	"asterixdb/internal/translator"
	"asterixdb/internal/txn"
	"asterixdb/internal/workload"
)

// This file holds the stand-alone rungs of the traced run: each times one
// module's public functions on inputs made from the seed, single-threaded and
// at a fixed operation count, so work counts repeat exactly. Every timing is
// the median of rungReps repetitions.

const rungReps = 5

// layerMetrics collects per-layer numbers by name.
type layerMetrics map[string]metric

func (m layerMetrics) set(name string, value float64, unit string, samples int) {
	m[name] = metric{Value: value, Unit: unit, samples: samples}
}

// timed runs fn rungReps times, stopping at the first error, and returns the
// median duration of one run in ns.
func timed(fn func() error) (float64, error) {
	runs := make([]float64, rungReps)
	for i := range runs {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		runs[i] = float64(time.Since(start))
	}
	return median(runs), nil
}

// rung times fn and reports the median divided by per under name.
func (m layerMetrics) rung(name, unit string, per float64, samples int, fn func() error) error {
	ns, err := timed(fn)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	m.set(name, ns/per, unit, samples)
	return nil
}

// admRung times record encode, eager and lazy decode, one lazy field access,
// the JSON rendering of result rows, and the filter class's predicate and
// projection over decoded records.
func admRung(d *data, m layerMetrics) error {
	const n = 2000
	recs := make([]*adm.Record, n)
	for i := range recs {
		recs[i] = d.message(i + 1)
	}
	ser := adm.NewSerializer(workload.MessageType(), adm.SchemaEncoding)
	enc := make([][]byte, n)
	lazy := make([]adm.Value, n)
	var buf []byte
	pred, err := aql.ParseQuery(`$m.author-id = 17`)
	if err != nil {
		return err
	}
	proj, err := aql.ParseQuery(`{ "id": $m.message-id, "len": string-length($m.message) }`)
	if err != nil {
		return err
	}
	ctx := expr.NewContext()
	for _, r := range []struct {
		name string
		fn   func() error
	}{
		{"adm.encode_ns_per_record", func() (err error) {
			for i, r := range recs {
				if enc[i], err = ser.Encode(enc[i][:0], r); err != nil {
					return err
				}
			}
			return nil
		}},
		{"adm.decode_eager_ns_per_record", func() error {
			for _, b := range enc {
				if _, _, err := ser.Decode(b); err != nil {
					return err
				}
			}
			return nil
		}},
		{"adm.decode_lazy_ns_per_record", func() (err error) {
			arena := adm.AcquireArena()
			defer arena.Release()
			for i, b := range enc {
				if lazy[i], _, err = ser.DecodeLazy(b, arena); err != nil {
					return err
				}
			}
			return nil
		}},
		{"adm.lazy_get_ns", func() error {
			for i, v := range lazy {
				if got := v.(*adm.LazyRecord).Get("author-id"); got != adm.Int32(d.author(i+1)) {
					return fmt.Errorf("message %d: author-id %v", i+1, got)
				}
			}
			return nil
		}},
		{"adm.json_ns_per_row", func() error {
			for _, v := range lazy {
				buf = adm.AppendJSON(buf[:0], v)
			}
			return nil
		}},
		{"expr.eval_ns_per_tuple", func() error {
			for _, v := range lazy {
				env := expr.Env{"m": v}
				if _, err := expr.EvalBool(ctx, env, pred); err != nil {
					return err
				}
				if _, err := expr.Eval(ctx, env, proj); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		if err := m.rung(r.name, "ns", n, n, r.fn); err != nil {
			return err
		}
	}
	return nil
}

// frontEndRung times the parser on query and insert statements, the compiler
// and job generator on the lookup queries, and the evaluation of an insert's
// body into records.
func frontEndRung(e *engine, d *data, m layerMetrics) error {
	st := d.newStream(0, 1)
	var queries, inserts []stmt
	for i := 0; i < 50; i++ {
		for _, c := range []string{classPK, classRange, classSpatial, classText} {
			queries = append(queries, st.next(c))
		}
		inserts = append(inserts, st.next(classInsert))
	}
	if err := m.rung("aql.parse_query_us", "us", float64(len(queries))*1e3, len(queries), func() error {
		for _, s := range queries {
			if _, err := aql.Parse(s.text); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	var compileNS, jobgenNS []float64
	for _, s := range queries {
		stmts, err := aql.Parse(s.text)
		if err != nil {
			return err
		}
		start := time.Now()
		plan, err := translator.Compile(stmts[0].(*aql.QueryStatement).Body, e.inst, algebra.Options{})
		if err != nil {
			return fmt.Errorf("compile %s: %w", s.class, err)
		}
		compileNS = append(compileNS, float64(time.Since(start)))
		start = time.Now()
		if _, err := translator.BuildJob(plan, e.inst, e.jobs); err != nil {
			return fmt.Errorf("jobgen %s: %w", s.class, err)
		}
		jobgenNS = append(jobgenNS, float64(time.Since(start)))
	}
	m.set("algebra.compile_us", median(compileNS)/1e3, "us", len(queries))
	m.set("translator.jobgen_us", median(jobgenNS)/1e3, "us", len(queries))

	records := len(inserts) * insertBatch
	bodies := make([]aql.Expr, len(inserts))
	if err := m.rung("aql.parse_insert_us_per_record", "us", float64(records)*1e3, records, func() error {
		for i, s := range inserts {
			stmts, err := aql.Parse(s.text)
			if err != nil {
				return err
			}
			bodies[i] = stmts[0].(*aql.InsertStatement).Body
		}
		return nil
	}); err != nil {
		return err
	}
	ctx := expr.NewContext()
	return m.rung("expr.insert_body_us_per_record", "us", float64(records)*1e3, records, func() error {
		for _, b := range bodies {
			if _, err := expr.Eval(ctx, expr.Env{}, b); err != nil {
				return err
			}
		}
		return nil
	})
}

// storageRung times the public Dataset calls on the engine's messages. The
// point and index probes need the preloaded data the oracle knows, so a
// workload that starts empty reports only the scan and the insert.
func storageRung(e *engine, d *data, preloaded bool, m layerMetrics) error {
	ds, ok := e.inst.Dataset("MugshotMessages")
	if !ok {
		return fmt.Errorf("storage rung: no MugshotMessages")
	}
	records := 0
	scanNS, err := timed(func() error {
		records = 0
		for p := 0; p < ds.PartitionCount(); p++ {
			if err := ds.ScanPartition(p, func(adm.Value) bool { records++; return true }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("storage scan: %w", err)
	}
	if records == 0 {
		return fmt.Errorf("storage scan: no records")
	}
	m.set("storage.scan_ns_per_record", scanNS/float64(records), "ns", records)

	if preloaded {
		const probes = 200
		st := d.newStream(0, 1)
		// The replayed inserts added messages the oracle does not predict;
		// probes are checked on the preloaded ones.
		preloadedOnly := func(recs []*adm.Record) int {
			n := 0
			for _, r := range recs {
				if id, _ := r.Get("message-id").(adm.Int32); int(id) <= d.sc.Messages {
					n++
				}
			}
			return n
		}
		for _, r := range []struct {
			name  string
			probe func() (got, want int, err error)
		}{
			{"storage.lookup_pk_us", func() (int, int, error) {
				_, ok, err := ds.LookupPK(adm.Int32(1 + st.pick(d.sc.Messages)))
				if ok {
					return 1, 1, err
				}
				return 0, 1, err
			}},
			{"storage.range_search_us", func() (int, int, error) {
				lo := 1 + st.pick(d.sc.Messages-rangeRows)
				recs, err := ds.SearchSecondaryRange("msTimestampIdx", d.timestamp(lo), d.timestamp(lo+rangeRows-1))
				return preloadedOnly(recs), rangeRows, err
			}},
			{"storage.rtree_search_us", func() (int, int, error) {
				x1, y1, x2, y2, ids := st.rect()
				recs, err := ds.SearchSecondaryRTree("msSenderLocIdx", adm.Rectangle{
					LowerLeft: adm.Point{X: x1, Y: y1}, UpperRight: adm.Point{X: x2, Y: y2}})
				return preloadedOnly(recs), len(ids), err
			}},
			{"storage.inverted_search_us", func() (int, int, error) {
				recs, err := ds.SearchSecondaryInverted("msMessageIdx", fmt.Sprintf("w%05d", st.pick(len(d.tokenIDs))), 1)
				return preloadedOnly(recs), rowsPerToken, err
			}},
		} {
			if err := m.rung(r.name, "us", probes*1e3, probes, func() error {
				for i := 0; i < probes; i++ {
					got, want, err := r.probe()
					if err == nil && got != want {
						err = fmt.Errorf("found %d records, want %d", got, want)
					}
					if err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
		}
	}
	// Fresh keys beyond every insert stream's key space.
	next := d.sc.Messages + keySpace + 1
	const batches = 25
	return m.rung("storage.insert_batch_us_per_record", "us", batches*insertBatch*1e3, batches*insertBatch, func() error {
		for b := 0; b < batches; b++ {
			recs := make([]*adm.Record, insertBatch)
			for i := range recs {
				recs[i] = d.message(next)
				next++
			}
			if _, err := ds.InsertBatch(recs); err != nil {
				return err
			}
		}
		return nil
	})
}

// lsmKey is the i-th key of the LSM rungs: 16 bytes, shuffled order.
func lsmKey(i int) []byte {
	k := make([]byte, 16)
	binary.BigEndian.PutUint64(k, uint64(i)*0x9E3779B97F4A7C15)
	binary.BigEndian.PutUint64(k[8:], uint64(i))
	return k
}

// fileSizes maps the regular files directly under dir to their sizes.
func fileSizes(dir string) (map[string]int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			out[e.Name()] = info.Size()
		}
	}
	return out, nil
}

// heapBytes is the live heap after a collection.
func heapBytes() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// lsmRung drives a stand-alone lsm.Tree: inserts, point reads and range
// reads over one and eight components, flush, full merge, reopen, and the
// write amplification of the default tiered policy.
func lsmRung(tmp string, m layerMetrics) error {
	dir, err := os.MkdirTemp(tmp, "lsm-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	const (
		components = 8
		perFlush   = 4096
		entries    = components * perFlush
		valueLen   = 100
		entryBytes = 16 + valueLen
		reads      = 20000
	)
	value := make([]byte, valueLen)
	mb := func(bytes int64) float64 { return float64(bytes) / (1 << 20) }

	// Background leaves flushing and merging to this rung, as the storage
	// scheduler has it.
	tree, err := lsm.Open(filepath.Join(dir, "t"), lsm.Options{Background: true, Policy: lsm.NoMergePolicy{}})
	if err != nil {
		return err
	}
	var insertNS, flushNS []float64
	for c := 0; c < components; c++ {
		start := time.Now()
		for i := c * perFlush; i < (c+1)*perFlush; i++ {
			if err := tree.Insert(lsmKey(i), value); err != nil {
				return err
			}
		}
		insertNS = append(insertNS, float64(time.Since(start))/perFlush)
		start = time.Now()
		if err := tree.Flush(); err != nil {
			return err
		}
		flushNS = append(flushNS, float64(time.Since(start)))
	}
	m.set("lsm.insert_ns", median(insertNS), "ns", entries)
	m.set("lsm.flush_ms_per_mb", median(flushNS)/1e6/mb(perFlush*entryBytes), "ms/MB", components)

	// get reads keys from..from+reads and fails unless each is found iff
	// present says so.
	get := func(name string, from int, present bool) error {
		return m.rung(name, "ns", reads, reads, func() error {
			for i := 0; i < reads; i++ {
				if _, ok := tree.Get(lsmKey(from + i*7%entries)); ok != present {
					return fmt.Errorf("key %d: found=%v", from+i*7%entries, ok)
				}
			}
			return nil
		})
	}
	readRungs := func(suffix string) error {
		if err := get("lsm.get_ns_"+suffix, 0, true); err != nil {
			return err
		}
		return m.rung("lsm.range_ns_per_entry_"+suffix, "ns", entries, entries, func() error {
			seen := 0
			tree.Scan(func(_, _ []byte) bool { seen++; return true })
			if seen != entries {
				return fmt.Errorf("scan saw %d of %d entries", seen, entries)
			}
			return nil
		})
	}
	if err := readRungs("c8"); err != nil {
		return err
	}
	if err := get("lsm.get_miss_ns_c8", entries, false); err != nil {
		return err
	}

	start := time.Now()
	if err := tree.Merge(); err != nil {
		return err
	}
	m.set("lsm.merge_ms_per_mb", ms(time.Since(start))/mb(entries*entryBytes), "ms/MB", 1)
	if err := readRungs("c1"); err != nil {
		return err
	}

	sizes, err := fileSizes(tree.Dir())
	if err != nil {
		return err
	}
	var diskBytes int64
	for _, s := range sizes {
		diskBytes += s
	}
	tree = nil
	before := heapBytes()
	start = time.Now()
	tree, err = lsm.Open(filepath.Join(dir, "t"), lsm.Options{Background: true})
	if err != nil {
		return err
	}
	m.set("lsm.open_ms_per_mb", ms(time.Since(start))/mb(diskBytes), "ms/MB", 1)
	m.set("lsm.resident_bytes_per_disk_byte", float64(heapBytes()-before)/float64(diskBytes), "ratio", 1)
	runtime.KeepAlive(tree)

	// Write amplification under the default policy and budget: flush at the
	// memory budget, then merge while the policy asks, counting every
	// component file written (a merged component replaces its newest input's
	// file, so a changed size is a write too).
	wa, err := lsm.Open(filepath.Join(dir, "wa"), lsm.Options{Background: true})
	if err != nil {
		return err
	}
	known := map[string]int64{}
	var written int64
	account := func() error {
		now, err := fileSizes(wa.Dir())
		if err != nil {
			return err
		}
		for name, size := range now {
			if known[name] != size {
				written += size
			}
		}
		known = now
		return nil
	}
	for i := 0; i < entries; i++ {
		if err := wa.Insert(lsmKey(i), value); err != nil {
			return err
		}
		if wa.MemBytes() < lsm.DefaultMemBudget && i != entries-1 {
			continue
		}
		if err := wa.Flush(); err != nil {
			return err
		}
		if err := account(); err != nil {
			return err
		}
		for {
			plan, err := wa.PlanMerge()
			if err != nil {
				return err
			}
			if plan == nil {
				break
			}
			if err := plan.Execute(); err != nil {
				wa.AbortMerge(plan)
				return err
			}
			if err := wa.InstallMerge(plan); err != nil {
				return err
			}
			if err := account(); err != nil {
				return err
			}
		}
	}
	m.set("lsm.write_amp", float64(written)/float64(entries*entryBytes), "ratio", entries)
	return nil
}

// txnRung drives a stand-alone WAL: the group append and commit of one
// record-level transaction, the fsync cost alone and with two committers,
// replay speed and log bytes per user byte.
func txnRung(tmp string, m layerMetrics) error {
	dir, err := os.MkdirTemp(tmp, "wal-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// One insert logs a record for the primary index and each secondary.
	group := func(w *txn.WAL, i int) []txn.LogRecord {
		id := w.Begin()
		key := lsmKey(i)
		recs := []txn.LogRecord{{Txn: id, Kind: txn.OpInsert, Dataset: "MugshotMessages", Key: key, Value: make([]byte, 200)}}
		for _, ix := range []string{"msTimestampIdx", "msSenderLocIdx", "msMessageIdx"} {
			recs = append(recs, txn.LogRecord{Txn: id, Kind: txn.OpInsert, Dataset: "MugshotMessages", Index: ix, Key: key})
		}
		return recs
	}
	const txns = 5000
	userBytes := int64(txns * (16 + 200))

	wal, err := txn.OpenWAL(filepath.Join(dir, "nosync"), false)
	if err != nil {
		return err
	}
	var appendNS, commitNS time.Duration
	for i := 0; i < txns; i++ {
		recs := group(wal, i)
		start := time.Now()
		_, release, err := wal.AppendGroup(recs)
		if err != nil {
			return err
		}
		appendNS += time.Since(start)
		start = time.Now()
		if err := wal.CommitNoSync(recs[0].Txn); err != nil {
			return err
		}
		commitNS += time.Since(start)
		release()
	}
	m.set("txn.append_group_us", float64(appendNS)/txns/1e3, "us", txns)
	m.set("txn.commit_nosync_us", float64(commitNS)/txns/1e3, "us", txns)
	logBytes := wal.SizeBytes()
	m.set("txn.log_bytes_per_user_byte", float64(logBytes)/float64(userBytes), "ratio", txns)
	replayed := 0
	start := time.Now()
	if _, err := wal.Replay(func(uint64, txn.LogRecord) error { replayed++; return nil }); err != nil {
		return err
	}
	m.set("txn.replay_ms_per_mb", ms(time.Since(start))/(float64(logBytes)/(1<<20)), "ms/MB", 1)
	if replayed != txns*4 {
		return fmt.Errorf("wal replay applied %d records, want %d", replayed, txns*4)
	}
	if err := wal.Close(); err != nil {
		return err
	}

	synced, err := txn.OpenWAL(filepath.Join(dir, "sync"), true)
	if err != nil {
		return err
	}
	defer synced.Close()
	const commits = 200
	commit := func(from, n int) error {
		for i := from; i < from+n; i++ {
			recs := group(synced, i)
			_, release, err := synced.AppendGroup(recs)
			if err != nil {
				return err
			}
			err = synced.Commit(recs[0].Txn)
			release()
			if err != nil {
				return err
			}
		}
		return nil
	}
	start = time.Now()
	if err := commit(0, commits); err != nil {
		return err
	}
	m.set("txn.commit_sync_us", float64(time.Since(start))/commits/1e3, "us", commits)
	// Two committers: wall time per commit, which group commit would lower.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	start = time.Now()
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = commit(commits*(g+1), commits/2)
		}()
	}
	wg.Wait()
	m.set("txn.commit_sync_2w_us", float64(time.Since(start))/commits/1e3, "us", commits)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runfileRung times writing and reading back one run file of small tuples.
func runfileRung(tmp string, m layerMetrics) error {
	dir, err := os.MkdirTemp(tmp, "run-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mgr := runfile.NewManager(dir, 0)
	defer mgr.Close()
	const tuples = 20000
	row := []adm.Value{adm.Int32(0), adm.String("a run-file tuple carries a key and a payload about this long")}
	w, err := mgr.NewRun()
	if err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < tuples; i++ {
		row[0] = adm.Int32(i)
		if err := w.Write(row); err != nil {
			w.Abort()
			return err
		}
	}
	run, err := w.Finish()
	if err != nil {
		return err
	}
	defer run.Release()
	m.set("runfile.write_ns_per_tuple", float64(time.Since(start))/tuples, "ns", tuples)
	rd, err := run.Open()
	if err != nil {
		return err
	}
	defer rd.Close()
	start = time.Now()
	n := 0
	for {
		if _, err := rd.Next(); err != nil {
			break
		}
		n++
	}
	m.set("runfile.read_ns_per_tuple", float64(time.Since(start))/tuples, "ns", tuples)
	if n != tuples {
		return fmt.Errorf("run file returned %d of %d tuples", n, tuples)
	}
	return nil
}
