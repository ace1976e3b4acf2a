package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"asterixdb/internal/hyracks"
)

// spillBudget is the per-job memory budget of the out-of-core rungs, small
// enough that the join, group-by and sort of the analytics classes spill.
const spillBudget = 256 << 10

// timedRun measures the end-to-end metrics with tracing off: setupsPerRun
// servers set up one after the other, the last def.windows of them driven for
// an equal share of the run's seconds, and per metric the median over them.
func timedRun(ctx context.Context, cfg runConfig, def workloadDef, d *data, res *runResult) error {
	perWindow := map[string][]metric{}
	var setups []float64
	ld := d.preload(def.preload)
	for i := 0; i < setupsPerRun; i++ {
		sv, err := setUp(ctx, cfg, def, ld)
		if err != nil {
			return err
		}
		setups = append(setups, sv.setupS)
		if i >= setupsPerRun-def.windows {
			h, err := measure(ctx, sv, def, d, cfg.window/time.Duration(def.windows), res)
			if err != nil {
				sv.close()
				return err
			}
			for name, m := range endToEnd(h) {
				perWindow[name] = append(perWindow[name], m)
			}
		}
		sv.close()
	}
	res.metrics = map[string]metric{"setup_s": {Value: median(setups), Unit: "s", samples: len(setups)}}
	for name, ms := range perWindow {
		values, samples := make([]float64, len(ms)), 0
		for i, m := range ms {
			values[i] = m.Value
			samples += m.samples
		}
		res.metrics[name] = metric{Value: median(values), Unit: ms[0].Unit, samples: samples}
	}
	return nil
}

// tracedRun produces the per-layer metrics: a one-set-up HTTP window seen from
// outside the child, the workload's statements replayed in-process with a
// span around every layer, and the stand-alone rungs.
func tracedRun(ctx context.Context, cfg runConfig, def workloadDef, d *data, res *runResult) error {
	m := layerMetrics{}
	for _, pd := range perLayerDefs {
		m.set(pd.name, 0, pd.unit, 0)
	}
	res.metrics = m

	ld := d.preload(def.preload)
	sv, err := setUp(ctx, cfg, def, ld)
	if err != nil {
		return err
	}
	h, err := measure(ctx, sv, def, d, cfg.window, res)
	sv.close()
	if err != nil {
		return err
	}
	serverMetrics(h, m)

	e, err := openEngine(cfg, def, ld)
	if err != nil {
		return err
	}
	defer e.close()
	r := e.replay(ctx, def, d, res)
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := r.tr.write(filepath.Join(cfg.outDir, "trace-"+def.name+".json")); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	replayMetrics(r, m)
	if inProcess := r.plainLat[def.reference]; len(inProcess) > 0 {
		overHTTP := m[classP50Name(def.reference)].Value
		m.set("server.http_overhead_us", (overHTTP-median(inProcess))*1e3, "us", len(inProcess))
	}
	if err := e.spillRungs(ctx, def, d, m); err != nil {
		return err
	}
	if err := storageRung(e, d, def.preload, m); err != nil {
		return err
	}
	if err := frontEndRung(e, d, m); err != nil {
		return err
	}
	// Restart cost: a crash workload already paid it on the child's
	// directory; the others reopen the in-process one after a clean close.
	rec := h.recovery
	if !def.crash {
		if err := e.inst.Close(); err != nil {
			return err
		}
		if rec, err = recoverDir(e.dir, def.journaled); err != nil {
			return err
		}
	}
	m.set("storage.open_ms", rec.openMS, "ms", 1)
	m.set("storage.recover_ms", rec.recoverMS, "ms", 1)
	m.set("storage.recover_records", float64(rec.replayed), "count", 1)

	for _, rung := range []func() error{
		func() error { return admRung(d, m) },
		func() error { return lsmRung(cfg.tmp, m) },
		func() error { return txnRung(cfg.tmp, m) },
		func() error { return runfileRung(cfg.tmp, m) },
	} {
		if err := rung(); err != nil {
			return err
		}
	}
	return nil
}

// classP50Name names the per-layer metric holding a class's median latency.
func classP50Name(class string) string {
	if class == classInsert {
		return "server.insert_p50_ms"
	}
	return "server.q_" + class + "_p50_ms"
}

// wholeWindow is the q-quantile in ms over all of a class's samples; tails
// past p90 have too few samples for slices.
func wholeWindow(samples []sample, q float64, of func(sample) time.Duration) float64 {
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = ms(of(s))
	}
	sort.Float64s(v)
	return percentile(v, q)
}

// serverMetrics fills the server.* and scraped storage.* numbers.
func serverMetrics(h *httpRun, m layerMetrics) {
	lat := func(s sample) time.Duration { return s.lat }
	first := func(s sample) time.Duration { return s.first }
	classes := byClass(h.samples)
	for class, cs := range classes {
		m.set(classP50Name(class), latencyPercentile(cs, h.window, 0.5), "ms", len(cs))
	}
	if cs := classes[classRange]; len(cs) > 0 {
		m.set("server.q_range_p99_ms", wholeWindow(cs, 0.99, lat), "ms", len(cs))
	}
	if cs := classes[classInsert]; len(cs) > 0 {
		m.set("server.insert_p99_ms", wholeWindow(cs, 0.99, lat), "ms", len(cs))
	}
	for _, class := range []string{classFilter, classJoin} {
		if cs := classes[class]; len(cs) > 0 {
			m.set("server.first_byte_ms."+class, wholeWindow(cs, 0.5, first), "ms", len(cs))
		}
	}
	if n := len(h.samples); n > 0 {
		// Child utime+stime per 1000 statements; it moved with the wall-clock
		// metrics run for run, so it explains them rather than gating beside
		// them.
		m.set("server.cpu_s_per_kop", h.cpuS/float64(n)*1000, "s", n)
	}
	m.set("server.peak_rss_mb", h.rssMB, "MB", 1)
	for name, series := range map[string]string{
		"storage.bg_flushes":           "asterix_bg_flushes_total",
		"storage.bg_merges":            "asterix_bg_merges_total",
		"storage.checkpoints":          "asterix_checkpoints_total",
		"storage.components_primary":   "asterix_lsm_components",
		"storage.components_secondary": "asterix_lsm_secondary_components",
		"storage.wal_bytes":            "asterix_wal_bytes",
	} {
		m.set(name, h.scrape[series], m[name].Unit, 1)
	}
}

// replayMetrics fills the shares, the trace's own numbers and the hyracks
// operator numbers from the replayed statements' spans and job profiles.
func replayMetrics(r *replayed, m layerMetrics) {
	self, roots, covered := r.tr.selfTimes()
	if roots == 0 || r.plainNS == 0 {
		return
	}
	statements := 0
	for _, s := range r.tr.spans {
		if s.Parent == 0 {
			statements++
		}
	}
	for name, spanName := range map[string]string{
		"share.aql": spanParse, "share.algebra": spanCompile, "share.translator": spanJobGen,
		"share.hyracks": spanExecute, "share.adm_json": spanJSON,
		"share.expr": spanEval, "share.storage": spanStore,
	} {
		m.set(name, float64(self[spanName])/float64(roots), "ratio", statements)
	}
	m.set("trace.coverage", float64(covered)/float64(roots), "ratio", statements)
	m.set("trace.overhead_ratio", float64(r.tracedNS)/float64(r.plainNS), "ratio", statements)

	// Per class: the slowest partition's wall time of the operator the class
	// exists to exercise, and the tuples its access paths produced per row.
	type opRung struct{ class, prefix, wall, firstOut, examined string }
	for _, rung := range []opRung{
		{class: classPK, examined: "hyracks.rows_examined_per_result.pk"},
		{class: classRange, examined: "hyracks.rows_examined_per_result.range"},
		{class: classFilter, prefix: "datasource-scan", wall: "hyracks.op_scan_ms", examined: "hyracks.rows_examined_per_result.filter"},
		{class: classGroupBy, prefix: "hash-group-by", wall: "hyracks.op_group_ms"},
		{class: classJoin, prefix: "join", wall: "hyracks.op_join_ms", firstOut: "hyracks.first_tuple_ms.join"},
		{class: classTopK, prefix: "sort", wall: "hyracks.op_sort_ms"},
	} {
		var walls, firsts, examined []float64
		for _, p := range r.profiles {
			if p.class != rung.class {
				continue
			}
			if rung.prefix != "" {
				if w, f, ok := opWall(p.prof, rung.prefix); ok {
					walls = append(walls, w)
					firsts = append(firsts, f)
				}
			}
			examined = append(examined, float64(rowsExamined(p.prof))/float64(max(p.rows, 1)))
		}
		if len(walls) > 0 && rung.wall != "" {
			m.set(rung.wall, median(walls), "ms", len(walls))
		}
		if len(firsts) > 0 && rung.firstOut != "" {
			m.set(rung.firstOut, median(firsts), "ms", len(firsts))
		}
		if len(examined) > 0 && rung.examined != "" {
			m.set(rung.examined, median(examined), "count", len(examined))
		}
	}
}

// spillRungs runs the workload's blocking classes under spillBudget and
// reports their wall time and what they spilled. No end-to-end workload
// spills, so nothing gated moves with these yet.
func (e *engine) spillRungs(ctx context.Context, def workloadDef, d *data, m layerMetrics) error {
	names := map[string]string{classJoin: "hyracks.spill_join_ms", classGroupBy: "hyracks.spill_group_ms", classTopK: "hyracks.spill_sort_ms"}
	const reps = 3
	tr := newTracer() // spans of budgeted statements stay out of the shares
	var buf []byte
	var spillBytes, spillRuns float64
	for ci, classes := range def.clients {
		st := d.newStream(ci, len(def.clients))
		for _, class := range classes {
			name, ok := names[class]
			if !ok {
				continue
			}
			var walls []float64
			for i := 0; i < reps; i++ {
				s := st.next(class)
				start := time.Now()
				var prof *hyracks.JobProfile
				var err error
				if buf, prof, err = e.traced(ctx, tr, i+1, s, spillBudget, buf); err != nil {
					return fmt.Errorf("spill %s: %w", class, err)
				}
				walls = append(walls, ms(time.Since(start)))
				if prof != nil && prof.JobSpill != nil {
					spillBytes += float64(prof.JobSpill.BytesSpilled) / reps
					spillRuns += float64(prof.JobSpill.RunsCreated) / reps
				}
			}
			m.set(name, median(walls), "ms", reps)
		}
	}
	m.set("runfile.spill_bytes", spillBytes, "bytes", reps)
	m.set("runfile.spill_runs", spillRuns, "count", reps)
	return nil
}
