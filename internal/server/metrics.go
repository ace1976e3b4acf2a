package server

import (
	"sort"
	"strconv"
	"strings"
	"time"

	"asterixdb"
	"asterixdb/internal/hyracks"
	"asterixdb/internal/metrics"
)

// MetricsRegistrar is optionally implemented by engines that expose their
// own gauges (the local instance's LSM/spill state, the controller's
// roster); New merges them into the server's /metrics registry.
type MetricsRegistrar interface {
	RegisterMetrics(r *metrics.Registry)
}

// serverMetrics is the HTTP layer's own instrumentation: query counts and
// latencies by delivery mode, in-flight queries, and result-handle state.
type serverMetrics struct {
	reg      *metrics.Registry
	active   *metrics.Gauge
	duration *metrics.Histogram
	queries  map[string]*metrics.Counter // "mode|status"
	// phases sums each statement phase over every finished query, in the
	// order of phaseNames.
	phases [len(phaseNames)]*metrics.Counter
}

// phaseNames label asterix_statement_phase_seconds_total, one per field of
// asterixdb.Phases in its order.
var phaseNames = [...]string{"parse", "compile", "job_build", "first_row", "last_row"}

const (
	outcomeSuccess  = "success"
	outcomeError    = "error"
	outcomeCanceled = "canceled"
)

func newServerMetrics(s *Server) *serverMetrics {
	reg := metrics.NewRegistry()
	m := &serverMetrics{reg: reg, queries: map[string]*metrics.Counter{}}
	for _, mode := range []string{"synchronous", "asynchronous", "deferred"} {
		for _, st := range []string{outcomeSuccess, outcomeError, outcomeCanceled} {
			m.queries[mode+"|"+st] = reg.Counter("asterix_queries_total",
				"Completed /query requests by delivery mode and outcome.",
				metrics.L("mode", mode), metrics.L("status", st))
		}
	}
	m.duration = reg.Histogram("asterix_query_duration_seconds",
		"Query latency from request to last result row.", metrics.DurationBuckets)
	for i, name := range phaseNames {
		m.phases[i] = reg.Counter("asterix_statement_phase_seconds_total",
			"Time finished queries spent in each statement phase: parse, compile, job build, job start to first row, first row to last row.",
			metrics.L("phase", name))
	}
	m.active = reg.Gauge("asterix_queries_active",
		"Queries currently executing (all delivery modes).")
	reg.GaugeFunc("asterix_result_handles",
		"Async/deferred result handles currently in the table.",
		func() float64 { return float64(s.handles.size()) })
	reg.CounterFunc("asterix_result_handles_expired_total",
		"Result handles evicted by TTL expiry before delivery.",
		func() float64 { return float64(s.handles.expirations()) })
	return m
}

// record counts one finished query and adds its phase times. A request ended
// by its own context (client went away, deadline) is canceled, not an engine
// error.
func (m *serverMetrics) record(mode string, dur time.Duration, ph asterixdb.Phases, err error) {
	st := outcomeSuccess
	switch {
	case err == nil:
	case isContextEnd(err):
		st = outcomeCanceled
	default:
		st = outcomeError
	}
	m.queries[mode+"|"+st].Inc()
	m.duration.Observe(dur.Seconds())
	for i, ns := range [...]int64{ph.ParseNanos, ph.CompileNanos, ph.JobBuildNanos, ph.FirstRowNanos, ph.LastRowNanos} {
		m.phases[i].Add(time.Duration(ns).Seconds())
	}
}

// finishQuery records a query's metrics and, past the slow-query
// threshold, logs it with a profile summary.
func (s *Server) finishQuery(mode, src string, start time.Time, st queryStats, err error) {
	dur := time.Since(start)
	s.metrics.record(mode, dur, st.phases, err)
	if s.opts.SlowQueryThreshold > 0 && dur >= s.opts.SlowQueryThreshold {
		s.logger.Printf("slow query (%s, %v): %s%s", mode, dur.Round(time.Millisecond),
			truncateStatement(src), profileSummary(st.prof))
	}
}

// truncateStatement collapses a statement onto one log line.
func truncateStatement(src string) string {
	src = strings.Join(strings.Fields(src), " ")
	const max = 300
	if len(src) > max {
		src = src[:max] + "..."
	}
	return src
}

// profileSummary renders the top operators by wall time for the slow-query
// log: " | top ops: sort wall=92ms out=10000; ...". Rows are aggregated by
// operator name (max wall across partitions, summed output).
func profileSummary(prof *hyracks.JobProfile) string {
	if prof == nil || len(prof.Operators) == 0 {
		return ""
	}
	type agg struct {
		name string
		wall int64
		out  int64
	}
	byName := map[string]*agg{}
	var order []*agg
	for _, r := range prof.Operators {
		a := byName[r.Name]
		if a == nil {
			a = &agg{name: r.Name}
			byName[r.Name] = a
			order = append(order, a)
		}
		if r.WallNanos > a.wall {
			a.wall = r.WallNanos
		}
		a.out += r.TuplesOut
	}
	sort.Slice(order, func(i, j int) bool { return order[i].wall > order[j].wall })
	if len(order) > 3 {
		order = order[:3]
	}
	var b strings.Builder
	b.WriteString(" | top ops:")
	for i, a := range order {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(" ")
		b.WriteString(a.name)
		b.WriteString(" wall=")
		b.WriteString(time.Duration(a.wall).Round(time.Millisecond).String())
		b.WriteString(" out=")
		b.WriteString(formatInt(a.out))
	}
	if prof.JobSpill != nil && prof.JobSpill.BytesSpilled > 0 {
		b.WriteString(" | spilled ")
		b.WriteString(formatInt(prof.JobSpill.BytesSpilled))
		b.WriteString(" bytes in ")
		b.WriteString(formatInt(int64(prof.JobSpill.RunsCreated)))
		b.WriteString(" runs")
	}
	return b.String()
}

func formatInt(n int64) string {
	return strconv.FormatInt(n, 10)
}
