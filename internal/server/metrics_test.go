package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"asterixdb"
)

func TestMetricsEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	loadItems(t, s, 10)
	if w := do(t, s, "POST", "/query", `for $i in dataset Items return $i.id;`); w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body)
	}
	w := do(t, s, "GET", "/metrics", "")
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition format", ct)
	}
	body := w.Body.String()
	for _, want := range []string{
		`asterix_queries_total{mode="synchronous",status="success"} 1`,
		"asterix_query_duration_seconds_bucket",
		"asterix_query_duration_seconds_count 1",
		"asterix_queries_active 0",
		"asterix_result_handles 0",
		"asterix_result_handles_expired_total 0",
		// Engine gauges registered through MetricsRegistrar.
		"asterix_memory_budget_bytes",
		"asterix_spill_runs_total",
		`asterix_lsm_components{dataset="Items"}`,
		// The ten-record insert is one statement: ten commit records, one
		// write of the log's tail, and no fsync on an unjournaled log.
		"asterix_wal_commits_total 10\n",
		"asterix_wal_writes_total 1\n",
		"asterix_wal_fsyncs_total 0\n",
		"asterix_wal_fsync_seconds_total 0\n",
		"# TYPE asterix_wal_writes_total counter",
		"# TYPE asterix_queries_total counter",
		"# HELP asterix_queries_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}
}

// metricValue reads the value of one series from a /metrics body.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	i := strings.Index(body, series+" ")
	if i < 0 {
		t.Fatalf("/metrics has no %s series:\n%s", series, body)
	}
	var v float64
	if _, err := fmt.Sscan(body[i+len(series)+1:], &v); err != nil {
		t.Fatalf("%s: %v", series, err)
	}
	return v
}

// itemWriter creates the Items dataset and returns an insert of items
// from..from+n-1 in one statement over HTTP and a flush of every tree.
func itemWriter(t *testing.T, s *Server, inst *asterixdb.Instance) (insert func(from, n int), flush func()) {
	t.Helper()
	if w := do(t, s, "POST", "/ddl", testDDL); w.Code != http.StatusOK {
		t.Fatalf("ddl: %d %s", w.Code, w.Body)
	}
	ds, ok := inst.Dataset("Items")
	if !ok {
		t.Fatal("no dataset Items")
	}
	insert = func(from, n int) {
		t.Helper()
		var sb strings.Builder
		for i := from; i < from+n; i++ {
			if sb.Len() > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(`{ "id": ` + itoa(i) + `, "k": ` + itoa(i%10) + `, "label": "item" }`)
		}
		if w := do(t, s, "POST", "/update", "insert into dataset Items (["+sb.String()+"]);"); w.Code != http.StatusOK {
			t.Fatalf("update: %d %s", w.Code, w.Body)
		}
	}
	flush = func() {
		t.Helper()
		if err := ds.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return insert, flush
}

// TestMetricsFilterSkips: an insert reads its new primary key first, and
// with four disk components in each partition's primary index the component
// filters spare nearly every binary search of those reads: /metrics shows
// skips of at least 0.95 per read per component.
func TestMetricsFilterSkips(t *testing.T) {
	s, inst := newTestServer(t)
	insert, flush := itemWriter(t, s, inst)
	const components, partitions = 4, 2
	for c := 0; c < components; c++ {
		insert(c*100, 100)
		flush()
	}
	const (
		reads  = `asterix_lsm_point_reads_total{dataset="Items"}`
		skips  = `asterix_lsm_filter_skips_total{dataset="Items"}`
		falses = `asterix_lsm_filter_false_positives_total{dataset="Items"}`
		comps  = `asterix_lsm_components{dataset="Items"}`
	)
	before := do(t, s, "GET", "/metrics", "").Body.String()
	insert(components*100, 400)
	after := do(t, s, "GET", "/metrics", "").Body.String()
	for _, body := range []string{before, after} {
		if got := metricValue(t, body, comps); got != components*partitions {
			t.Fatalf("%s = %v, want %d", comps, got, components*partitions)
		}
	}
	dReads := metricValue(t, after, reads) - metricValue(t, before, reads)
	dSkips := metricValue(t, after, skips) - metricValue(t, before, skips)
	dFalse := metricValue(t, after, falses) - metricValue(t, before, falses)
	t.Logf("%v reads, %v skips, %v false positives over %d components", dReads, dSkips, dFalse, components)
	if dReads < 400 || dSkips < 0.95*dReads*components || dSkips+dFalse != dReads*components {
		t.Fatalf("400 inserts of new keys over %d components: %v reads, %v skips, %v false positives; want skips >= 0.95 x reads x components and skips + false positives = reads x components",
			components, dReads, dSkips, dFalse)
	}
}

// TestMetricsFilterBytes: /metrics shows no filter memory until a point
// read reaches a disk component, and then 2.5 bytes per key of the
// components reached, each filter rounded up to whole 8-byte words.
func TestMetricsFilterBytes(t *testing.T) {
	s, inst := newTestServer(t)
	insert, flush := itemWriter(t, s, inst)
	const series = `asterix_lsm_filter_bytes{dataset="Items"}`
	check := func(when string, keys, filters int) {
		t.Helper()
		got := metricValue(t, do(t, s, "GET", "/metrics", "").Body.String(), series)
		lo := 2.5 * float64(keys)
		if got < lo || got > lo+float64(8*filters) {
			t.Fatalf("%s: %s = %v, want %v plus at most 8 for each of %d filters", when, series, got, lo, filters)
		}
	}
	insert(0, 100)
	flush()
	check("after a flush", 0, 0)
	insert(100, 100) // reads its keys through the first components
	flush()
	check("after inserts beside one component per partition", 100, 2)
	insert(200, 400)
	check("after inserts beside two components per partition", 200, 4)
}

// TestMetricsMemBytes: /metrics shows the in-memory components of the
// primary index and of the secondary index apart; both hold the ten inserted
// rows until a flush empties them.
func TestMetricsMemBytes(t *testing.T) {
	s, inst := newTestServer(t)
	loadItems(t, s, 10)
	const (
		primary   = `asterix_lsm_mem_bytes{dataset="Items"}`
		secondary = `asterix_lsm_secondary_mem_bytes{dataset="Items"}`
	)
	body := do(t, s, "GET", "/metrics", "").Body.String()
	if p, sec := metricValue(t, body, primary), metricValue(t, body, secondary); p <= 0 || sec <= 0 {
		t.Fatalf("after 10 inserts: %s = %v, %s = %v; want both > 0", primary, p, secondary, sec)
	}
	ds, ok := inst.Dataset("Items")
	if !ok {
		t.Fatal("no dataset Items")
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	body = do(t, s, "GET", "/metrics", "").Body.String()
	if p, sec := metricValue(t, body, primary), metricValue(t, body, secondary); p != 0 || sec != 0 {
		t.Fatalf("after a flush: %s = %v, %s = %v; want both 0", primary, p, secondary, sec)
	}
}

func TestMetricsCountsErrors(t *testing.T) {
	s, _ := newTestServer(t)
	if w := do(t, s, "POST", "/query", `for $x in dataset NoSuch return $x;`); w.Code != http.StatusNotFound {
		t.Fatalf("bad query: %d %s", w.Code, w.Body)
	}
	body := do(t, s, "GET", "/metrics", "").Body.String()
	if !strings.Contains(body, `asterix_queries_total{mode="synchronous",status="error"} 1`) {
		t.Errorf("/metrics did not count the failed query:\n%s", body)
	}
}

// profileLine returns the decoded {"profile": ...} object from the last
// NDJSON line, failing if it is absent or malformed.
func profileLine(t *testing.T, body string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(body), "\n")
	last := lines[len(lines)-1]
	var m map[string]any
	if err := json.Unmarshal([]byte(last), &m); err != nil {
		t.Fatalf("last line %q is not JSON: %v", last, err)
	}
	prof, ok := m["profile"].(map[string]any)
	if !ok {
		t.Fatalf("last line %q is not a profile trailer", last)
	}
	return prof
}

// assertProfileShape checks the trailer has operator rows with nonzero
// counters and that the source row accounts for every stored record.
func assertProfileShape(t *testing.T, prof map[string]any, cardinality float64) {
	t.Helper()
	ops, ok := prof["operators"].([]any)
	if !ok || len(ops) == 0 {
		t.Fatalf("profile has no operator rows: %v", prof)
	}
	var scanOut float64
	for _, o := range ops {
		row := o.(map[string]any)
		if row["wallNanos"].(float64) <= 0 {
			t.Errorf("operator %v has no wall time", row["name"])
		}
		if name, _ := row["name"].(string); strings.HasPrefix(name, "datasource-scan") {
			scanOut += row["tuplesOut"].(float64)
		}
	}
	if scanOut != cardinality {
		t.Errorf("scan tuplesOut = %v, want %v", scanOut, cardinality)
	}
}

func TestSynchronousProfileTrailer(t *testing.T) {
	s, _ := newTestServer(t)
	loadItems(t, s, 12)
	w := do(t, s, "POST", "/query?profile=true", `for $i in dataset Items return $i.id;`)
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != 13 { // 12 rows + 1 trailer
		t.Fatalf("got %d lines, want 13:\n%s", len(lines), w.Body.String())
	}
	assertProfileShape(t, profileLine(t, w.Body.String()), 12)

	// Without profile=true there is no trailer.
	w = do(t, s, "POST", "/query", `for $i in dataset Items return $i.id;`)
	if got := len(strings.Split(strings.TrimSpace(w.Body.String()), "\n")); got != 12 {
		t.Fatalf("unprofiled query has %d lines, want 12", got)
	}
}

func TestDeferredProfileTrailer(t *testing.T) {
	s, _ := newTestServer(t)
	loadItems(t, s, 7)
	w := do(t, s, "POST", "/query?mode=deferred&profile=true", `for $i in dataset Items return $i.id;`)
	if w.Code != http.StatusOK {
		t.Fatalf("deferred submit: %d %s", w.Code, w.Body)
	}
	handle, _ := decodeJSON(t, w.Body.String())["handle"].(string)
	w = do(t, s, "GET", "/query/result?handle="+handle, "")
	if w.Code != http.StatusOK {
		t.Fatalf("result: %d %s", w.Code, w.Body)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(lines) != 8 { // 7 rows + 1 trailer
		t.Fatalf("got %d result lines, want 8:\n%s", len(lines), w.Body.String())
	}
	assertProfileShape(t, profileLine(t, w.Body.String()), 7)
}

func TestAsynchronousProfileTrailer(t *testing.T) {
	s, _ := newTestServer(t)
	loadItems(t, s, 5)
	w := do(t, s, "POST", "/query?mode=asynchronous&profile=true", `for $i in dataset Items return $i.id;`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", w.Code, w.Body)
	}
	handle, _ := decodeJSON(t, w.Body.String())["handle"].(string)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := decodeJSON(t, do(t, s, "GET", "/query/status?handle="+handle, "").Body.String())["status"].(string)
		if st == statusSuccess {
			break
		}
		if st == statusFailed || time.Now().After(deadline) {
			t.Fatalf("async query state %q", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	w = do(t, s, "GET", "/query/result?handle="+handle, "")
	assertProfileShape(t, profileLine(t, w.Body.String()), 5)
}

// recordingLogger captures slow-query lines for assertions.
type recordingLogger struct {
	mu    sync.Mutex
	lines []string
}

func (l *recordingLogger) Printf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func TestSlowQueryLogging(t *testing.T) {
	inst, err := asterixdb.Open(asterixdb.Config{DataDir: t.TempDir(), Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	lg := &recordingLogger{}
	s := New(inst, Options{HandleTTL: time.Minute, SlowQueryThreshold: time.Nanosecond})
	s.logger = lg
	t.Cleanup(func() { s.Close() })
	loadItems(t, s, 20)
	if w := do(t, s, "POST", "/query", `for $i in dataset Items return $i.id;`); w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body)
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	var got string
	for _, ln := range lg.lines {
		if strings.Contains(ln, "for $i in dataset Items") {
			got = ln
		}
	}
	if got == "" {
		t.Fatalf("no slow-query line for the query; log: %v", lg.lines)
	}
	if !strings.Contains(got, "slow query (synchronous") {
		t.Errorf("slow-query line missing mode: %q", got)
	}
	if !strings.Contains(got, "top ops:") || !strings.Contains(got, "datasource-scan") {
		t.Errorf("slow-query line missing profile summary: %q", got)
	}
	if !strings.Contains(got, "out=20") {
		t.Errorf("slow-query line should report the 20 scanned tuples as a plain count: %q", got)
	}
}

// TestStatementPhases: the profile trailer names the statement's phases, the
// phases fit inside the request, and /metrics sums each phase over the
// finished queries.
func TestStatementPhases(t *testing.T) {
	s, _ := newTestServer(t)
	loadItems(t, s, 12)
	start := time.Now()
	w := do(t, s, "POST", "/query?profile=true", `for $i in dataset Items where $i.id >= 3 return $i.id;`)
	wall := time.Since(start)
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body)
	}
	phases, ok := profileLine(t, w.Body.String())["phases"].(map[string]any)
	if !ok {
		t.Fatalf("trailer has no phases:\n%s", w.Body)
	}
	var sum float64
	for _, name := range []string{"parseNanos", "compileNanos", "jobBuildNanos", "firstRowNanos", "lastRowNanos"} {
		ns, ok := phases[name].(float64)
		if !ok || ns < 0 {
			t.Fatalf("phase %s = %v in %v", name, phases[name], phases)
		}
		if ns == 0 && name != "lastRowNanos" {
			t.Errorf("phase %s is zero: %v", name, phases)
		}
		sum += ns
	}
	if sum > float64(wall) {
		t.Errorf("phases sum to %v, more than the request's %v: %v", time.Duration(sum), wall, phases)
	}
	body := do(t, s, "GET", "/metrics", "").Body.String()
	for _, name := range phaseNames {
		series := `asterix_statement_phase_seconds_total{phase="` + name + `"} `
		i := strings.Index(body, series)
		if i < 0 {
			t.Fatalf("/metrics has no %s series:\n%s", name, body)
		}
		var v float64
		if _, err := fmt.Sscan(body[i+len(series):], &v); err != nil || (v <= 0 && name != "last_row") {
			t.Errorf("%s = %v (%v), want a positive sum", series, v, err)
		}
	}
}

// TestMetricsPageCache: a count over flushed components reads their pages
// from the files once — misses, bytes read and resident bytes rise — and a
// second count finds them cached.
func TestMetricsPageCache(t *testing.T) {
	s, inst := newTestServer(t)
	if w := do(t, s, "POST", "/ddl", testDDL); w.Code != http.StatusOK {
		t.Fatalf("ddl: %d %s", w.Code, w.Body)
	}
	var sb strings.Builder
	for i := 0; i < 200; i++ {
		if sb.Len() > 0 {
			sb.WriteString(",")
		}
		sb.WriteString(`{ "id": ` + itoa(i) + `, "k": ` + itoa(i%10) + `, "label": "item" }`)
	}
	if w := do(t, s, "POST", "/update", "insert into dataset Items (["+sb.String()+"]);"); w.Code != http.StatusOK {
		t.Fatalf("update: %d %s", w.Code, w.Body)
	}
	ds, ok := inst.Dataset("Items")
	if !ok {
		t.Fatal("no dataset Items")
	}
	if err := ds.Flush(); err != nil {
		t.Fatal(err)
	}
	// Each series starts a line: its name also follows "# HELP ".
	const (
		hits     = "\nasterix_lsm_page_cache_hits_total"
		misses   = "\nasterix_lsm_page_cache_misses_total"
		read     = "\nasterix_lsm_page_cache_read_bytes_total"
		resident = "\nasterix_lsm_page_cache_resident_bytes"
		evicted  = "\nasterix_lsm_page_cache_evictions_total"
	)
	count := func() {
		t.Helper()
		if w := do(t, s, "POST", "/query", "count(for $i in dataset Items return $i);"); w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "200") {
			t.Fatalf("count: %d %s", w.Code, w.Body)
		}
	}
	before := do(t, s, "GET", "/metrics", "").Body.String()
	count()
	first := do(t, s, "GET", "/metrics", "").Body.String()
	count()
	second := do(t, s, "GET", "/metrics", "").Body.String()
	delta := func(from, to, series string) float64 {
		return metricValue(t, to, series) - metricValue(t, from, series)
	}
	if delta(before, first, misses) == 0 || delta(before, first, read) == 0 || metricValue(t, first, resident) == 0 {
		t.Fatalf("the first count read no page: %v misses, %v bytes read, %v resident", delta(before, first, misses), delta(before, first, read), metricValue(t, first, resident))
	}
	if delta(first, second, misses) != 0 || delta(first, second, hits) == 0 || delta(first, second, evicted) != 0 {
		t.Fatalf("the second count: %v misses, %v hits, %v evictions; want every page a hit", delta(first, second, misses), delta(first, second, hits), delta(first, second, evicted))
	}
}
