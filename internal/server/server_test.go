package server

import (
	"encoding/json"
	"io"
	"io/fs"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"asterixdb"
	"asterixdb/internal/lsm"
)

const testDDL = `
create type ItemType as closed { id: int32, k: int32, label: string };
create dataset Items(ItemType) primary key id;
create index itemKIdx on Items(k);
`

func newTestServer(t *testing.T) (*Server, *asterixdb.Instance) {
	t.Helper()
	inst, err := asterixdb.Open(asterixdb.Config{DataDir: t.TempDir(), Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	s := New(inst, Options{HandleTTL: time.Minute})
	t.Cleanup(func() { s.Close() })
	return s, inst
}

func do(t *testing.T, s *Server, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, target, nil)
	} else {
		req = httptest.NewRequest(method, target, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	return w
}

func decodeJSON(t *testing.T, body string) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("bad JSON %q: %v", body, err)
	}
	return m
}

func loadItems(t *testing.T, s *Server, n int) {
	t.Helper()
	if w := do(t, s, "POST", "/ddl", testDDL); w.Code != http.StatusOK {
		t.Fatalf("ddl: %d %s", w.Code, w.Body)
	}
	var sb strings.Builder
	sb.WriteString("insert into dataset Items ([")
	for i := 1; i <= n; i++ {
		if i > 1 {
			sb.WriteString(",")
		}
		sb.WriteString(`{ "id": ` + itoa(i) + `, "k": ` + itoa(i%10) + `, "label": "item" }`)
	}
	sb.WriteString("]);")
	if w := do(t, s, "POST", "/update", sb.String()); w.Code != http.StatusOK {
		t.Fatalf("update: %d %s", w.Code, w.Body)
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

func TestSynchronousQueryStreamsNDJSON(t *testing.T) {
	s, _ := newTestServer(t)
	loadItems(t, s, 25)
	w := do(t, s, "POST", "/query", `for $i in dataset Items where $i.k = 3 return $i.id;`)
	if w.Code != http.StatusOK {
		t.Fatalf("query: %d %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	lines := strings.Fields(strings.TrimSpace(w.Body.String()))
	if len(lines) != 3 { // ids 3, 13, 23
		t.Fatalf("got %d NDJSON lines: %q", len(lines), w.Body.String())
	}
	for _, ln := range lines {
		var v any
		if err := json.Unmarshal([]byte(ln), &v); err != nil {
			t.Errorf("line %q is not JSON: %v", ln, err)
		}
	}
}

func TestAsynchronousLifecycle(t *testing.T) {
	s, _ := newTestServer(t)
	loadItems(t, s, 10)
	w := do(t, s, "POST", "/query?mode=asynchronous", `for $i in dataset Items return $i.id;`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", w.Code, w.Body)
	}
	handle, _ := decodeJSON(t, w.Body.String())["handle"].(string)
	if handle == "" {
		t.Fatalf("no handle in %s", w.Body)
	}
	// Poll status until success.
	deadline := time.Now().Add(5 * time.Second)
	for {
		w = do(t, s, "GET", "/query/status?handle="+handle, "")
		if w.Code != http.StatusOK {
			t.Fatalf("status: %d %s", w.Code, w.Body)
		}
		st, _ := decodeJSON(t, w.Body.String())["status"].(string)
		if st == statusSuccess {
			break
		}
		if st == statusFailed {
			t.Fatalf("query failed: %s", w.Body)
		}
		if time.Now().After(deadline) {
			t.Fatal("async query did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Fetch the result; the handle must be evicted afterwards.
	w = do(t, s, "GET", "/query/result?handle="+handle, "")
	if w.Code != http.StatusOK {
		t.Fatalf("result: %d %s", w.Code, w.Body)
	}
	if got := len(strings.Fields(strings.TrimSpace(w.Body.String()))); got != 10 {
		t.Errorf("result has %d lines, want 10", got)
	}
	w = do(t, s, "GET", "/query/result?handle="+handle, "")
	if w.Code != http.StatusNotFound {
		t.Errorf("second fetch = %d, want 404 (handle evicted)", w.Code)
	}
}

func TestDeferredLifecycle(t *testing.T) {
	s, _ := newTestServer(t)
	loadItems(t, s, 5)
	w := do(t, s, "POST", "/query?mode=deferred", `for $i in dataset Items return $i.id;`)
	if w.Code != http.StatusOK {
		t.Fatalf("deferred submit: %d %s", w.Code, w.Body)
	}
	body := decodeJSON(t, w.Body.String())
	if body["status"] != statusSuccess {
		t.Errorf("deferred status = %v", body["status"])
	}
	handle, _ := body["handle"].(string)
	w = do(t, s, "GET", "/query/result?handle="+handle, "")
	if w.Code != http.StatusOK {
		t.Fatalf("result: %d %s", w.Code, w.Body)
	}
	if got := len(strings.Fields(strings.TrimSpace(w.Body.String()))); got != 5 {
		t.Errorf("result has %d lines, want 5", got)
	}
}

func TestAsyncResultWhileRunningConflicts(t *testing.T) {
	s, _ := newTestServer(t)
	h := s.handles.create("asynchronous") // never finished: permanently running
	w := do(t, s, "GET", "/query/result?handle="+h.id, "")
	if w.Code != http.StatusConflict {
		t.Errorf("result while running = %d, want 409", w.Code)
	}
}

func TestErrorStatusMapping(t *testing.T) {
	s, _ := newTestServer(t)
	loadItems(t, s, 1)
	cases := []struct {
		name, method, target, body string
		want                       int
	}{
		{"unknown dataset", "POST", "/query", `for $x in dataset Nope return $x;`, http.StatusNotFound},
		{"syntax error", "POST", "/query", `for $x in in in;`, http.StatusBadRequest},
		{"duplicate dataset", "POST", "/ddl", `create dataset Items(ItemType) primary key id;`, http.StatusConflict},
		{"duplicate index", "POST", "/ddl", `create index itemKIdx on Items(k);`, http.StatusConflict},
		{"drop missing function", "POST", "/ddl", `drop function nosuchfn;`, http.StatusNotFound},
		{"drop missing type", "POST", "/ddl", `drop type NoSuchType;`, http.StatusNotFound},
		{"bad mode", "POST", "/query?mode=sideways", `1 + 1`, http.StatusBadRequest},
		{"unknown handle", "GET", "/query/status?handle=deadbeef", "", http.StatusNotFound},
	}
	for _, c := range cases {
		w := do(t, s, c.method, c.target, c.body)
		if w.Code != c.want {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, w.Code, c.want, w.Body)
		}
		body := decodeJSON(t, w.Body.String())
		if _, ok := body["error"]; !ok {
			t.Errorf("%s: no error object in %s", c.name, w.Body)
		}
	}
}

// TestConcurrentResultFetchDeliversOnce: of N racing fetches of one finished
// handle, exactly one receives the result (take is atomic).
func TestConcurrentResultFetchDeliversOnce(t *testing.T) {
	s, _ := newTestServer(t)
	loadItems(t, s, 5)
	w := do(t, s, "POST", "/query?mode=deferred", `for $i in dataset Items return $i.id;`)
	if w.Code != http.StatusOK {
		t.Fatalf("deferred: %d %s", w.Code, w.Body)
	}
	handle, _ := decodeJSON(t, w.Body.String())["handle"].(string)
	const fetchers = 8
	codes := make(chan int, fetchers)
	var wg sync.WaitGroup
	for i := 0; i < fetchers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes <- do(t, s, "GET", "/query/result?handle="+handle, "").Code
		}()
	}
	wg.Wait()
	close(codes)
	delivered := 0
	for code := range codes {
		if code == http.StatusOK {
			delivered++
		} else if code != http.StatusNotFound {
			t.Errorf("unexpected status %d", code)
		}
	}
	if delivered != 1 {
		t.Errorf("result delivered %d times, want exactly 1", delivered)
	}
}

// TestHandleResultLargerThanBudgetStaysOnDisk is the regression test for
// handle materialization: async/deferred results used to be held as a
// []adm.Value for the handle's whole lifetime, unbounded by any budget. Now
// they spool into a budget-registered spill run, so a result far larger than
// the memory budget must (a) hit the handle spill manager's disk accounting,
// (b) stream back complete, and (c) leave no run files behind once fetched.
func TestHandleResultLargerThanBudgetStaysOnDisk(t *testing.T) {
	const budget = 4 << 10
	inst, err := asterixdb.Open(asterixdb.Config{DataDir: t.TempDir(), Partitions: 2, MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	s := New(inst, Options{HandleTTL: time.Minute})
	t.Cleanup(func() { s.Close() })

	const rows = 500 // ~60 bytes of record each: >30KiB against a 4KiB budget
	loadItems(t, s, rows)
	w := do(t, s, "POST", "/query?mode=deferred", `for $i in dataset Items return $i;`)
	if w.Code != http.StatusOK {
		t.Fatalf("deferred: %d %s", w.Code, w.Body)
	}
	handle, _ := decodeJSON(t, w.Body.String())["handle"].(string)

	st := s.spill.Stats()
	if st.BytesSpilled <= budget {
		t.Fatalf("result not spooled to disk: %d bytes spilled, budget %d", st.BytesSpilled, budget)
	}
	if st.LiveRuns != 1 {
		t.Fatalf("want 1 live handle run before fetch, have %d", st.LiveRuns)
	}

	w = do(t, s, "GET", "/query/result?handle="+handle, "")
	if w.Code != http.StatusOK {
		t.Fatalf("result: %d %s", w.Code, w.Body)
	}
	got := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	if len(got) != rows {
		t.Fatalf("result has %d lines, want %d", len(got), rows)
	}
	for _, ln := range got {
		var v map[string]any
		if err := json.Unmarshal([]byte(ln), &v); err != nil {
			t.Fatalf("line %q is not JSON: %v", ln, err)
		}
	}
	if st := s.spill.Stats(); st.LiveRuns != 0 {
		t.Errorf("%d handle runs still live after the result was delivered", st.LiveRuns)
	}
}

// TestHandleEvictionReleasesSpillRun: a handle that expires unfetched must
// not pin its result run on disk.
func TestHandleEvictionReleasesSpillRun(t *testing.T) {
	var mu sync.Mutex
	now := time.Now()
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	inst, err := asterixdb.Open(asterixdb.Config{DataDir: t.TempDir(), Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	s := newServer(inst, Options{HandleTTL: time.Minute}, clock)
	t.Cleanup(func() { s.Close() })
	loadItems(t, s, 10)

	w := do(t, s, "POST", "/query?mode=deferred", `for $i in dataset Items return $i;`)
	if w.Code != http.StatusOK {
		t.Fatalf("deferred: %d %s", w.Code, w.Body)
	}
	handle, _ := decodeJSON(t, w.Body.String())["handle"].(string)
	if st := s.spill.Stats(); st.LiveRuns != 1 {
		t.Fatalf("want 1 live run, have %d", st.LiveRuns)
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	if w := do(t, s, "GET", "/query/result?handle="+handle, ""); w.Code != http.StatusNotFound {
		t.Fatalf("expired fetch = %d, want 404", w.Code)
	}
	if st := s.spill.Stats(); st.LiveRuns != 0 {
		t.Errorf("expired handle still pins %d spill runs", st.LiveRuns)
	}
}

func TestErrorResponsesAreJSONTyped(t *testing.T) {
	s, _ := newTestServer(t)
	w := do(t, s, "GET", "/query/status?handle=nope", "")
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("error response Content-Type = %q, want application/json", ct)
	}
	w = do(t, s, "POST", "/query?mode=asynchronous", `1 + 1`)
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("202 response Content-Type = %q, want application/json", ct)
	}
}

func TestHandleTTLEviction(t *testing.T) {
	var mu sync.Mutex
	now := time.Now()
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	inst, err := asterixdb.Open(asterixdb.Config{DataDir: t.TempDir(), Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	s := newServer(inst, Options{HandleTTL: time.Minute}, clock)
	t.Cleanup(func() { s.Close() })

	w := do(t, s, "POST", "/query?mode=deferred", `1 + 1`)
	if w.Code != http.StatusOK {
		t.Fatalf("deferred: %d %s", w.Code, w.Body)
	}
	handle, _ := decodeJSON(t, w.Body.String())["handle"].(string)
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	w = do(t, s, "GET", "/query/result?handle="+handle, "")
	if w.Code != http.StatusNotFound {
		t.Errorf("expired handle fetch = %d, want 404", w.Code)
	}
}

func TestExplainEndpoint(t *testing.T) {
	s, _ := newTestServer(t)
	loadItems(t, s, 1)
	w := do(t, s, "POST", "/explain", `for $i in dataset Items where $i.k >= 1 and $i.k <= 3 return $i.id;`)
	if w.Code != http.StatusOK {
		t.Fatalf("explain: %d %s", w.Code, w.Body)
	}
	for _, want := range []string{"btree-search", "distribute-result"} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("explain output missing %q:\n%s", want, w.Body)
		}
	}
}

func TestUpdateEndpointReportsCount(t *testing.T) {
	s, _ := newTestServer(t)
	loadItems(t, s, 4)
	w := do(t, s, "POST", "/update", `delete $i from dataset Items where $i.k = 1;`)
	if w.Code != http.StatusOK {
		t.Fatalf("delete: %d %s", w.Code, w.Body)
	}
	body := decodeJSON(t, w.Body.String())
	if body["kind"] != "delete" || body["count"] != float64(1) {
		t.Errorf("delete response = %s", w.Body)
	}
}

// loadMixed creates the open dataset Mixed holding n records {id, v: id, pad}
// whose pad is padBytes long and, when bad, one more record, last in id
// order, whose v is a string, so mixedQuery fails on it at run time.
func loadMixed(t *testing.T, s *Server, n, padBytes int, bad bool) {
	t.Helper()
	if w := do(t, s, "POST", "/ddl", `
create type OpenType as open { id: int32 };
create dataset Mixed(OpenType) primary key id;`); w.Code != http.StatusOK {
		t.Fatalf("ddl: %d %s", w.Code, w.Body)
	}
	pad := strings.Repeat("x", padBytes)
	var sb strings.Builder
	sb.WriteString("insert into dataset Mixed ([")
	for i := 1; i <= n; i++ {
		if i > 1 {
			sb.WriteString(",")
		}
		sb.WriteString(`{ "id": ` + itoa(i) + `, "v": ` + itoa(i) + `, "pad": "` + pad + `" }`)
	}
	if bad {
		sb.WriteString(`,{ "id": ` + itoa(n+1) + `, "v": "boom", "pad": "" }`)
	}
	sb.WriteString(`]);`)
	if w := do(t, s, "POST", "/update", sb.String()); w.Code != http.StatusOK {
		t.Fatalf("insert: %d %s", w.Code, w.Body)
	}
}

// mixedQuery returns Mixed's records in id order with v + 1, which fails on
// the string v loadMixed plants last.
const mixedQuery = `for $x in dataset Mixed order by $x.id return { "id": $x.id, "v": $x.v + 1, "pad": $x.pad };`

// TestSynchronousStreamErrorLine: a run-time failure after more than one
// write buffer of rows has gone out cannot change the status any more, so it
// ends the 200 stream as a trailing NDJSON error line.
func TestSynchronousStreamErrorLine(t *testing.T) {
	s, _ := newTestServer(t)
	loadMixed(t, s, 200, 500, true)
	w := do(t, s, "POST", "/query", mixedQuery)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 with rows before the error: %s", w.Code, w.Body)
	}
	body := w.Body.String()
	lines := strings.Split(strings.TrimSuffix(body, "\n"), "\n")
	if len(lines) != 201 {
		t.Fatalf("got %d lines, want 200 rows and an error line", len(lines))
	}
	if rows := len(body) - len(lines[200]) - 1; rows <= writeChunk {
		t.Fatalf("rows before the error are %d bytes, not past one %d-byte write", rows, writeChunk)
	}
	for _, ln := range lines[:200] {
		if _, ok := decodeJSON(t, ln)["error"]; ok {
			t.Fatalf("error before the last line: %s", ln)
		}
	}
	errObj, _ := decodeJSON(t, lines[200])["error"].(map[string]any)
	if errObj["code"] == nil || errObj["message"] == nil {
		t.Errorf("last line %q is not an {\"error\":{code,message}} line", lines[200])
	}
}

// TestReadErrorStopsProcess: an insert over a stored key reads the record it
// replaces on the handler's goroutine. A component page that no longer reads
// back whole there stops the process; net/http, left alone, would recover
// the panic and keep serving from the failing disk.
func TestReadErrorStopsProcess(t *testing.T) {
	dir := t.TempDir()
	inst, err := asterixdb.Open(asterixdb.Config{DataDir: dir, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	s := New(inst, Options{HandleTTL: time.Minute})
	t.Cleanup(func() { s.Close() })
	loadItems(t, s, 25)
	if err := inst.Store().Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Each file's first page starts at offset 0; nothing has read a page
	// since the flush wrote it.
	var comps []string
	err = filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || !strings.HasPrefix(e.Name(), "component-") {
			return err
		}
		comps = append(comps, path)
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return err
		}
		defer f.Close()
		b := make([]byte, 1)
		if _, err := f.ReadAt(b, 0); err != nil {
			return err
		}
		_, err = f.WriteAt([]byte{^b[0]}, 0)
		return err
	})
	if err != nil || len(comps) == 0 {
		t.Fatalf("damaging components: %v (%d files)", err, len(comps))
	}

	var stopped atomic.Pointer[lsm.ReadError]
	stop := stopProcess
	stopProcess = func(err *lsm.ReadError) { stopped.Store(err) }
	t.Cleanup(func() { stopProcess = stop })
	s.logger = log.New(io.Discard, "", 0)
	ts := httptest.NewUnstartedServer(s)
	ts.Config.ErrorLog = log.New(io.Discard, "", 0)
	ts.Start()
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/update", "text/plain", strings.NewReader(`insert into dataset Items ({ "id": 1, "k": 1, "label": "again" });`))
	if err == nil {
		resp.Body.Close()
	}
	if got := stopped.Load(); got == nil || !slices.Contains(comps, got.Path) {
		t.Fatalf("insert over a damaged page did not stop the process (read error %v)", got)
	}
}
