// Package server exposes an AsterixDB engine — a local asterixdb.Instance
// or a cluster.Controller — over HTTP, following the
// paper's Cluster-Controller API shape (Section 4): clients POST AQL to
// statement endpoints and results stream back as NDJSON. Three
// result-delivery modes are supported on /query, as in the paper:
//
//   - synchronous (default): the response body streams results as the
//     executing job produces them, in 64 KiB writes; an answer smaller than
//     that is one response with a Content-Length, and an error before the
//     first write is a status code;
//   - asynchronous: the response returns a handle immediately; the client
//     polls /query/status and fetches /query/result when done;
//   - deferred: the query runs to completion, then a handle to the stored
//     result is returned and fetched once via /query/result.
//
// Handles live in a TTL-evicting table; fetching a result evicts its handle
// (exactly-once delivery). Errors map the asterixdb typed-error contract
// onto status codes: not-found 404, exists 409, syntax/invalid 400,
// everything else 500, with a JSON body {"error":{"code","message"}}.
//
// Endpoints:
//
//	POST /query?mode=synchronous|asynchronous|deferred   AQL query text
//	GET  /query/status?handle=...                        poll an async handle
//	GET  /query/result?handle=...                        fetch + evict a handle
//	POST /ddl                                            DDL statements
//	POST /update                                         insert/delete/load
//	POST /explain                                        optimized plan + job (text)
//	GET  /health                                         liveness probe
//	GET  /metrics                                        Prometheus text metrics
//
// Adding profile=true to /query (any mode) runs the job with per-operator
// instrumentation; the response gains a final NDJSON line
// {"profile":{"operators":[...]}} after the result rows (for async and
// deferred, on the /query/result stream).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"asterixdb"
	"asterixdb/internal/adm"
	"asterixdb/internal/hyracks"
	"asterixdb/internal/lsm"
	"asterixdb/internal/metrics"
	"asterixdb/internal/runfile"
)

// Engine is the statement-execution surface the server fronts: a local
// *asterixdb.Instance in single-process mode, or a *cluster.Controller when
// the HTTP API faces a distributed deployment. Both satisfy it without
// adapters.
type Engine interface {
	QueryStream(ctx context.Context, src string) (*asterixdb.Cursor, error)
	ExecuteContext(ctx context.Context, src string) (*asterixdb.Result, error)
	Explain(src string) (string, error)
	SpillDir() string
	MemoryBudget() int64
}

// HealthChecker is optionally implemented by engines whose liveness is more
// than process-up — the cluster controller reports an error until the
// cluster has formed. /health returns 503 while Health errors.
type HealthChecker interface {
	Health() error
}

// Options configure a Server.
type Options struct {
	// HandleTTL is how long an untouched async/deferred result handle
	// survives before eviction (default 2 minutes).
	HandleTTL time.Duration
	// SlowQueryThreshold, when positive, logs every query slower than it —
	// statement, duration and a per-operator profile summary. Queries are
	// then always run with profiling so the summary is available (the
	// instrumentation is cheap: a handful of counters per frame).
	SlowQueryThreshold time.Duration
}

// Server is the HTTP face of one AsterixDB engine.
type Server struct {
	inst    Engine
	opts    Options
	mux     *http.ServeMux
	handles *handleTable
	// logger receives slow-query lines.
	logger interface {
		Printf(format string, args ...any)
	}
	// spill holds the run files that store async/deferred results between
	// query completion and result fetch, registered against the instance's
	// memory budget so handle results never materialize in memory.
	spill *runfile.Manager
	// async tracks detached asynchronous-query goroutines so Close can wait
	// for them before the caller tears down the instance under their feet.
	async sync.WaitGroup
	// metrics backs GET /metrics: the server's own query/handle series plus
	// whatever the engine registers through MetricsRegistrar.
	metrics *serverMetrics
}

// ReadHeaderTimeout is the http.Server.ReadHeaderTimeout of every listener
// the daemons open (asterixd, asterixcc, asterixnc's metrics listener):
// without one, a client that connects and never finishes its request headers
// pins a goroutine and a socket forever.
const ReadHeaderTimeout = 10 * time.Second

// maxBodyBytes caps statement bodies.
const maxBodyBytes = 8 << 20

// writeChunk is the size of the buffer a result stream fills before it
// hands the bytes to the connection.
const writeChunk = 64 << 10

// New wraps an engine in a Server. The caller keeps ownership of the
// engine; Server.Close stops the handle janitor but does not close the
// engine.
func New(inst Engine, opts Options) *Server { return newServer(inst, opts, time.Now) }

// newServer is New with the handle table's clock.
func newServer(inst Engine, opts Options, now func() time.Time) *Server {
	if opts.HandleTTL <= 0 {
		opts.HandleTTL = 2 * time.Minute
	}
	s := &Server{
		inst:    inst,
		opts:    opts,
		mux:     http.NewServeMux(),
		handles: newHandleTable(opts.HandleTTL, now),
		logger:  log.Default(),
		spill:   runfile.NewManager(filepath.Join(inst.SpillDir(), "handles"), inst.MemoryBudget()),
	}
	s.metrics = newServerMetrics(s)
	if mr, ok := inst.(MetricsRegistrar); ok {
		mr.RegisterMetrics(s.metrics.reg)
	}
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("GET /query/status", s.handleStatus)
	s.mux.HandleFunc("GET /query/result", s.handleResult)
	s.mux.HandleFunc("POST /ddl", s.handleDDL)
	s.mux.HandleFunc("POST /update", s.handleUpdate)
	s.mux.HandleFunc("POST /explain", s.handleExplain)
	s.mux.HandleFunc("GET /health", s.handleHealth)
	s.mux.Handle("GET /metrics", metrics.Handler(s.metrics.reg))
	return s
}

// ServeHTTP implements http.Handler. A statement run on the handler's
// goroutine (an insert's reads of the records it replaces, an index build)
// that finds a component page no longer reading back whole stops the
// process, as it does on a job's goroutine: net/http would recover the
// *lsm.ReadError panic and go on serving from the failing disk.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if v := recover(); v != nil {
			if err, ok := v.(*lsm.ReadError); ok {
				s.logger.Printf("asterixdb: stopping: %v", err)
				stopProcess(err)
			}
			panic(v)
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// stopProcess ends the process after a read error; tests replace it.
var stopProcess = func(*lsm.ReadError) { os.Exit(2) }

// Close waits for detached asynchronous queries to finish, stops the handle
// table's eviction janitor, and removes any handle-result spill files still
// on disk. Call it before closing the instance.
func (s *Server) Close() error {
	s.async.Wait()
	s.handles.close()
	return s.spill.Close()
}

// ----------------------------------------------------------------------------
// Statement endpoints
// ----------------------------------------------------------------------------

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	src, err := s.readBody(r)
	if err != nil {
		writeError(w, err)
		return
	}
	mode := r.URL.Query().Get("mode")
	switch mode {
	case "", "synchronous":
		s.querySynchronous(w, r, src)
	case "asynchronous":
		s.queryAsynchronous(w, r, src)
	case "deferred":
		s.queryDeferred(w, r, src)
	default:
		writeError(w, &asterixdb.Error{Code: asterixdb.CodeInvalid,
			Message: fmt.Sprintf("unknown mode %q (want synchronous, asynchronous or deferred)", mode)})
	}
}

// querySynchronous streams results as the job produces them. Nothing goes
// out before writeNDJSON's first write, so an error that strikes before it
// (unknown dataset, failed compile, a runtime error in the first 64 KiB of
// rows) still maps onto a real status code. After that write the status can
// no longer change; a later failure is reported as a final NDJSON error line
// ({"error":{...}}), which clients detect by its shape.
func (s *Server) querySynchronous(w http.ResponseWriter, r *http.Request, src string) {
	wantProfile := profileRequested(r)
	start := time.Now()
	s.metrics.active.Inc()
	defer s.metrics.active.Dec()
	cur, err := s.inst.QueryStream(s.queryContext(r.Context(), wantProfile), src)
	if err != nil {
		s.finishQuery("synchronous", src, start, queryStats{}, err)
		writeError(w, err)
		return
	}
	defer cur.Close()
	var trailer func() []byte
	if wantProfile {
		// Evaluated after the stream drains, when the finished cursor has
		// its profile.
		trailer = func() []byte { return profileTrailer(statsOf(cur)) }
	}
	// The request context ending is not a failure: the stream just stops.
	writeNDJSON(w, func() (adm.Value, bool, error) {
		if cur.Next() {
			return cur.Value(), true, nil
		}
		if err := cur.Err(); err != nil && !isContextEnd(err) {
			return nil, false, err
		}
		return nil, false, nil
	}, trailer)
	s.finishQuery("synchronous", src, start, statsOf(cur), cur.Err())
}

// profileRequested reports whether the request asked for a per-operator
// profile trailer (profile=true).
func profileRequested(r *http.Request) bool {
	return r.URL.Query().Get("profile") == "true"
}

// queryContext marks ctx for job profiling when the client asked for a
// profile or slow-query logging needs one.
func (s *Server) queryContext(ctx context.Context, wantProfile bool) context.Context {
	if wantProfile || s.opts.SlowQueryThreshold > 0 {
		ctx = asterixdb.WithProfiling(ctx)
	}
	return ctx
}

// queryStats is what a finished cursor reports about its statement: the job
// profile (nil unless profiling was on) and the phase times.
type queryStats struct {
	prof   *hyracks.JobProfile
	phases asterixdb.Phases
}

func statsOf(cur *asterixdb.Cursor) queryStats {
	return queryStats{prof: cur.Profile(), phases: cur.Phases()}
}

// profileTrailer renders the profile as the final NDJSON response line:
// {"profile":{"operators":[...],...,"phases":{...}}}. Nil (nothing to write)
// when there is no profile: profiling off, or a request whose final
// statement is not a query.
func profileTrailer(st queryStats) []byte {
	if st.prof == nil {
		return nil
	}
	type profile struct {
		*hyracks.JobProfile
		Phases asterixdb.Phases `json:"phases"`
	}
	b, err := json.Marshal(struct {
		Profile profile `json:"profile"`
	}{profile{st.prof, st.phases}})
	if err != nil {
		return nil
	}
	return append(b, '\n')
}

// queryAsynchronous registers a handle and runs the query in the background;
// the client polls /query/status and fetches /query/result. The background
// execution deliberately detaches from the request context — the whole point
// of the mode is that the client disconnects while the query runs.
func (s *Server) queryAsynchronous(w http.ResponseWriter, r *http.Request, src string) {
	wantProfile := profileRequested(r)
	h := s.handles.create("asynchronous")
	s.async.Add(1)
	s.metrics.active.Inc()
	start := time.Now()
	go func() {
		defer s.async.Done()
		defer s.metrics.active.Dec()
		run, count, st, err := s.spoolResult(context.Background(), src, wantProfile)
		var trailer []byte
		if wantProfile {
			trailer = profileTrailer(st)
		}
		h.finish(run, count, trailer, err)
		s.finishQuery("asynchronous", src, start, st, err)
	}()
	writeJSONStatus(w, http.StatusAccepted, map[string]any{"handle": h.id, "status": statusRunning})
}

// queryDeferred runs the query to completion, stores the result under a
// handle, and returns the handle; the client fetches the result exactly once.
func (s *Server) queryDeferred(w http.ResponseWriter, r *http.Request, src string) {
	wantProfile := profileRequested(r)
	start := time.Now()
	s.metrics.active.Inc()
	defer s.metrics.active.Dec()
	run, count, st, err := s.spoolResult(r.Context(), src, wantProfile)
	s.finishQuery("deferred", src, start, st, err)
	if err != nil {
		writeError(w, err)
		return
	}
	h := s.handles.create("deferred")
	var trailer []byte
	if wantProfile {
		trailer = profileTrailer(st)
	}
	h.finish(run, count, trailer, nil)
	writeJSON(w, map[string]any{"handle": h.id, "status": statusSuccess})
}

// spoolResult executes the statement and streams its result values into a
// fresh handle spill run, one single-column tuple per value, so an arbitrary
// result size costs one run-writer buffer of memory rather than the whole
// materialized value slice. A failure anywhere (including mid-stream, after
// rows were already spooled) aborts the run and reports the error. The
// returned stats carry a profile when profiling was on and the query
// compiled to a job.
func (s *Server) spoolResult(ctx context.Context, src string, wantProfile bool) (*runfile.Run, int, queryStats, error) {
	cur, err := s.inst.QueryStream(s.queryContext(ctx, wantProfile), src)
	if err != nil {
		return nil, 0, queryStats{}, err
	}
	defer cur.Close()
	w, err := s.spill.NewRun()
	if err != nil {
		return nil, 0, queryStats{}, err
	}
	count := 0
	for cur.Next() {
		if err := w.Write([]adm.Value{cur.Value()}); err != nil {
			w.Abort()
			cur.Close()
			return nil, 0, statsOf(cur), err
		}
		count++
	}
	if err := cur.Err(); err != nil {
		w.Abort()
		return nil, 0, statsOf(cur), err
	}
	run, err := w.Finish()
	if err != nil {
		return nil, 0, statsOf(cur), err
	}
	return run, count, statsOf(cur), nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	h, ok := s.handles.get(r.URL.Query().Get("handle"))
	if !ok {
		writeError(w, &asterixdb.Error{Code: asterixdb.CodeNotFound, Message: "unknown or expired handle"})
		return
	}
	status, _, _, err := h.snapshot()
	body := map[string]any{"handle": h.id, "status": status}
	if err != nil {
		body["error"] = errorBody(err)
	}
	writeJSON(w, body)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("handle")
	// take is atomic: of two concurrent fetches, exactly one gets the
	// finished handle (taken=true); the other sees not-found.
	h, ok, taken := s.handles.take(id)
	if !ok {
		writeError(w, &asterixdb.Error{Code: asterixdb.CodeNotFound, Message: "unknown or expired handle"})
		return
	}
	if !taken {
		writeJSONStatus(w, http.StatusConflict, map[string]any{"handle": h.id, "status": statusRunning,
			"error": map[string]any{"code": "running", "message": "query still running; poll /query/status"}})
		return
	}
	// The handle is ours now; its result run is released when we're done.
	defer h.discard()
	status, run, _, err := h.snapshot()
	if status == statusFailed {
		writeError(w, err)
		return
	}
	next := func() (adm.Value, bool, error) { return nil, false, nil }
	if run != nil {
		rd, err := run.Open()
		if err != nil {
			writeError(w, err)
			return
		}
		defer rd.Close()
		// Every tuple in a handle run is the one-column tuple spoolResult wrote.
		next = func() (adm.Value, bool, error) {
			cols, err := rd.Next()
			if err == io.EOF {
				return nil, false, nil
			}
			if err != nil {
				return nil, false, err
			}
			return cols[0], true, nil
		}
	}
	writeNDJSON(w, next, h.trailer)
}

func (s *Server) handleDDL(w http.ResponseWriter, r *http.Request) {
	src, err := s.readBody(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if _, err := s.inst.ExecuteContext(r.Context(), src); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"status": "success"})
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	src, err := s.readBody(r)
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := s.inst.ExecuteContext(r.Context(), src)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, map[string]any{"status": "success", "kind": res.Kind, "count": res.Count})
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	src, err := s.readBody(r)
	if err != nil {
		writeError(w, err)
		return
	}
	plan, err := s.inst.Explain(src)
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, plan)
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if hc, ok := s.inst.(HealthChecker); ok {
		if err := hc.Health(); err != nil {
			writeJSONStatus(w, http.StatusServiceUnavailable,
				map[string]any{"status": "unavailable", "error": errorBody(err)})
			return
		}
	}
	writeJSON(w, map[string]any{"status": "ok"})
}

// ----------------------------------------------------------------------------
// Wire helpers
// ----------------------------------------------------------------------------

func (s *Server) readBody(r *http.Request) (string, error) {
	defer r.Body.Close()
	b, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil {
		return "", &asterixdb.Error{Code: asterixdb.CodeInvalid, Message: "reading request body: " + err.Error()}
	}
	if len(b) > maxBodyBytes {
		return "", &asterixdb.Error{Code: asterixdb.CodeInvalid,
			Message: fmt.Sprintf("statement body exceeds %d bytes", maxBodyBytes)}
	}
	return string(b), nil
}

// resultBufs holds writeNDJSON's buffers between requests.
var resultBufs = sync.Pool{New: func() any { return new([]byte) }}

// writeNDJSON is the one result-row writer behind every query mode. It
// renders each value next yields as an NDJSON line into one buffer and hands
// the buffer to w each time it passes writeChunk bytes, so a long result
// streams in 64 KiB writes and a shorter one goes out as one response with a
// Content-Length. Nothing is committed before the first write: a failure
// reported by next before it is the error's status code and JSON body, and
// one after it ends the stream with a trailing {"error":{...}} line. A clean
// end appends trailer's bytes (a complete NDJSON line, or nil) when trailer
// is non-nil.
func writeNDJSON(w http.ResponseWriter, next func() (adm.Value, bool, error), trailer func() []byte) {
	bp := resultBufs.Get().(*[]byte)
	buf, wrote := (*bp)[:0], false
	defer func() {
		if cap(buf) <= 2*writeChunk { // a buffer one huge row grew is dropped
			*bp = buf[:0]
			resultBufs.Put(bp)
		}
	}()
	w.Header().Set("Content-Type", "application/x-ndjson")
	for {
		v, ok, err := next()
		if err != nil && !wrote {
			writeError(w, err)
			return
		}
		if err != nil {
			buf = append(appendErrorJSON(append(buf, `{"error":`...), err), '}', '\n')
			break
		}
		if !ok {
			if trailer != nil {
				buf = append(buf, trailer()...)
			}
			break
		}
		if buf = append(adm.AppendJSON(buf, v), '\n'); len(buf) >= writeChunk {
			if _, err := w.Write(buf); err != nil {
				return
			}
			buf, wrote = buf[:0], true
		}
	}
	if !wrote {
		w.Header().Set("Content-Length", strconv.Itoa(len(buf)))
	}
	w.Write(buf)
}

// isContextEnd reports whether the error is the request context ending —
// the client cancelled or its deadline expired — which deserves no error
// payload of its own.
func isContextEnd(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func statusFor(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusGatewayTimeout
	}
	switch asterixdb.ErrorCode(err) {
	case asterixdb.CodeNotFound:
		return http.StatusNotFound
	case asterixdb.CodeExists:
		return http.StatusConflict
	case asterixdb.CodeSyntax, asterixdb.CodeInvalid:
		return http.StatusBadRequest
	case asterixdb.CodeUnavailable:
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func errorBody(err error) map[string]any {
	return map[string]any{"code": asterixdb.ErrorCode(err), "message": err.Error()}
}

func appendErrorJSON(dst []byte, err error) []byte {
	rec := adm.NewRecord(
		adm.Field{Name: "code", Value: adm.String(asterixdb.ErrorCode(err))},
		adm.Field{Name: "message", Value: adm.String(err.Error())},
	)
	return adm.AppendJSON(dst, rec)
}

func writeError(w http.ResponseWriter, err error) {
	writeJSONStatus(w, statusFor(err), map[string]any{"error": errorBody(err)})
}

// writeJSONStatus sets the Content-Type before the status line goes out
// (headers written after WriteHeader are silently dropped).
func writeJSONStatus(w http.ResponseWriter, status int, body map[string]any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	writeJSON(w, body)
}

func writeJSON(w http.ResponseWriter, body map[string]any) {
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	b, err := json.Marshal(body)
	if err != nil {
		b = []byte(`{"error":{"code":"internal","message":"encoding response"}}`)
	}
	b = append(b, '\n')
	w.Write(b)
}
