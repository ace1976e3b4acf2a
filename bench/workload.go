package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"asterixdb"
)

// workloadDef is one traffic mix. Every workload runs against its own
// asterixd child on a fresh data directory, closed loop: a client sends its
// next statement only when the previous one has been answered and checked.
type workloadDef struct {
	name string
	why  string
	// preload loads the messages during set-up; users are always loaded.
	preload   bool
	journaled bool
	// clients holds one round-robin class list per client connection. The
	// total never exceeds the sandbox's two cores.
	clients [][]string
	// reference is the class whose HTTP and in-process medians are compared
	// for server.http_overhead_us: the workload's cheapest statement, where
	// the server's own cost is the largest share.
	reference string
	// crash ends the run with SIGKILL and an in-process recovery that must
	// find every acknowledged record.
	crash bool
	// windows is how many of a timed run's setupsPerRun servers are measured,
	// each for an equal share of the run's seconds, the run reporting the
	// median. Two servers loaded with the same data differ by up to 8% while
	// slices of one window agree within 2% — background flushes cut the load
	// into components at different points — so a read-only workload measures
	// every server it sets up. A workload that writes needs its seconds in
	// one piece: flush, merge and checkpoint cycles take seconds, and cut
	// short they tripled the spread of its numbers.
	windows int
}

var workloads = []workloadDef{
	{
		name:      "lookup",
		why:       "short index-served statements: server, aql, algebra, translator and index probes dominate; operators, decode and WAL idle",
		preload:   true,
		windows:   setupsPerRun,
		reference: classSpatial,
		clients: [][]string{
			{classPK, classRange, classSpatial, classText},
			{classPK, classRange, classSpatial, classText},
		},
	},
	{
		name:      "analytics",
		why:       "scan-bound filter/group-by/join/top-k: storage scan, adm decode, expr and hyracks operators dominate; the front end is under 1%",
		preload:   true,
		windows:   setupsPerRun,
		reference: classFilter,
		// One query already runs on four partitions, hence one client.
		clients: [][]string{{classFilter, classGroupBy, classJoin, classTopK}},
	},
	{
		name:      "ingest",
		why:       "journaled 20-record inserts into an empty dataset, then SIGKILL and recovery: aql record literals, expr, storage, txn fsync, lsm flush/merge; reads idle",
		journaled: true,
		clients:   [][]string{{classInsert}, {classInsert}},
		crash:     true,
		windows:   1,
		reference: classInsert,
	},
	{
		name:      "mixed",
		why:       "one writer beside one range reader on the preloaded data: partition latch contention and flush/merge stealing from reads show only here",
		preload:   true,
		windows:   1,
		reference: classRange,
		clients:   [][]string{{classInsert}, {classRange}},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runConfig is what one run of one workload needs.
type runConfig struct {
	asterixd string // path of the built server binary
	tmp      string // directory under which data directories are created
	outDir   string // where the traced run writes its span files
	seed     int64
	window   time.Duration
	trace    bool
}

// setupsPerRun is how many servers a timed run sets up, one after the other;
// setup_s is the median over them.
const setupsPerRun = 3

// warmupShare is the part of a window's length run, unmeasured, before it.
const warmupShare = 5

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	samples int
}

// runResult is the outcome of one run of one workload.
type runResult struct {
	workload  string
	trace     bool
	attempted int
	failed    int
	errs      []error // the first few failures, for the log
	aborted   error   // why the run could not complete, if it could not
	metrics   map[string]metric
}

// failure records one failed operation; the caller counts it as attempted.
func (r *runResult) failure(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

// driven is what the closed-loop clients observed.
type driven struct {
	samples   []sample
	window    time.Duration
	acked     int   // records acknowledged by insert statements, warm-up included
	userBytes int64 // bytes of the record literals in those statements
}

// drive runs the clients for warm-up plus window and returns the statements
// completed inside the window. A statement that fails, returns a wrong result
// or times out is counted in res as a failed operation wherever it falls.
func drive(ctx context.Context, base string, d *data, clients [][]string, warm, window time.Duration, windowStart func(), res *runResult) driven {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: len(clients)}}
	defer hc.CloseIdleConnections()
	out := driven{window: window}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-time.After(warm):
			windowStart()
		case <-ctx.Done():
		}
	}()
	for i, classes := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st := d.newStream(i, len(clients))
			var buf bytes.Buffer
			var mine []sample
			acked, userBytes, attempted := 0, int64(0), 0
			for k := 0; ctx.Err() == nil && time.Since(start) < warm+window; k++ {
				s := st.next(classes[k%len(classes)])
				begin := time.Since(start)
				first, err := execute(ctx, hc, base, s, &buf)
				end := time.Since(start)
				if err != nil {
					attempted++
					mu.Lock()
					res.failure(err)
					mu.Unlock()
					continue
				}
				if s.class == classInsert {
					acked += s.want.rows
					userBytes += int64(s.userBytes)
				}
				if begin >= warm && end <= warm+window {
					attempted++
					mine = append(mine, sample{class: s.class, end: end - warm, lat: end - begin, first: first, rows: s.want.rows})
				}
			}
			mu.Lock()
			out.samples = append(out.samples, mine...)
			out.acked += acked
			out.userBytes += userBytes
			res.attempted += attempted
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// statementTimeout bounds one statement; a slower answer is a failure.
const statementTimeout = 30 * time.Second

// execute sends one statement and checks its answer against the oracle.
func execute(ctx context.Context, hc *http.Client, base string, s stmt, buf *bytes.Buffer) (first time.Duration, err error) {
	ctx, cancel := context.WithTimeout(ctx, statementTimeout)
	defer cancel()
	if s.class == classInsert {
		if first, err = post(ctx, hc, base+"/update", s.text, buf); err != nil {
			return first, fmt.Errorf("insert: %w", err)
		}
		if want := fmt.Sprintf(`"count":%d,`, s.want.rows); !bytes.Contains(buf.Bytes(), []byte(want)) {
			return first, fmt.Errorf("insert: answer %s lacks %s", bytes.TrimSpace(buf.Bytes()), want)
		}
		return first, nil
	}
	if first, err = post(ctx, hc, base+"/query", s.text, buf); err != nil {
		return first, fmt.Errorf("%s: %w", s.class, err)
	}
	return first, checkRows(s.class, buf.Bytes(), s.want)
}

// served is one server set up, loaded and ready for a window.
type served struct {
	c         *child
	setupS    float64 // process start to drained queue
	userBytes int64   // bytes of the record literals preloaded
}

// setUp starts a server on a fresh directory, runs the DDL, preloads and
// waits for the background queue to drain. setup_s covers process start to
// drained queue and excludes the go build and generating the statements.
func setUp(ctx context.Context, cfg runConfig, def workloadDef, ld load) (*served, error) {
	dir, err := os.MkdirTemp(cfg.tmp, def.name+"-*")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	c, err := startChild(ctx, cfg.asterixd, dir, def.journaled)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	sv := &served{c: c, userBytes: ld.userBytes}
	var buf bytes.Buffer
	_, err = post(ctx, http.DefaultClient, c.base+"/ddl", ddl, &buf)
	// Draining after every statement makes flushes fall at nearly the same
	// points of the load in every run.
	for i := 0; i < len(ld.stmts) && err == nil; i++ {
		if _, err = post(ctx, http.DefaultClient, c.base+"/update", ld.stmts[i], &buf); err == nil {
			err = c.drain(ctx)
		}
	}
	if err != nil {
		sv.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	sv.setupS = time.Since(start).Seconds()
	return sv, nil
}

// close kills the server, if it still runs, and removes its directory.
func (sv *served) close() {
	if sv.c.alive() {
		sv.c.kill()
	}
	os.RemoveAll(sv.c.dir)
}

// httpRun is everything one HTTP window measured, from outside the child.
type httpRun struct {
	driven
	rssMB     float64
	cpuS      float64 // child CPU seconds spent inside the window
	diskBytes int64   // data directory, less the WAL, after the queue drained
	userBytes int64   // preloaded plus acknowledged insert literals
	scrape    map[string]float64
	recovery  recovery // crash workloads only
}

// measure drives the workload's clients against a set-up server for one
// window and collects what can be seen from outside the process. A crash
// workload's server is dead when it returns.
func measure(ctx context.Context, sv *served, def workloadDef, d *data, window time.Duration, res *runResult) (*httpRun, error) {
	c := sv.c
	h := &httpRun{}

	warm := window / warmupShare
	var cpu0 float64
	h.driven = drive(ctx, c.base, d, def.clients, warm, window, func() { cpu0, _ = c.cpuSeconds() }, res)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if !c.alive() {
		return nil, fmt.Errorf("asterixd died during the window: %s", c.stderr.String())
	}
	cpu1, err := c.cpuSeconds()
	if err != nil {
		return nil, err
	}
	h.cpuS = cpu1 - cpu0
	if h.rssMB, err = c.procStatusMB("VmHWM"); err != nil {
		return nil, err
	}
	if h.scrape, err = c.scrape(ctx); err != nil {
		return nil, err
	}
	if err := c.drain(ctx); err != nil {
		return nil, err
	}
	if h.diskBytes, err = dataBytes(c.dir); err != nil {
		return nil, err
	}
	h.userBytes = sv.userBytes + h.driven.userBytes
	if def.crash {
		c.kill()
		res.attempted++
		if h.recovery, err = recoverDir(c.dir, def.journaled); err != nil {
			res.failure(fmt.Errorf("recovery after SIGKILL: %w", err))
		} else if h.recovery.messages != h.acked {
			res.failure(fmt.Errorf("recovery after SIGKILL found %d messages, %d were acknowledged", h.recovery.messages, h.acked))
		}
	}
	return h, nil
}

// recovery is what reopening a data directory in-process found and cost.
type recovery struct {
	openMS    float64 // Open plus the DDL that adopts the components on disk
	recoverMS float64
	replayed  int
	messages  int
}

// recoverDir does what a restart must do by hand today — asterixd neither
// persists DDL nor calls Recover — and counts the messages that survived.
func recoverDir(dir string, journaled bool) (recovery, error) {
	var r recovery
	start := time.Now()
	inst, err := asterixdb.Open(asterixdb.Config{DataDir: dir, Journaled: journaled})
	if err != nil {
		return r, fmt.Errorf("reopen: %w", err)
	}
	defer inst.Close()
	if _, err := inst.Execute(ddl); err != nil {
		return r, fmt.Errorf("reopen ddl: %w", err)
	}
	r.openMS = ms(time.Since(start))
	start = time.Now()
	if err := inst.Recover(); err != nil {
		return r, fmt.Errorf("recover: %w", err)
	}
	r.recoverMS = ms(time.Since(start))
	r.replayed = inst.Store().Stats().Recovery.Replayed
	ds, ok := inst.Dataset("MugshotMessages")
	if !ok {
		return r, errors.New("MugshotMessages missing after reopen")
	}
	r.messages, err = ds.Count()
	return r, err
}

// byClass splits samples per statement class.
func byClass(samples []sample) map[string][]sample {
	out := map[string][]sample{}
	for _, s := range samples {
		out[s.class] = append(out[s.class], s)
	}
	return out
}

// endToEnd derives the gated metrics of one window; setup_s is the run's.
func endToEnd(h *httpRun) map[string]metric {
	n := len(h.samples)
	rows := 0
	for _, s := range h.samples {
		rows += s.rows
	}
	var p50s, p90s []float64
	for _, cs := range byClass(h.samples) {
		p50s = append(p50s, latencyPercentile(cs, h.window, 0.50))
		p90s = append(p90s, latencyPercentile(cs, h.window, 0.90))
	}
	secs := h.window.Seconds()
	return map[string]metric{
		"ops_per_s":                {Value: float64(n) / secs, Unit: "1/s", samples: n},
		"rows_per_s":               {Value: float64(rows) / secs, Unit: "1/s", samples: n},
		"class_p50_gm_ms":          {Value: geomean(p50s), Unit: "ms", samples: n},
		"class_p90_gm_ms":          {Value: geomean(p90s), Unit: "ms", samples: n},
		"rss_bytes_per_user_byte":  {Value: h.rssMB * (1 << 20) / float64(h.userBytes), Unit: "ratio", samples: 1},
		"disk_bytes_per_user_byte": {Value: float64(h.diskBytes) / float64(h.userBytes), Unit: "ratio", samples: 1},
	}
}
