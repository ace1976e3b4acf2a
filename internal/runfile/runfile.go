// Package runfile is the out-of-core substrate of the query runtime: a
// per-job memory budget manager plus a spill/reload run-file abstraction.
//
// A Manager owns one job's spill state: the temp directory its run files live
// in, the job-wide memory accounting (current and peak resident bytes across
// every budgeted operator instance), and the registry of live files. Closing
// the manager — which the Hyracks runtime does after the last operator
// instance of the job exits, on every termination path (success, operator
// error, early cursor close, context cancellation) — removes every file that
// is still on disk, so run files can never outlive their job.
//
// A Budget is one blocking operator's share of the job budget (the translator
// divides Config.MemoryBudget evenly among the instances of the job's
// spillable blocking operators); each operator instance opens an Instance
// accountant against it and consults Fits before buffering a tuple, spilling
// to a run file when the answer is no. "No limit" is decided here and nowhere
// else: an Instance opened on a nil Budget, or on one whose PerInstance is
// zero, accounts like any other and always fits.
//
// Run files hold serialized tuples ([]adm.Value rows, the runtime's Tuple
// layout) with buffered sequential I/O: a Writer appends length-prefixed
// frames, Finish seals the file into a Run, and a Run can be opened for
// sequential re-reading any number of times (the block-nested-loop join
// fallback re-reads its probe run once per build chunk).
package runfile

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"unsafe"

	"asterixdb/internal/adm"
)

// Manager is one job's spill state: budget accounting, the job-private temp
// directory, and the registry of live run files. All methods are safe for
// concurrent use by the job's operator instances.
type Manager struct {
	baseDir string
	limit   int64

	// used and peak are the job's resident bytes; atomics, because every
	// operator instance charges them once per buffered tuple.
	used atomic.Int64
	peak atomic.Int64
	// opened counts read passes over the job's runs.
	opened atomic.Int64

	mu       sync.Mutex
	dir      string // lazily created job-private subdirectory of baseDir
	seq      int
	writers  map[*Writer]struct{} // created with the first run file
	runs     map[*Run]struct{}
	runsMade int
	tuples   int64
	bytes    int64
	closed   bool
}

// Stats is a snapshot of a manager's spill activity. The JSON field names
// are part of the profile=true output shape.
type Stats struct {
	// RunsCreated counts every run file the job created (including
	// intermediate merge and repartition runs).
	RunsCreated int `json:"runsCreated"`
	// RunsOpened counts read passes over run files: the price of multi-pass
	// algorithms (the block nested-loop fallback re-reads its probe run once
	// per build chunk).
	RunsOpened int64 `json:"runsOpened"`
	// TuplesSpilled and BytesSpilled total the tuples and file bytes written
	// to run files.
	TuplesSpilled int64 `json:"tuplesSpilled"`
	BytesSpilled  int64 `json:"bytesSpilled"`
	// PeakResident is the high-water mark of budget-accounted resident bytes
	// across all operator instances of the job.
	PeakResident int64 `json:"peakResidentBytes"`
	// LiveRuns is the number of run files currently on disk.
	LiveRuns int `json:"liveRuns"`
}

// NewManager creates a spill manager for one job. Run files are created in a
// job-private subdirectory of baseDir (created lazily on first spill; an
// empty baseDir falls back to os.TempDir()). limit is the job's total memory
// budget in bytes; zero means unconstrained.
func NewManager(baseDir string, limit int64) *Manager {
	if baseDir == "" {
		baseDir = os.TempDir()
	}
	return &Manager{baseDir: baseDir, limit: limit}
}

// Limit returns the job's total memory budget in bytes.
func (m *Manager) Limit() int64 { return m.limit }

// Stats returns a snapshot of the manager's spill counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		RunsCreated:   m.runsMade,
		RunsOpened:    m.opened.Load(),
		TuplesSpilled: m.tuples,
		BytesSpilled:  m.bytes,
		PeakResident:  m.peak.Load(),
		LiveRuns:      len(m.runs) + len(m.writers),
	}
}

// NewRun creates a fresh run file and returns its writer.
func (m *Manager) NewRun() (*Writer, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dir == "" {
		if err := os.MkdirAll(m.baseDir, 0o755); err != nil {
			return nil, fmt.Errorf("runfile: create spill dir: %w", err)
		}
		dir, err := os.MkdirTemp(m.baseDir, "job-")
		if err != nil {
			return nil, fmt.Errorf("runfile: create job spill dir: %w", err)
		}
		m.dir = dir
		m.writers = map[*Writer]struct{}{}
		m.runs = map[*Run]struct{}{}
	}
	m.seq++
	path := filepath.Join(m.dir, fmt.Sprintf("run-%06d.tmp", m.seq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("runfile: create run file: %w", err)
	}
	m.runsMade++
	globalRuns.Add(1)
	globalLiveRuns.Add(1)
	w := &Writer{m: m, f: f, bw: bufio.NewWriterSize(f, runBufSize), path: path}
	m.writers[w] = struct{}{}
	return w, nil
}

// Close removes every run file still on disk (closing any unfinished
// writers) and deletes the job's spill directory. It is called by the
// runtime after the job's last operator instance has exited, so it is the
// backstop that guarantees zero leaked files on every termination path;
// operators that clean up behind themselves make it a no-op.
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	var first error
	for w := range m.writers {
		w.f.Close()
		if err := os.Remove(w.path); err != nil && first == nil {
			first = err
		}
	}
	globalLiveRuns.Add(-int64(len(m.writers) + len(m.runs)))
	m.writers = nil
	for r := range m.runs {
		r.released = true
		if err := os.Remove(r.path); err != nil && first == nil {
			first = err
		}
	}
	m.runs = nil
	// Any resident bytes the job's instances never released die with the
	// job; fold them out of the process-wide gauge too.
	globalUsed.Add(-m.used.Swap(0))
	if m.dir != "" {
		if err := os.Remove(m.dir); err != nil && first == nil {
			first = err
		}
		m.dir = ""
	}
	return first
}

// add accounts n resident bytes (negative to release them).
func (m *Manager) add(n int64) {
	atomicMax(&m.peak, m.used.Add(n))
	atomicMax(&globalPeak, globalUsed.Add(n))
}

// ----------------------------------------------------------------------------
// Budget accounting
// ----------------------------------------------------------------------------

// Budget is one blocking operator's share of the job's memory budget. The
// translator attaches one to every blocking operator of every job; operators
// reach it only through the Instance that NewInstance opens.
type Budget struct {
	// M is the job's spill manager (run-file factory and global accounting).
	M *Manager
	// PerInstance is the resident-byte allowance of each operator instance;
	// zero means unlimited.
	PerInstance int64
	// Obs, when non-nil, accumulates the owning operator's spill activity
	// across all of its instances for job profiling.
	Obs *SpillObserver
}

// NewInstance opens a per-operator-instance accountant against the budget. A
// nil budget (an operator built by hand, outside the translator) is an
// unlimited one charged to a manager of its own: its instances never spill,
// so that manager never creates a file.
func (b *Budget) NewInstance() *Instance {
	if b == nil {
		b = &Budget{M: &Manager{}}
	}
	return &Instance{b: b}
}

// SpillObserver accumulates one operator's spill activity across its
// instances. Counters are atomics because an operator's instances run
// concurrently, one per partition.
type SpillObserver struct {
	runs   atomic.Int64
	tuples atomic.Int64
	bytes  atomic.Int64
	cur    atomic.Int64
	peak   atomic.Int64
}

// SpillStats is a snapshot of an observer. The JSON field names are part
// of the profile=true output shape.
type SpillStats struct {
	Runs          int64 `json:"runs"`
	SpilledTuples int64 `json:"spilledTuples"`
	SpilledBytes  int64 `json:"spilledBytes"`
	PeakBytes     int64 `json:"peakResidentBytes"`
}

// Snapshot returns the observer's current totals.
func (o *SpillObserver) Snapshot() SpillStats {
	return SpillStats{
		Runs:          o.runs.Load(),
		SpilledTuples: o.tuples.Load(),
		SpilledBytes:  o.bytes.Load(),
		PeakBytes:     o.peak.Load(),
	}
}

// Instance tracks one operator instance's resident bytes against its budget
// share. It is used by a single goroutine; only the roll-up into the manager
// and the observer is shared.
type Instance struct {
	b    *Budget
	used int64
}

// Limit returns the instance's resident-byte allowance, zero for unlimited.
func (in *Instance) Limit() int64 { return in.b.PerInstance }

// Fits reports whether n more resident bytes would stay within the
// instance's allowance. An unlimited instance always fits, and so does one
// holding nothing (operators must be able to buffer at least one tuple to
// make progress).
func (in *Instance) Fits(n int64) bool {
	return in.b.PerInstance <= 0 || in.used == 0 || in.used+n <= in.b.PerInstance
}

// Add accounts n resident bytes.
func (in *Instance) Add(n int64) {
	in.used += n
	in.b.M.add(n)
	if o := in.b.Obs; o != nil {
		atomicMax(&o.peak, o.cur.Add(n))
	}
}

// Release returns n resident bytes.
func (in *Instance) Release(n int64) { in.Add(-n) }

// Used returns the instance's current resident bytes.
func (in *Instance) Used() int64 { return in.used }

// Close releases whatever the instance still holds.
func (in *Instance) Close() { in.Release(in.used) }

// NewRun creates a run file attributed to the instance's operator: the
// writer's totals roll into both the manager and the budget's observer.
// Operators spill through this method (not the manager's NewRun) so
// per-operator profiles see their run files.
func (in *Instance) NewRun() (*Writer, error) {
	w, err := in.b.M.NewRun()
	if err != nil {
		return nil, err
	}
	if o := in.b.Obs; o != nil {
		o.runs.Add(1)
		w.obs = o
	}
	return w, nil
}

// ----------------------------------------------------------------------------
// Run files
// ----------------------------------------------------------------------------

// runBufSize is the buffered-I/O size for run writers and readers. Small
// enough that a capped merge fan-in keeps I/O buffers a modest constant.
const runBufSize = 16 << 10

// Writer appends serialized tuples to a run file.
type Writer struct {
	m       *Manager
	obs     *SpillObserver // owning operator's profile accumulator, may be nil
	f       *os.File
	bw      *bufio.Writer
	path    string
	tuples  int
	fileB   int64
	memB    int64
	scratch []byte
}

// Write appends one tuple. Columns may be nil (unbound synthetic columns).
func (w *Writer) Write(cols []adm.Value) error {
	buf, err := adm.AppendTuple(w.scratch[:0], cols)
	if err != nil {
		return fmt.Errorf("runfile: encode tuple: %w", err)
	}
	w.scratch = buf
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(buf)))
	if _, err := w.bw.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := w.bw.Write(buf); err != nil {
		return err
	}
	w.tuples++
	w.fileB += int64(n + len(buf))
	w.memB += TupleMemSize(cols)
	return nil
}

// Tuples returns the number of tuples written so far.
func (w *Writer) Tuples() int { return w.tuples }

// MemBytes returns the estimated in-memory size of the tuples written so
// far — what reloading the whole run would cost against a budget.
func (w *Writer) MemBytes() int64 { return w.memB }

// Finish flushes and seals the file, returning the readable Run.
func (w *Writer) Finish() (*Run, error) {
	if err := w.bw.Flush(); err != nil {
		w.Abort()
		return nil, err
	}
	if err := w.f.Close(); err != nil {
		w.Abort()
		return nil, err
	}
	r := &Run{m: w.m, path: w.path, tuples: w.tuples, memB: w.memB}
	globalTuples.Add(int64(w.tuples))
	globalBytes.Add(w.fileB)
	if w.obs != nil {
		w.obs.tuples.Add(int64(w.tuples))
		w.obs.bytes.Add(w.fileB)
	}
	w.m.mu.Lock()
	delete(w.m.writers, w)
	w.m.tuples += int64(w.tuples)
	w.m.bytes += w.fileB
	if w.m.closed {
		// The job is already tearing down; don't resurrect the file.
		os.Remove(w.path)
		w.m.mu.Unlock()
		globalLiveRuns.Add(-1)
		r.released = true
		return r, nil
	}
	w.m.runs[r] = struct{}{}
	w.m.mu.Unlock()
	return r, nil
}

// Abort discards an unfinished run.
func (w *Writer) Abort() {
	w.f.Close()
	w.m.mu.Lock()
	delete(w.m.writers, w)
	w.m.mu.Unlock()
	globalLiveRuns.Add(-1)
	os.Remove(w.path)
}

// Run is a sealed, re-openable run file.
type Run struct {
	m        *Manager
	path     string
	tuples   int
	memB     int64
	released bool
}

// Tuples returns the number of tuples in the run.
func (r *Run) Tuples() int { return r.tuples }

// MemBytes returns the estimated in-memory size of the run's tuples.
func (r *Run) MemBytes() int64 { return r.memB }

// Open starts a sequential read of the run from the beginning.
func (r *Run) Open() (*Reader, error) {
	return r.OpenSized(runBufSize)
}

// OpenSized starts a sequential read with an explicit buffer size. A k-way
// merge holding many readers open at once uses this to shrink each reader's
// buffer so the whole fan-in stays inside the operator's budget share;
// bufio clamps sizes below its minimum (16 bytes) up, so any positive value
// is safe.
func (r *Run) OpenSized(bufSize int) (*Reader, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return nil, fmt.Errorf("runfile: open run: %w", err)
	}
	r.m.opened.Add(1)
	globalOpened.Add(1)
	return &Reader{f: f, br: bufio.NewReaderSize(f, bufSize)}, nil
}

// Release deletes the run file. Idempotent; open readers on POSIX systems
// keep working until closed.
func (r *Run) Release() {
	if r == nil || r.released {
		return
	}
	r.released = true
	r.m.mu.Lock()
	delete(r.m.runs, r)
	r.m.mu.Unlock()
	globalLiveRuns.Add(-1)
	os.Remove(r.path)
}

// Reader reads a run sequentially.
type Reader struct {
	f   *os.File
	br  *bufio.Reader
	buf []byte
}

// Next returns the next tuple, or io.EOF at the end of the run.
func (r *Reader) Next() ([]adm.Value, error) {
	sz, err := binary.ReadUvarint(r.br)
	if err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("runfile: read frame header: %w", err)
	}
	if uint64(cap(r.buf)) < sz {
		r.buf = make([]byte, sz)
	}
	buf := r.buf[:sz]
	if _, err := io.ReadFull(r.br, buf); err != nil {
		return nil, fmt.Errorf("runfile: read frame: %w", err)
	}
	cols, n, err := adm.DecodeTuple(buf)
	if err != nil {
		return nil, fmt.Errorf("runfile: %w", err)
	}
	if n != len(buf) {
		return nil, fmt.Errorf("runfile: tuple frame has %d trailing bytes", len(buf)-n)
	}
	return cols, nil
}

// Close closes the reader.
func (r *Reader) Close() error { return r.f.Close() }

// ----------------------------------------------------------------------------
// Process-wide accounting
// ----------------------------------------------------------------------------

// The package-level counters aggregate every manager in the process so a
// /metrics endpoint can report spill pressure without enumerating jobs.
var (
	globalUsed     atomic.Int64
	globalPeak     atomic.Int64
	globalLiveRuns atomic.Int64
	globalRuns     atomic.Int64
	globalOpened   atomic.Int64
	globalTuples   atomic.Int64
	globalBytes    atomic.Int64
)

// GlobalStats is a process-wide snapshot across all managers, live and
// closed.
type GlobalStats struct {
	// UsedBytes and PeakBytes are the current and high-water budget-accounted
	// resident bytes.
	UsedBytes int64
	PeakBytes int64
	// LiveRuns is the number of run files currently on disk.
	LiveRuns int64
	// RunsCreated, RunsOpened, TuplesSpilled, and BytesSpilled are lifetime
	// totals.
	RunsCreated   int64
	RunsOpened    int64
	TuplesSpilled int64
	BytesSpilled  int64
}

// Global returns the process-wide spill counters.
func Global() GlobalStats {
	return GlobalStats{
		UsedBytes:     globalUsed.Load(),
		PeakBytes:     globalPeak.Load(),
		LiveRuns:      globalLiveRuns.Load(),
		RunsCreated:   globalRuns.Load(),
		RunsOpened:    globalOpened.Load(),
		TuplesSpilled: globalTuples.Load(),
		BytesSpilled:  globalBytes.Load(),
	}
}

// atomicMax lifts addr to at least v.
func atomicMax(addr *atomic.Int64, v int64) {
	for {
		old := addr.Load()
		if v <= old || addr.CompareAndSwap(old, v) {
			return
		}
	}
}

// ----------------------------------------------------------------------------
// Memory estimation
// ----------------------------------------------------------------------------

// TupleMemSize estimates the resident in-memory bytes of one tuple: slice
// header plus per-column interface headers and value payloads. It is the
// unit of budget accounting; a cheap walk, not an exact measurement.
func TupleMemSize(cols []adm.Value) int64 {
	sz := int64(24 + 16*len(cols))
	for _, c := range cols {
		if c != nil {
			sz += ValueMemSize(c)
		}
	}
	return sz
}

// lazyHeaderSize is the size of a lazy record's header.
const lazyHeaderSize = int64(unsafe.Sizeof(adm.LazyRecord{}))

// ValueMemSize estimates the resident in-memory bytes of one ADM value.
func ValueMemSize(v adm.Value) int64 {
	switch x := v.(type) {
	case adm.String:
		return 16 + int64(len(x))
	case adm.Binary:
		return 24 + int64(len(x))
	case *adm.Record:
		sz := int64(48)
		for _, f := range x.Fields {
			sz += 32 + int64(len(f.Name))
			if f.Value != nil {
				sz += ValueMemSize(f.Value)
			}
		}
		return sz
	case *adm.LazyRecord:
		// An undecoded lazy record is its header and the byte slab it
		// views; once materialized it costs its header and the record.
		if rec, slab := x.Resident(); rec == nil {
			return lazyHeaderSize + int64(slab)
		} else {
			return lazyHeaderSize + ValueMemSize(rec)
		}
	case *adm.OrderedList:
		return listMemSize(x.Items)
	case *adm.UnorderedList:
		return listMemSize(x.Items)
	case adm.Polygon:
		return 24 + 16*int64(len(x.Points))
	default:
		return 16
	}
}

func listMemSize(items []adm.Value) int64 {
	sz := int64(48 + 16*len(items))
	for _, it := range items {
		if it != nil {
			sz += ValueMemSize(it)
		}
	}
	return sz
}
