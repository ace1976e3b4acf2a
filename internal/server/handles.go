package server

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"

	"asterixdb/internal/runfile"
)

// Result-handle states for asynchronous and deferred queries.
const (
	statusRunning = "running"
	statusSuccess = "success"
	statusFailed  = "failed"
)

// handle is one asynchronous or deferred query's server-side state: its
// lifecycle status and, once finished, either a spill-file run holding the
// serialized result or the error. Results are never materialized in memory —
// the executing query streams into the run file and /query/result streams it
// back out — so a handle's resident cost is independent of its result size.
type handle struct {
	id      string
	mode    string
	created time.Time

	mu        sync.Mutex
	status    string
	run       *runfile.Run
	count     int
	profile   []byte // pre-marshalled NDJSON profile trailer, or nil
	err       error
	discarded bool
}

// finish records the query's outcome. If the handle was discarded while the
// query was still running (TTL expiry, table shutdown), the arriving run is
// released immediately — nobody can fetch it anymore.
func (h *handle) finish(run *runfile.Run, count int, profile []byte, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err != nil {
		h.status, h.err = statusFailed, err
		return
	}
	h.status, h.run, h.count, h.profile = statusSuccess, run, count, profile
	if h.discarded && h.run != nil {
		h.run.Release()
		h.run = nil
	}
}

// snapshot returns the handle's current status, result run, tuple count and
// error.
func (h *handle) snapshot() (string, *runfile.Run, int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.status, h.run, h.count, h.err
}

// trailer returns the handle's profile trailer line, if the query was run
// with profiling.
func (h *handle) trailer() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.profile
}

// discard releases the handle's result run (if any) and marks the handle so
// a result that finishes later is released on arrival.
func (h *handle) discard() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.discarded = true
	if h.run != nil {
		h.run.Release()
		h.run = nil
	}
}

// handleTable stores result handles and evicts them when their TTL expires
// (measured from creation, refreshed on every access, so a client that keeps
// polling does not lose its handle). Fetching a result also evicts: results
// are delivered exactly once, as in the paper's deferred mode. Every eviction
// path discards the handle, releasing its result spill file.
type handleTable struct {
	ttl time.Duration
	now func() time.Time

	mu      sync.Mutex
	entries map[string]*handle
	touched map[string]time.Time

	// expired counts handles evicted by TTL before delivery (metrics).
	expired atomic.Int64

	stop    chan struct{}
	stopped sync.Once
}

// size reports the number of live handles in the table.
func (t *handleTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// expirations reports how many handles have been TTL-evicted undelivered.
func (t *handleTable) expirations() int64 { return t.expired.Load() }

func newHandleTable(ttl time.Duration, now func() time.Time) *handleTable {
	t := &handleTable{
		ttl:     ttl,
		now:     now,
		entries: map[string]*handle{},
		touched: map[string]time.Time{},
		stop:    make(chan struct{}),
	}
	go t.janitor()
	return t
}

// create registers a new handle in the running state.
func (t *handleTable) create(mode string) *handle {
	h := &handle{id: newHandleID(), mode: mode, created: t.now(), status: statusRunning}
	t.mu.Lock()
	t.entries[h.id] = h
	t.touched[h.id] = h.created
	t.mu.Unlock()
	return h
}

// get returns the handle and refreshes its TTL; expired handles are gone.
func (t *handleTable) get(id string) (*handle, bool) {
	t.mu.Lock()
	h, ok := t.entries[id]
	if !ok {
		t.mu.Unlock()
		return nil, false
	}
	if t.now().Sub(t.touched[id]) > t.ttl {
		delete(t.entries, id)
		delete(t.touched, id)
		t.expired.Add(1)
		t.mu.Unlock()
		h.discard()
		return nil, false
	}
	t.touched[id] = t.now()
	t.mu.Unlock()
	return h, true
}

// take atomically claims a finished handle for result delivery: when the
// handle exists and has finished, it is removed from the table and returned
// with taken=true, so of two concurrent fetches exactly one delivers. A
// still-running handle is returned un-evicted with taken=false; a missing or
// expired handle reports ok=false. The caller that takes a handle owns its
// result run and must discard the handle after serving it.
func (t *handleTable) take(id string) (h *handle, ok, taken bool) {
	t.mu.Lock()
	h, ok = t.entries[id]
	if !ok {
		t.mu.Unlock()
		return nil, false, false
	}
	if t.now().Sub(t.touched[id]) > t.ttl {
		delete(t.entries, id)
		delete(t.touched, id)
		t.expired.Add(1)
		t.mu.Unlock()
		h.discard()
		return nil, false, false
	}
	h.mu.Lock()
	finished := h.status != statusRunning
	h.mu.Unlock()
	if !finished {
		t.touched[id] = t.now()
		t.mu.Unlock()
		return h, true, false
	}
	delete(t.entries, id)
	delete(t.touched, id)
	t.mu.Unlock()
	return h, true, true
}

// sweep drops every expired handle; the janitor calls it periodically so
// abandoned handles do not pin their result spill files forever.
func (t *handleTable) sweep() {
	now := t.now()
	var dead []*handle
	t.mu.Lock()
	for id, at := range t.touched {
		if now.Sub(at) > t.ttl {
			dead = append(dead, t.entries[id])
			delete(t.entries, id)
			delete(t.touched, id)
			t.expired.Add(1)
		}
	}
	t.mu.Unlock()
	for _, h := range dead {
		h.discard()
	}
}

func (t *handleTable) janitor() {
	interval := t.ttl / 2
	if interval < time.Second {
		interval = time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			t.sweep()
		case <-t.stop:
			return
		}
	}
}

// close stops the janitor and discards every remaining handle.
func (t *handleTable) close() {
	t.stopped.Do(func() { close(t.stop) })
	t.mu.Lock()
	remaining := make([]*handle, 0, len(t.entries))
	for _, h := range t.entries {
		remaining = append(remaining, h)
	}
	t.entries = map[string]*handle{}
	t.touched = map[string]time.Time{}
	t.mu.Unlock()
	for _, h := range remaining {
		h.discard()
	}
}

func newHandleID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on supported platforms; a zero handle is
		// still functional (just predictable) if it somehow does.
		return "00000000000000000000000000000000"
	}
	return hex.EncodeToString(b[:])
}
