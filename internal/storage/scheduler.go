package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"asterixdb/internal/lsm"
)

// scheduler runs flushes, merges and WAL-size-triggered checkpoints on a
// per-Manager worker pool, so ingest latency is decoupled from component
// maintenance (the paper's background flush/merge threads). Flush work is
// deduplicated per tree; merges follow each flush and run their I/O outside
// the partition latch via lsm.MergePlan, concurrent with resumable
// iterators (whose mutation-sequence re-seek tolerates component churn).
type scheduler struct {
	m *Manager

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []schedTask
	queued map[*lsm.Tree]bool
	// ckptQueued dedups checkpoint requests while one is pending.
	ckptQueued bool
	closed     bool
	inflight   int

	wg sync.WaitGroup

	flushes     atomic.Uint64
	merges      atomic.Uint64
	checkpoints atomic.Uint64

	// firstErr records the first background failure; Manager.Close returns
	// it so background errors cannot vanish silently.
	errOnce  sync.Once
	firstErr error
}

type schedTaskKind int

const (
	taskFlush schedTaskKind = iota
	taskCheckpoint
)

type schedTask struct {
	kind schedTaskKind
	p    *partition
	tree *lsm.Tree
}

// flushWorkers is the background pool size.
const flushWorkers = 2

func newScheduler(m *Manager) *scheduler {
	s := &scheduler{m: m, queued: map[*lsm.Tree]bool{}}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < flushWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// requestFlush enqueues a flush (followed by a merge check) for one tree.
// Duplicate requests for a tree already queued are dropped; a tree being
// flushed right now is re-queued (it may have grown again).
func (s *scheduler) requestFlush(p *partition, tree *lsm.Tree) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.queued[tree] {
		return
	}
	s.queued[tree] = true
	s.queue = append(s.queue, schedTask{kind: taskFlush, p: p, tree: tree})
	s.cond.Signal()
}

// requestCheckpoint enqueues a WAL-size-triggered checkpoint, deduplicated
// while one is queued or running.
func (s *scheduler) requestCheckpoint() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.ckptQueued {
		return
	}
	s.ckptQueued = true
	s.queue = append(s.queue, schedTask{kind: taskCheckpoint})
	s.cond.Signal()
}

// queueStats reports queue depth and in-flight task count.
func (s *scheduler) queueStats() (depth, inflight int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue), s.inflight
}

func (s *scheduler) recordErr(err error) {
	if err == nil {
		return
	}
	s.errOnce.Do(func() { s.firstErr = err })
}

// close drains the scheduler: queued tasks still run, then the workers
// exit. It returns the first background error, if any.
func (s *scheduler) close() error {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		task := s.queue[0]
		s.queue = s.queue[1:]
		if task.kind == taskFlush {
			delete(s.queued, task.tree)
		}
		s.inflight++
		s.mu.Unlock()

		var err error
		switch task.kind {
		case taskFlush:
			err = s.runFlush(task)
		case taskCheckpoint:
			err = s.runCheckpoint()
		}
		s.recordErr(err)

		s.mu.Lock()
		s.inflight--
		s.mu.Unlock()
	}
}

// runFlush flushes one tree under its partition latch, then runs any merges
// the policy asks for, with the merge I/O outside the latch.
func (s *scheduler) runFlush(task schedTask) error {
	_, err := s.m.flushStamped(func(stamp uint64) error {
		task.p.mu.Lock()
		defer task.p.mu.Unlock()
		return task.p.flushLocked(s.m.wal, stamp, task.tree)
	})
	if err != nil {
		return fmt.Errorf("storage: background flush: %w", err)
	}
	s.flushes.Add(1)
	return s.runMerges(task.p, task.tree)
}

// runMerges repeatedly plans a merge under the latch, executes it outside
// (the inputs are immutable), and installs the result under the latch.
// Queries and the resumable iterators keep running against the partition
// throughout; only the plan and splice steps hold the latch.
func (s *scheduler) runMerges(p *partition, tree *lsm.Tree) error {
	for {
		p.mu.Lock()
		plan, err := tree.PlanMerge()
		p.mu.Unlock()
		if err != nil {
			return fmt.Errorf("storage: background merge plan: %w", err)
		}
		if plan == nil {
			return nil
		}
		if err := plan.Execute(); err != nil {
			p.mu.Lock()
			tree.AbortMerge(plan)
			p.mu.Unlock()
			return fmt.Errorf("storage: background merge: %w", err)
		}
		p.mu.Lock()
		err = tree.InstallMerge(plan)
		p.mu.Unlock()
		if err != nil {
			return fmt.Errorf("storage: background merge install: %w", err)
		}
		s.merges.Add(1)
	}
}

func (s *scheduler) runCheckpoint() error {
	defer func() {
		s.mu.Lock()
		s.ckptQueued = false
		s.mu.Unlock()
	}()
	if err := s.m.Checkpoint(); err != nil {
		return fmt.Errorf("storage: background checkpoint: %w", err)
	}
	s.checkpoints.Add(1)
	return nil
}

// backpressureLimit is the hard in-memory cap as a multiple of the flush
// budget: writers stall (bounded) once a tree is this far past its budget,
// giving the background flush a chance to catch up instead of letting the
// memtable grow without bound.
const backpressureLimit = 2

// backpressureWait is the poll interval while stalled; backpressureMax
// bounds the total stall so a wedged flush cannot hang writers forever.
const (
	backpressureWait = 2 * time.Millisecond
	backpressureMax  = 2 * time.Second
)

// waitForFlush blocks while tree's in-memory component is over the hard
// cap, up to backpressureMax. Called without any locks held.
func (s *scheduler) waitForFlush(p *partition, tree *lsm.Tree, hardCap int) {
	deadline := time.Now().Add(backpressureMax)
	for {
		p.mu.Lock()
		over := tree.MemBytes() >= hardCap
		p.mu.Unlock()
		if !over || time.Now().After(deadline) {
			return
		}
		s.mu.Lock()
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return
		}
		time.Sleep(backpressureWait)
	}
}
