package hyracks

import (
	"sort"
	"sync"
	"time"

	"asterixdb/internal/runfile"
)

// This file is the job-profiling layer: when Job.Profile is set,
// executeStream gives every operator instance an instProf counter block
// and collects the results into a JobProfile exposed on the cursor once
// the job has finished. The disabled path costs one nil pointer per
// frame refill and per frame send — nothing per tuple — so the zero-copy
// scan hot path is unaffected (the readpath CI guard enforces this).

// OperatorStats is the executed-plan annotation for one operator
// instance — or, inside a fused chain, one component stage of it. Fused
// and unfused runs of the same plan produce rows with the same Name
// values, so profiles are comparable across execution shapes; rows from
// distributed runs additionally carry the producing node's name.
type OperatorStats struct {
	// Op is the operator's index in the executed (post-fusion) job.
	Op int `json:"op"`
	// Stage is the component's position inside a fused chain, or -1 for
	// an operator that ran unfused.
	Stage int `json:"stage"`
	// Name is the operator's plan label (e.g. "datasource-scan(D)").
	Name      string `json:"name"`
	Partition int    `json:"partition"`
	Node      string `json:"node,omitempty"`
	TuplesIn  int64  `json:"tuplesIn"`
	TuplesOut int64  `json:"tuplesOut"`
	FramesIn  int64  `json:"framesIn"`
	FramesOut int64  `json:"framesOut"`
	// WallNanos is the wall time the instance spent in Run. Components of
	// a fused chain run interleaved in one goroutine, so each component
	// row of a chain reports the whole chain's wall time.
	WallNanos int64 `json:"wallNanos"`
	// FirstOutNanos is when the instance emitted its first tuple,
	// relative to Run start — a proxy for the blocking phase of sorts,
	// joins, and aggregates (zero when nothing was emitted).
	FirstOutNanos int64 `json:"firstOutNanos"`
}

// OperatorSpill is the spill activity of one blocking operator, summed
// over its instances: run files created, tuples/bytes written to them,
// and the high-water mark of budget-accounted resident bytes.
type OperatorSpill struct {
	Op   int    `json:"op"`
	Name string `json:"name"`
	Node string `json:"node,omitempty"`
	runfile.SpillStats
}

// JobProfile is the executed-plan profile of one job run. In a
// distributed run each node produces one JobProfile and the controller
// merges them with MergeProfiles.
type JobProfile struct {
	// Operators holds one row per operator instance (per fused-chain
	// component), ordered by (Op, Stage, Partition, Node).
	Operators []OperatorStats `json:"operators"`
	// Spill holds one row per blocking operator that accounts its memory
	// against a budget share (all of them, in a translator-built job),
	// whether or not the budget is finite.
	Spill []OperatorSpill `json:"operatorSpill,omitempty"`
	// JobSpill is the job-wide spill/budget accounting (nil for a job
	// without blocking operators).
	JobSpill *runfile.Stats `json:"jobSpill,omitempty"`
}

// OutByName sums TuplesOut over partitions, stages, and nodes, keyed by
// operator name. It is the comparison form: fused vs unfused and
// single-process vs distributed runs of one plan agree on it.
func (p *JobProfile) OutByName() map[string]int64 {
	out := make(map[string]int64, len(p.Operators))
	for _, r := range p.Operators {
		out[r.Name] += r.TuplesOut
	}
	return out
}

// InByName sums TuplesIn over partitions, stages, and nodes by name.
func (p *JobProfile) InByName() map[string]int64 {
	in := make(map[string]int64, len(p.Operators))
	for _, r := range p.Operators {
		in[r.Name] += r.TuplesIn
	}
	return in
}

// SetNode stamps every row with the producing node's name; an NC calls
// it before shipping its profile to the controller.
func (p *JobProfile) SetNode(node string) {
	for i := range p.Operators {
		p.Operators[i].Node = node
	}
	for i := range p.Spill {
		p.Spill[i].Node = node
	}
}

// MergeProfiles combines per-node profiles into one cluster-wide
// profile: operator and spill rows are concatenated (each already
// node-labeled) and re-sorted into canonical order, and the job-wide
// spill counters are summed — except PeakResident, which is the max
// across nodes since each node's peak is an independent high-water mark.
func MergeProfiles(parts []*JobProfile) *JobProfile {
	var merged *JobProfile
	for _, p := range parts {
		if p == nil {
			continue
		}
		if merged == nil {
			merged = &JobProfile{}
		}
		merged.Operators = append(merged.Operators, p.Operators...)
		merged.Spill = append(merged.Spill, p.Spill...)
		if p.JobSpill != nil {
			if merged.JobSpill == nil {
				merged.JobSpill = &runfile.Stats{}
			}
			merged.JobSpill.RunsCreated += p.JobSpill.RunsCreated
			merged.JobSpill.TuplesSpilled += p.JobSpill.TuplesSpilled
			merged.JobSpill.BytesSpilled += p.JobSpill.BytesSpilled
			merged.JobSpill.LiveRuns += p.JobSpill.LiveRuns
			if p.JobSpill.PeakResident > merged.JobSpill.PeakResident {
				merged.JobSpill.PeakResident = p.JobSpill.PeakResident
			}
		}
	}
	if merged == nil {
		return nil
	}
	sortOperatorStats(merged.Operators)
	sort.Slice(merged.Spill, func(i, j int) bool {
		a, b := merged.Spill[i], merged.Spill[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Node < b.Node
	})
	return merged
}

func sortOperatorStats(rows []OperatorStats) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Partition != b.Partition {
			return a.Partition < b.Partition
		}
		return a.Node < b.Node
	})
}

// SpillBudgeted is implemented by the operators that work inside a share of
// the job's memory budget and spill through it (sort, hybrid hash join, hash
// group-by). It and NeedsShare are the one place that knowledge lives: the
// translator hands every operator NeedsShare names its runfile.Budget, and
// the profile finalizer reads each one's SpillObserver back, neither naming
// an operator type.
type SpillBudgeted interface {
	SpillBudget() *runfile.Budget
	SetSpillBudget(*runfile.Budget)
}

// NeedsShare reports whether op should get a share of the job's memory
// budget: every SpillBudgeted operator but a scalar aggregate (a keyless
// HashGroupOp), whose one group is O(1) state.
func NeedsShare(op Operator) (SpillBudgeted, bool) {
	if g, ok := op.(*HashGroupOp); ok && len(g.KeyColumns) == 0 {
		return nil, false
	}
	sb, ok := op.(SpillBudgeted)
	return sb, ok
}

// SpillBudget implements SpillBudgeted.
func (o *SortOp) SpillBudget() *runfile.Budget { return o.Spill }

// SetSpillBudget implements SpillBudgeted.
func (o *SortOp) SetSpillBudget(b *runfile.Budget) { o.Spill = b }

// SpillBudget implements SpillBudgeted.
func (o *HybridHashJoinOp) SpillBudget() *runfile.Budget { return o.Spill }

// SetSpillBudget implements SpillBudgeted.
func (o *HybridHashJoinOp) SetSpillBudget(b *runfile.Budget) { o.Spill = b }

// SpillBudget implements SpillBudgeted.
func (o *HashGroupOp) SpillBudget() *runfile.Budget { return o.Spill }

// SetSpillBudget implements SpillBudgeted.
func (o *HashGroupOp) SetSpillBudget(b *runfile.Budget) { o.Spill = b }

// instProf is one operator instance's counter block. It is owned by the
// instance goroutine — plain fields, no atomics — and published to the
// job's collector exactly once, when the instance exits.
type instProf struct {
	start     time.Time
	tuplesIn  int64
	framesIn  int64
	tuplesOut int64
	framesOut int64
	firstOut  int64
	wall      int64
	// stages[i] counts component i's output when the instance is a fused
	// chain; nil otherwise.
	stages []int64
}

// profCollector accumulates finished instances' rows for one job run.
type profCollector struct {
	mu   sync.Mutex
	rows []OperatorStats
}

// add converts one finished instance's counters into profile rows. A
// fused chain expands into one row per component: component i's input is
// component i-1's output (the head's input is the instance's port
// input), edge frame counts attach to the chain's head and tail, and
// every component reports the chain's wall time.
func (pc *profCollector) add(opIdx, partition int, op Operator, ip *instProf) {
	if fused, ok := op.(*FusedOp); ok && ip.stages != nil {
		rows := make([]OperatorStats, len(fused.Ops))
		prevOut := ip.tuplesIn
		last := len(fused.Ops) - 1
		for i, comp := range fused.Ops {
			r := OperatorStats{
				Op:        opIdx,
				Stage:     i,
				Name:      comp.Name(),
				Partition: partition,
				TuplesIn:  prevOut,
				TuplesOut: ip.stages[i],
				WallNanos: ip.wall,
			}
			if i == 0 {
				r.FramesIn = ip.framesIn
			}
			if i == last {
				r.FramesOut = ip.framesOut
				r.FirstOutNanos = ip.firstOut
			}
			prevOut = ip.stages[i]
			rows[i] = r
		}
		pc.mu.Lock()
		pc.rows = append(pc.rows, rows...)
		pc.mu.Unlock()
		return
	}
	pc.mu.Lock()
	pc.rows = append(pc.rows, OperatorStats{
		Op:            opIdx,
		Stage:         -1,
		Name:          op.Name(),
		Partition:     partition,
		TuplesIn:      ip.tuplesIn,
		TuplesOut:     ip.tuplesOut,
		FramesIn:      ip.framesIn,
		FramesOut:     ip.framesOut,
		WallNanos:     ip.wall,
		FirstOutNanos: ip.firstOut,
	})
	pc.mu.Unlock()
}

// finalize assembles the JobProfile once every instance has exited and
// the spill manager is closed (so its counters are final).
func (pc *profCollector) finalize(job *Job) *JobProfile {
	pc.mu.Lock()
	rows := pc.rows
	pc.rows = nil
	pc.mu.Unlock()
	sortOperatorStats(rows)
	jp := &JobProfile{Operators: rows}
	for i, op := range job.Operators {
		stages := []Operator{op}
		if fused, ok := op.(*FusedOp); ok {
			stages = fused.Ops // a fused sort keeps its row under the chain's index
		}
		for _, st := range stages {
			sb, ok := st.(SpillBudgeted)
			if !ok {
				continue
			}
			b := sb.SpillBudget()
			if b == nil || b.Obs == nil {
				continue
			}
			jp.Spill = append(jp.Spill, OperatorSpill{Op: i, Name: st.Name(), SpillStats: b.Obs.Snapshot()})
		}
	}
	if job.Spill != nil {
		s := job.Spill.Stats()
		jp.JobSpill = &s
	}
	return jp
}
