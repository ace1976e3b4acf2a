package hyracks

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/runfile"
)

// These tests exercise the out-of-core operator paths directly, with a
// runfile.Manager the test owns, so they can assert the three acceptance
// properties: identical results to the unconstrained run, actual spilling
// with bounded in-memory tuple residency, and zero run files left on disk.

// padding makes each tuple ~120 bytes resident so small budgets force
// multi-round spilling at modest tuple counts.
var padding = adm.String("0123456789012345678901234567890123456789012345678901234567890123456789")

func intTuple(k, v int) Tuple {
	return Tuple{adm.Int64(int64(k)), adm.Int64(int64(v)), padding}
}

// runToSink executes the job and returns every sink tuple in deterministic
// (operator, partition) gather order.
func runToSink(t *testing.T, job *Job) []Tuple {
	t.Helper()
	out, err := Execute(job)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func encodeTuples(t *testing.T, tuples []Tuple) []string {
	t.Helper()
	out := make([]string, len(tuples))
	for i, tup := range tuples {
		var b []byte
		for _, c := range tup {
			b = adm.EncodeKey(b, c)
		}
		out[i] = string(b)
	}
	return out
}

func assertSameTuples(t *testing.T, name string, got, want []Tuple, ordered bool) {
	t.Helper()
	g, w := encodeTuples(t, got), encodeTuples(t, want)
	if !ordered {
		sort.Strings(g)
		sort.Strings(w)
	}
	if len(g) != len(w) {
		t.Fatalf("%s: got %d tuples, want %d", name, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: tuple %d differs", name, i)
		}
	}
}

// assertSpilledAndClean asserts the run actually spilled, stayed within the
// budget (plus one tuple of slack per instance: an instance must always be
// able to buffer the tuple in hand), and left nothing behind.
func assertSpilledAndClean(t *testing.T, mgr *runfile.Manager, budget int64, spillDir string) {
	t.Helper()
	st := mgr.Stats()
	if st.RunsCreated == 0 {
		t.Fatalf("expected spilling, but no runs were created (stats %+v)", st)
	}
	slack := int64(1024) // one oversized tuple of headroom per accounting step
	if st.PeakResident > budget+slack {
		t.Fatalf("peak resident %d bytes exceeds budget %d (+%d slack)", st.PeakResident, budget, slack)
	}
	if st.LiveRuns != 0 {
		t.Fatalf("%d run files still live after the job", st.LiveRuns)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	var leaked []string
	filepath.Walk(spillDir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			leaked = append(leaked, path)
		}
		return nil
	})
	if len(leaked) > 0 {
		t.Fatalf("leaked run files: %v", leaked)
	}
}

func sourceOf(tuples []Tuple) *SourceOp {
	return &SourceOp{
		Label:      "source",
		Partitions: 1,
		Produce: func(_ int, emit func(Tuple) bool) error {
			for _, t := range tuples {
				if !emit(t) {
					return nil
				}
			}
			return nil
		},
	}
}

func sinkJob(ops ...Operator) (*Job, []int) {
	job := &Job{}
	ids := make([]int, len(ops))
	for i, op := range ops {
		ids[i] = job.Add(op)
	}
	return job, ids
}

// TestExternalSortSpills sorts an input several times the budget and checks
// the output matches the in-memory sort exactly (same stable order).
func TestExternalSortSpills(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var input []Tuple
	for i := 0; i < 3000; i++ {
		input = append(input, intTuple(rng.Intn(200), i))
	}
	sortOp := func(spill *runfile.Budget) *SortOp {
		return &SortOp{Label: "sort", Partitions: 1, Columns: []int{0}, Spill: spill}
	}
	run := func(spill *runfile.Budget) []Tuple {
		job, ids := sinkJob(sourceOf(input), sortOp(spill))
		job.Connect(ids[0], ids[1], Connector{Kind: OneToOne})
		return runToSink(t, job)
	}
	want := run(nil)

	const budget = 16 << 10 // ~360KB of input against a 16KB budget
	dir := t.TempDir()
	mgr := runfile.NewManager(dir, budget)
	got := run(&runfile.Budget{M: mgr, PerInstance: budget})
	// The external sort must reproduce the stable in-memory order exactly:
	// equal keys (200 distinct keys over 3000 rows) stay in arrival order.
	assertSameTuples(t, "external-sort", got, want, true)
	assertSpilledAndClean(t, mgr, budget, dir)
	if st := mgr.Stats(); st.RunsCreated < 3 {
		t.Fatalf("expected multiple sorted runs, got %d", st.RunsCreated)
	}
}

// TestExternalSortManyRunsMultiPassMerge drives the run count past the merge
// fan-in cap so the multi-pass merge path runs, and checks order and
// stability survive it.
func TestExternalSortManyRunsMultiPassMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var input []Tuple
	for i := 0; i < 4000; i++ {
		input = append(input, intTuple(rng.Intn(50), i))
	}
	const budget = 2 << 10 // ~15 tuples per run -> hundreds of runs
	dir := t.TempDir()
	mgr := runfile.NewManager(dir, budget)
	job, ids := sinkJob(sourceOf(input),
		&SortOp{Label: "sort", Partitions: 1, Columns: []int{0},
			Spill: &runfile.Budget{M: mgr, PerInstance: budget}})
	job.Connect(ids[0], ids[1], Connector{Kind: OneToOne})
	got := runToSink(t, job)

	if len(got) != len(input) {
		t.Fatalf("sorted %d tuples, want %d", len(got), len(input))
	}
	lastKey, lastOrd := int64(-1), int64(-1)
	for i, tup := range got {
		k, _ := adm.NumericAsInt64(tup[0])
		ord, _ := adm.NumericAsInt64(tup[1])
		if k < lastKey {
			t.Fatalf("tuple %d out of order: key %d after %d", i, k, lastKey)
		}
		if k == lastKey && ord < lastOrd {
			t.Fatalf("stability violated at tuple %d: ordinal %d after %d within key %d", i, ord, lastOrd, k)
		}
		lastKey, lastOrd = k, ord
	}
	if st := mgr.Stats(); st.RunsCreated <= mergeFanIn {
		t.Fatalf("test did not exceed the merge fan-in: %d runs", st.RunsCreated)
	}
	assertSpilledAndClean(t, mgr, budget, dir)
}

// TestMergeReadersChargedAgainstBudget merges a full fan-in of runs directly
// and asserts the readers' I/O buffers appear in the accounted peak — the bug
// was merge readers allocating bufio buffers entirely outside the budget —
// while the whole fan-in still fits the budget share plus slack.
func TestMergeReadersChargedAgainstBudget(t *testing.T) {
	const budget = 4 << 10
	dir := t.TempDir()
	mgr := runfile.NewManager(dir, budget)
	spill := &runfile.Budget{M: mgr, PerInstance: budget}
	o := &SortOp{Label: "sort", Partitions: 1, Columns: []int{0}, Spill: spill}

	mem := spill.NewInstance()
	var runs []*runfile.Run
	for i := 0; i < mergeFanIn; i++ {
		r, err := writeRun(mem, []Tuple{intTuple(i, 0), intTuple(i+mergeFanIn, 1)})
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, r)
	}
	bufSize, reserve := mergeReaderBudget(budget)
	if int64(bufSize)*(mergeFanIn+1) != reserve {
		t.Fatalf("reserve %d does not cover %d cursors of %d bytes", reserve, mergeFanIn+1, bufSize)
	}
	if reserve > budget/2 {
		t.Fatalf("reserve %d exceeds half the %d budget", reserve, budget)
	}

	var out []Tuple
	err := o.mergeRuns(mem, bufSize, runs, nil, func(tp Tuple) error {
		out = append(out, tp)
		return nil
	})
	mem.Close()
	for _, r := range runs {
		r.Release()
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2*mergeFanIn {
		t.Fatalf("merged %d tuples, want %d", len(out), 2*mergeFanIn)
	}
	st := mgr.Stats()
	if st.PeakResident < int64(mergeFanIn*bufSize) {
		t.Fatalf("merge readers not charged: peak %d < %d open-reader bytes",
			st.PeakResident, mergeFanIn*bufSize)
	}
	if st.PeakResident > budget+1024 {
		t.Fatalf("merge peak %d exceeds budget %d (+1024 slack)", st.PeakResident, budget)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
}

func joinJob(build, probe []Tuple, spill *runfile.Budget) *Job {
	job := &Job{}
	probeSrc := job.Add(sourceOf(probe))
	buildSrc := job.Add(sourceOf(build))
	join := job.Add(&HybridHashJoinOp{
		Label:      "join",
		Partitions: 1,
		BuildKey:   func(t Tuple) adm.Value { return t[0] },
		ProbeKey:   func(t Tuple) adm.Value { return t[0] },
		Combine: func(p, b Tuple) Tuple {
			return Tuple{p[0], p[1], b[1]}
		},
		Spill: spill,
	})
	job.Connect(probeSrc, join, Connector{Kind: OneToOne})
	job.ConnectPort(buildSrc, join, 1, Connector{Kind: OneToOne})
	return job
}

// TestDynamicHashJoinSpills joins a build side several times the budget and
// compares against the in-memory join.
func TestDynamicHashJoinSpills(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var build, probe []Tuple
	for i := 0; i < 2500; i++ {
		build = append(build, intTuple(rng.Intn(500), i))
	}
	for i := 0; i < 1200; i++ {
		probe = append(probe, intTuple(rng.Intn(500), 100000+i))
	}
	want := runToSink(t, joinJob(build, probe, nil))

	const budget = 16 << 10
	dir := t.TempDir()
	mgr := runfile.NewManager(dir, budget)
	got := runToSink(t, joinJob(build, probe, &runfile.Budget{M: mgr, PerInstance: budget}))
	assertSameTuples(t, "dynamic-hash-join", got, want, false)
	assertSpilledAndClean(t, mgr, budget, dir)
}

// TestDynamicHashJoinPathologicalSkew gives every build tuple the same key,
// so recursive repartitioning can never subdivide the spilled partition; the
// join must detect no-progress and finish through the block nested-loop
// fallback instead of recursing forever or blowing the budget.
func TestDynamicHashJoinPathologicalSkew(t *testing.T) {
	var build, probe []Tuple
	for i := 0; i < 2000; i++ {
		build = append(build, intTuple(7, i))
	}
	for i := 0; i < 40; i++ {
		probe = append(probe, intTuple(7, 100000+i))
	}
	want := runToSink(t, joinJob(build, probe, nil))
	if len(want) != 2000*40 {
		t.Fatalf("cross size sanity: got %d", len(want))
	}

	const budget = 8 << 10
	dir := t.TempDir()
	mgr := runfile.NewManager(dir, budget)
	got := runToSink(t, joinJob(build, probe, &runfile.Budget{M: mgr, PerInstance: budget}))
	assertSameTuples(t, "skew-join", got, want, false)
	assertSpilledAndClean(t, mgr, budget, dir)
}

// TestDynamicHashJoinEarlyStop closes demand mid-probe (via a limit) and
// checks no run files survive.
func TestDynamicHashJoinEarlyStop(t *testing.T) {
	var build, probe []Tuple
	for i := 0; i < 2000; i++ {
		build = append(build, intTuple(i, i))
		probe = append(probe, intTuple(i, 100000+i))
	}
	const budget = 8 << 10
	dir := t.TempDir()
	mgr := runfile.NewManager(dir, budget)
	job := joinJob(build, probe, &runfile.Budget{M: mgr, PerInstance: budget})
	lim := job.Add(&LimitOp{Label: "limit", Partitions: 1, N: 5})
	job.Connect(2, lim, Connector{Kind: OneToOne})
	got := runToSink(t, job)
	if len(got) != 5 {
		t.Fatalf("limit returned %d tuples", len(got))
	}
	assertSpilledAndClean(t, mgr, budget, dir)
}

func groupJob(input []Tuple, spill *runfile.Budget) *Job {
	job := &Job{}
	src := job.Add(sourceOf(input))
	grp := job.Add(&HashGroupOp{
		Label:      "group",
		Partitions: 1,
		KeyColumns: []int{0},
		Reduce: func(key Tuple, rows []Tuple) (Tuple, error) {
			sum := int64(0)
			for _, r := range rows {
				v, _ := adm.NumericAsInt64(r[1])
				sum += v
			}
			// Also keep the bag of ordinals so within-group arrival order is
			// part of the asserted result.
			items := make([]adm.Value, len(rows))
			for i, r := range rows {
				items[i] = r[1]
			}
			return Tuple{key[0], adm.Int64(sum), &adm.OrderedList{Items: items}}, nil
		},
		Spill: spill,
	})
	job.Connect(src, grp, Connector{Kind: OneToOne})
	return job
}

// TestSpillableGroupBySpills groups an input several times the budget and
// compares groups (including within-group row order) against the in-memory
// operator.
func TestSpillableGroupBySpills(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var input []Tuple
	for i := 0; i < 3000; i++ {
		input = append(input, intTuple(rng.Intn(300), i))
	}
	want := runToSink(t, groupJob(input, nil))

	const budget = 16 << 10
	dir := t.TempDir()
	mgr := runfile.NewManager(dir, budget)
	got := runToSink(t, groupJob(input, &runfile.Budget{M: mgr, PerInstance: budget}))
	assertSameTuples(t, "spill-group-by", got, want, false)
	assertSpilledAndClean(t, mgr, budget, dir)
}

// TestSpillableGroupByOneGiantGroup is the group-by skew case: a single
// group larger than the budget must still aggregate correctly (its rows have
// to be materialized for Reduce), with repartitioning giving up at the
// recursion cap instead of looping.
func TestSpillableGroupByOneGiantGroup(t *testing.T) {
	var input []Tuple
	for i := 0; i < 2000; i++ {
		input = append(input, intTuple(9, i))
	}
	want := runToSink(t, groupJob(input, nil))
	const budget = 8 << 10
	dir := t.TempDir()
	mgr := runfile.NewManager(dir, budget)
	got := runToSink(t, groupJob(input, &runfile.Budget{M: mgr, PerInstance: budget}))
	assertSameTuples(t, "giant-group", got, want, false)
	st := mgr.Stats()
	if st.RunsCreated == 0 {
		t.Fatal("expected the giant group to spill")
	}
	if st.LiveRuns != 0 {
		t.Fatalf("%d live runs leaked", st.LiveRuns)
	}
	mgr.Close()
	_ = fmt.Sprintf("%v", got)
}
