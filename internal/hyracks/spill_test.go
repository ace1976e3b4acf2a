package hyracks

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/agg"
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

// ----------------------------------------------------------------------------
// The sort with a Limit: a cut row inside the one body
// ----------------------------------------------------------------------------

// runSortLimit sorts input by column 0 ascending with the given Limit and
// returns the output and the job's error.
func runSortLimit(input []Tuple, limit int, spill *runfile.Budget) ([]Tuple, error) {
	job, ids := sinkJob(sourceOf(input), &SortOp{Label: "sort", Partitions: 1, Columns: []int{0}, Limit: limit, Spill: spill})
	job.Connect(ids[0], ids[1], Connector{Kind: OneToOne})
	return Execute(job)
}

// stableTopK is the oracle: stable-sort everything by column 0, take k.
func stableTopK(input []Tuple, k int) []Tuple {
	out := append([]Tuple(nil), input...)
	sort.SliceStable(out, func(i, j int) bool {
		a, _ := adm.NumericAsInt64(out[i][0])
		b, _ := adm.NumericAsInt64(out[j][0])
		return a < b
	})
	return out[:min(k, len(out))]
}

// TestSortLimitIsStableTopK: over keys with many ties, in memory and under a
// budget that spills, a sort with a Limit returns exactly the first Limit
// rows of the stable order: equal keys in arrival order, so a later tie with
// the cut is never kept in place of the cut. Limit 1, Limits at and past
// the input size, and 2^31-1 — the largest bound the translator builds, an
// ordinary Limit on 32-bit platforms too: no 2*Limit overflow, nothing
// preallocated from it — are among the rows.
func TestSortLimitIsStableTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var input []Tuple
	for i := 0; i < 2000; i++ {
		input = append(input, intTuple(rng.Intn(25), i))
	}
	for _, budget := range []int64{0, 4 << 10} {
		for _, limit := range []int{1, 2, 7, 80, 1999, 2000, 5000, math.MaxInt32} {
			t.Run(fmt.Sprintf("budget-%d/limit-%d", budget, limit), func(t *testing.T) {
				dir := t.TempDir()
				mgr := runfile.NewManager(dir, budget)
				got, err := runSortLimit(input, limit, &runfile.Budget{M: mgr, PerInstance: budget})
				if err != nil {
					t.Fatal(err)
				}
				assertSameTuples(t, "top-k", got, stableTopK(input, limit), true)
				if st := mgr.Stats(); st.LiveRuns != 0 || (budget == 0 && st.RunsCreated != 0) {
					t.Fatalf("budget %d: stats %+v", budget, st)
				}
				if err := mgr.Close(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSortLimitCutAcrossSpills: row sizes vary so the share spills before the
// first cut (big rows), a cut is taken (small rows), and the share spills
// again after it (big rows). Keys fall throughout, so every row sorts before
// the cut and only the budget decides. The result is the stable top-k and
// the resident peak stays within the share.
func TestSortLimitCutAcrossSpills(t *testing.T) {
	const limit, budget = 10, 8 << 10 // ~34 small or 3 big rows fit beside the merge reserve
	big := adm.String(strings.Repeat("b", 1000))
	var input []Tuple
	add := func(n int, pad adm.Value) {
		for i := 0; i < n; i++ {
			ord := len(input)
			input = append(input, Tuple{adm.Int64(int64(1000 - ord/2)), adm.Int64(int64(ord)), pad})
		}
	}
	add(18, big)
	add(40, adm.String(""))
	add(18, big)

	run := func(rows []Tuple) runfile.Stats {
		dir := t.TempDir()
		mgr := runfile.NewManager(dir, budget)
		got, err := runSortLimit(rows, limit, &runfile.Budget{M: mgr, PerInstance: budget})
		if err != nil {
			t.Fatal(err)
		}
		assertSameTuples(t, "top-k across spills", got, stableTopK(rows, limit), true)
		st := mgr.Stats()
		assertSpilledAndClean(t, mgr, budget, dir)
		return st
	}
	before := run(input[:58]) // the big rows, then the small ones
	all := run(input)
	if all.RunsCreated > mergeFanIn {
		t.Fatalf("%d runs: a multi-pass merge would count rows twice below", all.RunsCreated)
	}
	// Without a cut every row is spilled but the final in-memory run, which
	// holds at most three big rows; a cut drops at least Limit rows unspilled.
	if all.TuplesSpilled > int64(len(input)-limit) {
		t.Fatalf("spilled %d of %d rows: no cut dropped rows in memory", all.TuplesSpilled, len(input))
	}
	// The last big rows arrive after that cut and spill again.
	if all.RunsCreated <= before.RunsCreated {
		t.Fatalf("%d runs with the last big rows, %d without: nothing spilled after the cut", all.RunsCreated, before.RunsCreated)
	}
}

// TestSortLimitDropsRowsAtTheCut: once the first Limit rows are cut, big rows
// that tie with the cut or sort after it are dropped on arrival, never
// buffered, so however many arrive they cannot fill the share and spill.
func TestSortLimitDropsRowsAtTheCut(t *testing.T) {
	const limit, budget = 5, 8 << 10 // three big rows beside the cut fill the share
	big := adm.String(strings.Repeat("b", 1000))
	for _, late := range []struct {
		name string
		key  int64
	}{{"ties", limit - 1}, {"after", 2 * limit}} {
		t.Run(late.name, func(t *testing.T) {
			var input []Tuple
			for i := 0; i < 2*limit; i++ { // the cut is taken at the last of these
				input = append(input, Tuple{adm.Int64(int64(i)), adm.Int64(int64(i)), adm.String("")})
			}
			for i := 0; i < 30; i++ {
				input = append(input, Tuple{adm.Int64(late.key), adm.Int64(int64(len(input))), big})
			}
			mgr := runfile.NewManager(t.TempDir(), budget)
			defer mgr.Close()
			got, err := runSortLimit(input, limit, &runfile.Budget{M: mgr, PerInstance: budget})
			if err != nil {
				t.Fatal(err)
			}
			assertSameTuples(t, "top-k", got, input[:limit], true)
			if st := mgr.Stats(); st.RunsCreated != 0 {
				t.Fatalf("rows behind the cut were buffered and spilled: %+v", st)
			}
		})
	}
}

// TestSortLimitCompareErrorReturned: an incomparable key fails the job, both
// when it meets the cut and when it is sorted with the buffer.
func TestSortLimitCompareErrorReturned(t *testing.T) {
	bad := Tuple{adm.String("not a number"), adm.Int64(0), padding}
	for _, at := range []int{1, 10} { // before and after the first cut (Limit 2 cuts at 4 rows)
		var input []Tuple
		for i := 0; i < 20; i++ {
			if i == at {
				input = append(input, bad)
			}
			input = append(input, intTuple(20-i, i))
		}
		if _, err := runSortLimit(input, 2, nil); err == nil || !strings.Contains(err.Error(), "cannot compare") {
			t.Errorf("incomparable key at row %d: err = %v", at, err)
		}
	}
}

// TestSortLimitHoldsKRows: profiled with no budget, a top-10 over 10 000 rows
// reports a resident peak of about twice ten rows, not of the input.
func TestSortLimitHoldsKRows(t *testing.T) {
	const n, limit = 10000, 10
	var input []Tuple
	for i := 0; i < n; i++ {
		input = append(input, intTuple((i*7919)%n, i))
	}
	mgr := runfile.NewManager(t.TempDir(), 0)
	job := &Job{Profile: true, Spill: mgr}
	src := job.Add(sourceOf(input))
	srt := job.Add(&SortOp{Label: "sort (limit 10)", Partitions: 1, Columns: []int{0}, Limit: limit,
		Spill: &runfile.Budget{M: mgr, Obs: &runfile.SpillObserver{}}})
	job.Connect(src, srt, Connector{Kind: OneToOne})
	p, rows := runProfile(t, job)
	if rows != limit {
		t.Fatalf("rows = %d, want %d", rows, limit)
	}
	if len(p.Spill) != 1 {
		t.Fatalf("spill rows %+v", p.Spill)
	}
	row := runfile.TupleMemSize(input[0])
	if s := p.Spill[0]; s.Runs != 0 || s.PeakBytes <= 0 || s.PeakBytes > 2*limit*row {
		t.Fatalf("%s: %+v, want no runs and a peak of at most %d bytes (2×%d rows of %d)", s.Name, s.SpillStats, 2*limit*row, limit, row)
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

// groupJob folds each group's sum and its listify of the same column, so
// within-group arrival order is part of the asserted result.
func groupJob(input []Tuple, spill *runfile.Budget) *Job {
	job := &Job{}
	src := job.Add(sourceOf(input))
	grp := job.Add(&HashGroupOp{
		Label:      "group",
		Partitions: 1,
		KeyColumns: []int{0},
		Aggs:       []GroupAgg{{Func: "sum", Col: 1}, {Func: agg.Listify, Col: 1}},
		Spill:      spill,
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
// group larger than the budget must still aggregate correctly (its listify
// holds every item), with repartitioning giving up at the recursion cap
// instead of looping.
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

// ----------------------------------------------------------------------------
// The one spill table, through every client
// ----------------------------------------------------------------------------

func foldJob(input []Tuple, spill *runfile.Budget) *Job {
	job := &Job{}
	src := job.Add(sourceOf(input))
	grp := job.Add(&HashGroupOp{
		Label:      "group",
		Partitions: 1,
		KeyColumns: []int{0},
		Aggs:       []GroupAgg{{Func: "count", Col: 1}, {Func: "sum", Col: 1}, {Func: "min", Col: 1}},
		Spill:      spill,
	})
	job.Connect(src, grp, Connector{Kind: OneToOne})
	return job
}

func keylessJoinJob(build, probe []Tuple, spill *runfile.Budget) *Job {
	job := &Job{}
	probeSrc := job.Add(sourceOf(probe))
	buildSrc := job.Add(sourceOf(build))
	join := job.Add(&HybridHashJoinOp{
		Label:      "join",
		Partitions: 1,
		Combine:    func(p, b Tuple) Tuple { return Tuple{p[0], p[1], b[0], b[1]} },
		Spill:      spill,
	})
	job.Connect(probeSrc, join, Connector{Kind: OneToOne})
	job.ConnectPort(buildSrc, join, 1, Connector{Kind: OneToOne})
	return job
}

// nestJoinJob is the keyed nest join: each probe tuple once, with the second
// columns of its matches in build arrival order.
func nestJoinJob(build, probe []Tuple, spill *runfile.Budget) *Job {
	job := &Job{}
	probeSrc := job.Add(sourceOf(probe))
	buildSrc := job.Add(sourceOf(build))
	join := job.Add(&HybridHashJoinOp{
		Label:      "nest-join",
		Partitions: 1,
		BuildKey:   func(t Tuple) adm.Value { return t[0] },
		ProbeKey:   func(t Tuple) adm.Value { return t[0] },
		Nest: func(p Tuple, matches []Tuple) Tuple {
			items := make([]adm.Value, len(matches))
			for i, b := range matches {
				items[i] = b[1]
			}
			return Tuple{p[0], p[1], &adm.OrderedList{Items: items}}
		},
		Spill: spill,
	})
	job.Connect(probeSrc, join, Connector{Kind: OneToOne})
	job.ConnectPort(buildSrc, join, 1, Connector{Kind: OneToOne})
	return job
}

// tableClient is one client of the spill table wired into a runnable job
// (group-bys ignore probe), with the plain-Go-map oracle of its result.
type tableClient struct {
	name   string
	job    func(build, probe []Tuple, spill *runfile.Budget) *Job
	oracle func(build, probe []Tuple) []Tuple
}

func tupleInts(t Tuple) (k, v int64) {
	k, _ = adm.NumericAsInt64(t[0])
	v, _ = adm.NumericAsInt64(t[1])
	return k, v
}

// groupOracle groups the second column by the first with a plain map.
func groupOracle(rows []Tuple) (keys []int64, groups map[int64][]int64) {
	groups = map[int64][]int64{}
	for _, r := range rows {
		k, v := tupleInts(r)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], v)
	}
	return keys, groups
}

var tableClients = []tableClient{
	{
		name: "fold",
		job:  func(b, _ []Tuple, s *runfile.Budget) *Job { return foldJob(b, s) },
		oracle: func(b, _ []Tuple) []Tuple {
			var out []Tuple
			keys, groups := groupOracle(b)
			for _, k := range keys {
				sum, min := int64(0), groups[k][0]
				for _, v := range groups[k] {
					sum += v
					if v < min {
						min = v
					}
				}
				out = append(out, Tuple{adm.Int64(k), adm.Int64(int64(len(groups[k]))), adm.Double(float64(sum)), adm.Int64(min)})
			}
			return out
		},
	},
	{
		name: "bag", // the listify fold
		job:  func(b, _ []Tuple, s *runfile.Budget) *Job { return groupJob(b, s) },
		oracle: func(b, _ []Tuple) []Tuple {
			var out []Tuple
			keys, groups := groupOracle(b)
			for _, k := range keys {
				sum := int64(0)
				items := make([]adm.Value, len(groups[k]))
				for i, v := range groups[k] {
					sum += v
					items[i] = adm.Int64(v)
				}
				out = append(out, Tuple{adm.Int64(k), adm.Double(float64(sum)), &adm.OrderedList{Items: items}})
			}
			return out
		},
	},
	{
		name: "equi-join",
		job:  joinJob,
		oracle: func(b, p []Tuple) []Tuple {
			var out []Tuple
			_, groups := groupOracle(b)
			for _, pt := range p {
				k, _ := tupleInts(pt)
				for _, v := range groups[k] {
					out = append(out, Tuple{pt[0], pt[1], adm.Int64(v)})
				}
			}
			return out
		},
	},
	{
		name: "nest-join",
		job:  nestJoinJob,
		oracle: func(b, p []Tuple) []Tuple {
			var out []Tuple
			_, groups := groupOracle(b)
			for _, pt := range p {
				k, _ := tupleInts(pt)
				items := make([]adm.Value, len(groups[k]))
				for i, v := range groups[k] {
					items[i] = adm.Int64(v)
				}
				out = append(out, Tuple{pt[0], pt[1], &adm.OrderedList{Items: items}})
			}
			return out
		},
	},
	{
		name: "keyless-join",
		job:  keylessJoinJob,
		oracle: func(b, p []Tuple) []Tuple {
			var out []Tuple
			for _, pt := range p {
				for _, bt := range b {
					out = append(out, Tuple{pt[0], pt[1], bt[0], bt[1]})
				}
			}
			return out
		},
	},
}

// runTableClient runs one client under one budget (PerInstance 0 is the
// unlimited share) and checks everything the table promises whatever the
// input: the oracle's result (as a multiset; a positive limit instead asks
// for that many tuples, each from the oracle's result), no run left live or
// on disk, a budget-0 run that never touches the spill directory, and — when
// bounded is set — a resident peak within the budget plus one tuple of slack.
func runTableClient(t *testing.T, c tableClient, build, probe []Tuple, budget int64, limit int, bounded bool) runfile.Stats {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "spill")
	mgr := runfile.NewManager(dir, budget)
	job := c.job(build, probe, &runfile.Budget{M: mgr, PerInstance: budget})
	if limit > 0 {
		last := len(job.Operators) - 1
		lim := job.Add(&LimitOp{Label: "limit", Partitions: 1, N: limit})
		job.Connect(last, lim, Connector{Kind: OneToOne})
	}
	got := runToSink(t, job)
	want := c.oracle(build, probe)
	if limit > 0 && limit < len(want) {
		if len(got) != limit {
			t.Fatalf("limit %d returned %d tuples", limit, len(got))
		}
		valid := map[string]int{}
		for _, e := range encodeTuples(t, want) {
			valid[e]++
		}
		for _, e := range encodeTuples(t, got) {
			if valid[e]--; valid[e] < 0 {
				t.Fatalf("tuple behind the limit is not in the full result")
			}
		}
	} else {
		assertSameTuples(t, c.name, got, want, false)
	}
	st := mgr.Stats()
	if st.LiveRuns != 0 {
		t.Fatalf("%d run files live after the job", st.LiveRuns)
	}
	if budget == 0 && st.RunsCreated != 0 {
		t.Fatalf("unlimited share created %d runs", st.RunsCreated)
	}
	if bounded && budget > 0 && st.PeakResident > budget+1024 {
		t.Fatalf("peak resident %d bytes exceeds budget %d (+1024 slack)", st.PeakResident, budget)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	filepath.Walk(dir, func(path string, _ os.FileInfo, err error) error {
		if err == nil && (budget == 0 || path != dir) {
			t.Fatalf("%s left in the spill directory", path)
		}
		return nil
	})
	return st
}

// TestSpillTableClients drives the one spill table through each of its
// clients — the fold group-by without ("fold") and with a listify ("bag"),
// equi-join, nest join, keyless join — across budgets (0 is the unlimited share; 8KiB and 64KiB both sit
// below the inputs) and key shapes. What must hold for every input is in
// runTableClient; per shape: listify keeps each group's items in arrival
// order across spill and reload (the oracle's lists are in arrival order),
// every budgeted case except the single-group count/sum/min fold really
// spills, and a build side that is one key — every level lands in one
// partition — finishes through the block fallback's repeated probe passes.
func TestSpillTableClients(t *testing.T) {
	type shape struct {
		name  string
		key   func(rng *rand.Rand, i int) int
		limit int
	}
	shapes := []shape{
		{name: "uniform", key: func(rng *rand.Rand, _ int) int { return rng.Intn(400) }},
		{name: "all-distinct", key: func(_ *rand.Rand, i int) int { return i }},
		{name: "one-giant-key", key: func(*rand.Rand, int) int { return 7 }},
		{name: "early-stop", key: func(rng *rand.Rand, _ int) int { return rng.Intn(400) }, limit: 5},
	}
	for _, c := range tableClients {
		for _, sh := range shapes {
			// Sized so every build side is several times 64KiB (~190 bytes a
			// tuple) while the joins' outputs stay in the tens of thousands.
			nBuild, nProbe := 3000, 0
			switch {
			case c.name == "keyless-join":
				nBuild, nProbe = 700, 60
			case c.name == "equi-join" && sh.name == "one-giant-key":
				nBuild, nProbe = 1500, 30
			case c.name == "equi-join", c.name == "nest-join":
				nBuild, nProbe = 1500, 400
			}
			rng := rand.New(rand.NewSource(29))
			var build, probe []Tuple
			for i := 0; i < nBuild; i++ {
				build = append(build, intTuple(sh.key(rng, i), i))
			}
			for i := 0; i < nProbe; i++ {
				probe = append(probe, intTuple(sh.key(rng, i), 100000+i))
			}
			giant := sh.name == "one-giant-key"
			for _, budget := range []int64{0, 8 << 10, 64 << 10} {
				t.Run(fmt.Sprintf("%s/%s/%d", c.name, sh.name, budget), func(t *testing.T) {
					// The giant group's listify holds all its items, and a
					// nest join's lists hold all a key's matches.
					st := runTableClient(t, c, build, probe, budget, sh.limit, !(c.name == "bag" || c.name == "nest-join") || !giant)
					if budget == 0 {
						return
					}
					if spills := !(c.name == "fold" && giant); spills != (st.RunsCreated > 0) {
						t.Fatalf("spilling = %v, want %v (stats %+v)", st.RunsCreated > 0, spills, st)
					}
					if c.name == "equi-join" && giant && st.RunsOpened <= int64(st.RunsCreated)+1 {
						t.Fatalf("one-key build did not finish through the block fallback (stats %+v)", st)
					}
				})
			}
		}
	}
	t.Run("victim-is-largest-partition", victimIsLargestPartition)
}

// victimIsLargestPartition pins the victim policy on the table itself: with
// a few small groups resident and one key growing past the budget, the
// partition that spills is that key's and only that.
func victimIsLargestPartition(t *testing.T) {
	const budget = 16 << 10
	mgr := runfile.NewManager(t.TempDir(), budget)
	defer mgr.Close()
	mem := (&runfile.Budget{M: mgr, PerInstance: budget}).NewInstance()
	defer mem.Close()
	key := func(dst []byte, tup Tuple) []byte { return adm.EncodeKey(dst, tup[0]) }
	tbl := &spillTable{mem: mem, client: rowsClient(key)}
	defer tbl.abort()
	for i := 0; i < 20; i++ {
		if err := tbl.insert(intTuple(100+i, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ { // ~40KB under one key
		if err := tbl.insert(intTuple(7, i)); err != nil {
			t.Fatal(err)
		}
	}
	giant, _, spilled := tbl.lookup(key(nil, intTuple(7, 0)))
	if !spilled {
		t.Fatal("the growing key's partition was not evicted")
	}
	for i := range tbl.parts {
		if i != giant && tbl.parts[i].w != nil {
			t.Fatalf("partition %d (%d bytes of small groups) was evicted besides the largest", i, tbl.parts[i].bytes)
		}
	}
}

// FuzzSpillTable fuzzes the one mechanism directly: the input picks a
// budget (0 included), a client and a key stream (one byte a key, widened by
// position when the client byte's bit 2 is set, so both few-large-groups and
// many-small-groups streams are reachable); runTableClient checks the result
// against the plain-map oracle, that no run survives, and the resident peak.
func FuzzSpillTable(f *testing.F) {
	seed := func(budget, client byte, n int, key func(i int) byte) {
		data := []byte{budget, client}
		for i := 0; i < n; i++ {
			data = append(data, key(i))
		}
		f.Add(data)
	}
	for client := byte(0); client < 8; client++ {
		seed(0, client, 300, func(i int) byte { return byte(i * 7) })  // unlimited share
		seed(1, client, 400, func(i int) byte { return byte(i * 31) }) // uniform
		seed(2, client, 400, func(i int) byte { return byte(i) })      // distinct when widened
		seed(1, client, 400, func(int) byte { return 7 })              // one giant key
		seed(3, client, 500, func(i int) byte { return byte(i % 3) })  // 64KiB, three groups
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		budget := []int64{0, 2 << 10, 8 << 10, 64 << 10}[data[0]%4]
		c := tableClients[int(data[1])%len(tableClients)]
		wide := data[1]&4 != 0
		keys := data[2:]
		// Bound the work per input: joins multiply.
		if max := map[string]int{"fold": 4096, "bag": 4096, "equi-join": 512, "nest-join": 512, "keyless-join": 256}[c.name]; len(keys) > max {
			keys = keys[:max]
		}
		var build, probe []Tuple
		largest, sizes := int64(0), map[int]int64{}
		for i, b := range keys {
			k := int(b)
			if wide {
				k |= i << 8
			}
			tup := intTuple(k, i)
			build = append(build, tup)
			if i%4 == 0 {
				probe = append(probe, intTuple(k, 100000+i))
			}
			if sizes[k] += runfile.TupleMemSize(tup); sizes[k] > largest {
				largest = sizes[k]
			}
		}
		// A listify group that cannot fit is held whole at the recursion cap,
		// alone or with a key that shared its partition all the way down;
		// below half the budget (its rows' sizes bound its items') even such
		// a pair stays inside it.
		bounded := (c.name != "bag" && c.name != "nest-join") || largest <= budget/2
		runTableClient(t, c, build, probe, budget, 0, bounded)
	})
}
