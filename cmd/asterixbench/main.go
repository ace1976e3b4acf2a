// Command asterixbench regenerates the paper's evaluation tables (Section
// 5.3) against the Go reproduction: Table 2 (dataset sizes), Table 3 (query
// response times with and without indexes), Table 4 (insert times per record
// for batch sizes 1 and 20), and the Figure 6 job for Query 10.
//
// Usage:
//
//	asterixbench -table 2            # dataset sizes
//	asterixbench -table 3            # query response times
//	asterixbench -table 4            # insert times
//	asterixbench -figure 6           # compiled job for Query 10
//	asterixbench -spill              # out-of-core runtime under memory budgets
//	asterixbench -all                # everything
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"asterixdb"
	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
	"asterixdb/internal/comparators"
	"asterixdb/internal/hyracks"
	"asterixdb/internal/workload"
)

var (
	tableFlag    = flag.Int("table", 0, "table number to regenerate (2, 3 or 4)")
	figureFlag   = flag.Int("figure", 0, "figure number to regenerate (6)")
	spillFlag    = flag.Bool("spill", false, "benchmark scan-join/sort/group-by under memory budgets (writes BENCH_spill.json)")
	readpathFlag = flag.Bool("readpath", false, "benchmark scan throughput / first-row latency / fusion (writes BENCH_readpath.json)")
	readpathMax  = flag.Int("readpath-max", 1_000_000, "largest dataset size the -readpath sweep builds")
	baselineFlag = flag.String("readpath-baseline", "", "committed BENCH_readpath.json to compare against; a full-scan ns/record regression beyond -readpath-tolerance fails the run")
	tolFlag      = flag.Float64("readpath-tolerance", 0.20, "fractional full-scan slowdown allowed against -readpath-baseline")
	profileFlag  = flag.String("cpuprofile", "", "write a CPU profile of the selected benchmarks to this file")
	allFlag      = flag.Bool("all", false, "regenerate every table and figure")
	usersFlag    = flag.Int("users", 1000, "number of synthetic users")
	msgsFlag     = flag.Int("messages", 5000, "number of synthetic messages")
)

type bench struct {
	gen      *workload.Generator
	params   workload.QueryParams
	users    []*adm.Record
	messages []*adm.Record

	schema   *asterixdb.Instance
	keyonly  *asterixdb.Instance
	rowstore *comparators.RowStore
	docstore *comparators.DocStore
	scan     *comparators.ScanStore

	tmpDirs []string
}

func main() {
	flag.Parse()
	if !*allFlag && *tableFlag == 0 && *figureFlag == 0 && !*spillFlag && !*readpathFlag {
		flag.Usage()
		os.Exit(2)
	}
	if *profileFlag != "" {
		f, err := os.Create(*profileFlag)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	b := setup()
	defer b.close()
	if *allFlag || *tableFlag == 2 {
		b.table2()
	}
	if *allFlag || *tableFlag == 3 {
		b.table3()
	}
	if *allFlag || *tableFlag == 4 {
		b.table4()
	}
	if *allFlag || *figureFlag == 6 {
		b.figure6()
	}
	if *allFlag || *spillFlag {
		b.spillTable()
	}
	if *allFlag || *readpathFlag {
		b.readpathTable()
	}
}

func setup() *bench {
	b := &bench{}
	// The Mugshot workload, loaded instances and comparator stores only
	// serve the table/figure/spill benchmarks. The -readpath sweep builds
	// its own synthetic dataset; keeping megabytes of unrelated live heap
	// around would tax every GC cycle it measures, so a pure -readpath run
	// skips all of this.
	if *allFlag || *tableFlag != 0 || *figureFlag != 0 || *spillFlag {
		fmt.Printf("generating workload: %d users, %d messages\n", *usersFlag, *msgsFlag)
		gen := workload.New(workload.Config{Users: *usersFlag, Messages: *msgsFlag, Seed: 7})
		b.gen, b.params, b.users, b.messages = gen, gen.Params(), gen.Users(), gen.Messages()
	}
	if *allFlag || *tableFlag != 0 || *figureFlag != 0 {
		b.schema = b.newInstance(adm.SchemaEncoding)
		b.keyonly = b.newInstance(adm.KeyOnlyEncoding)
		b.rowstore = comparators.NewRowStore()
		b.rowstore.LoadUsers(b.users)
		b.rowstore.LoadMessages(b.messages)
		b.rowstore.BuildIndexes(b.messages)
		b.docstore = comparators.NewDocStore()
		b.docstore.LoadUsers(b.users)
		b.docstore.LoadMessages(b.messages)
		b.docstore.BuildIndexes(b.messages)
		b.scan = comparators.NewScanStore()
		b.scan.LoadMessages(b.messages)
	}
	return b
}

func (b *bench) newInstance(enc adm.Encoding) *asterixdb.Instance {
	dir, err := os.MkdirTemp("", "asterixbench")
	if err != nil {
		log.Fatal(err)
	}
	b.tmpDirs = append(b.tmpDirs, dir)
	inst, err := asterixdb.Open(asterixdb.Config{DataDir: dir, Partitions: 4, Encoding: enc})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := inst.Execute(`
create type EmploymentType as open { organization-name: string, start-date: date, end-date: date? }
create type MugshotUserType as {
  id: int32, alias: string, name: string, user-since: datetime,
  address: { street: string, city: string, state: string, zip: string, country: string },
  friend-ids: {{ int32 }}, employment: [EmploymentType]
}
create type MugshotMessageType as closed {
  message-id: int32, author-id: int32, timestamp: datetime, in-response-to: int32?,
  sender-location: point?, tags: {{ string }}, message: string
}
create dataset MugshotUsers(MugshotUserType) primary key id;
create dataset MugshotMessages(MugshotMessageType) primary key message-id;
create index msTimestampIdx on MugshotMessages(timestamp);
create index msSenderLocIdx on MugshotMessages(sender-location) type rtree;
create index msMessageNgIdx on MugshotMessages(message) type ngram(3);
`); err != nil {
		log.Fatal(err)
	}
	usersDS, _ := inst.Dataset("MugshotUsers")
	if _, err := usersDS.InsertBatch(b.users); err != nil {
		log.Fatal(err)
	}
	msgsDS, _ := inst.Dataset("MugshotMessages")
	if _, err := msgsDS.InsertBatch(b.messages); err != nil {
		log.Fatal(err)
	}
	return inst
}

func (b *bench) close() {
	if b.schema != nil {
		b.schema.Close()
	}
	if b.keyonly != nil {
		b.keyonly.Close()
	}
	for _, d := range b.tmpDirs {
		os.RemoveAll(d)
	}
}

func (b *bench) table2() {
	fmt.Println("\n== Table 2: dataset sizes (messages dataset, bytes) ==")
	schemaDS, _ := b.schema.Dataset("MugshotMessages")
	keyonlyDS, _ := b.keyonly.Dataset("MugshotMessages")
	s, _ := schemaDS.SizeBytes()
	k, _ := keyonlyDS.SizeBytes()
	fmt.Printf("%-22s %12s\n", "system", "bytes")
	fmt.Printf("%-22s %12d\n", "Asterix (Schema)", s)
	fmt.Printf("%-22s %12d\n", "Asterix (KeyOnly)", k)
	fmt.Printf("%-22s %12d\n", "System-X (rowstore)", b.rowstore.SizeBytes())
	fmt.Printf("%-22s %12d\n", "Hive (scanstore)", b.scan.SizeBytes())
	fmt.Printf("%-22s %12d\n", "MongoDB (docstore)", b.docstore.SizeBytes())
}

// timeQuery measures the average latency of fn over a few repetitions.
func timeQuery(fn func()) time.Duration {
	const reps = 5
	fn() // warm-up
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(start) / reps
}

func (b *bench) asterixLatency(inst *asterixdb.Instance, query string, useIndex bool) time.Duration {
	opts := algebra.Options{DisableIndexAccess: !useIndex}
	return timeQuery(func() {
		if _, err := inst.QueryWithOptions(query, opts); err != nil {
			log.Fatal(err)
		}
	})
}

func (b *bench) table3() {
	fmt.Println("\n== Table 3: average query response time ==")
	p := b.params
	row := func(name string, cols ...time.Duration) {
		fmt.Printf("%-22s", name)
		for _, c := range cols {
			fmt.Printf(" %12s", c.Round(time.Microsecond))
		}
		fmt.Println()
	}
	fmt.Printf("%-22s %12s %12s %12s %12s %12s\n", "query", "Ast(Schema)", "Ast(KeyOnly)", "System-X", "Hive", "Mongo")

	rangeQ := fmt.Sprintf(`for $m in dataset MugshotMessages where $m.timestamp >= %s and $m.timestamp <= %s return $m;`, p.SmallLo, p.SmallHi)
	joinQ := fmt.Sprintf(`for $u in dataset MugshotUsers for $m in dataset MugshotMessages where $m.author-id = $u.id and $m.timestamp >= %s and $m.timestamp <= %s return { "u": $u.name, "m": $m.message };`, p.SmallLo, p.SmallHi)
	joinQLarge := fmt.Sprintf(`for $u in dataset MugshotUsers for $m in dataset MugshotMessages where $m.author-id = $u.id and $m.timestamp >= %s and $m.timestamp <= %s return { "u": $u.name, "m": $m.message };`, p.LargeLo, p.LargeHi)
	aggQ := fmt.Sprintf(`avg(for $m in dataset MugshotMessages where $m.timestamp >= %s and $m.timestamp <= %s return string-length($m.message))`, p.LargeLo, p.LargeHi)

	userIDs := make([]int32, len(b.users))
	for i := range userIDs {
		userIDs[i] = int32(i + 1)
	}

	// Record lookup.
	key := p.LookupKey
	schemaDS, _ := b.schema.Dataset("MugshotMessages")
	keyonlyDS, _ := b.keyonly.Dataset("MugshotMessages")
	row("Rec Lookup",
		timeQuery(func() { schemaDS.LookupPK(key) }),
		timeQuery(func() { keyonlyDS.LookupPK(key) }),
		timeQuery(func() { b.rowstore.RecordLookup(adm.Int32(1)) }),
		timeQuery(func() { b.scan.RecordLookup(int32(key)) }),
		timeQuery(func() { b.docstore.RecordLookup(adm.Int32(1)) }))

	// Range scan, without and with index.
	row("Range Scan",
		b.asterixLatency(b.schema, rangeQ, false),
		b.asterixLatency(b.keyonly, rangeQ, false),
		timeQuery(func() { b.rowstore.RangeScanMessages(p.SmallLo, p.SmallHi, false) }),
		timeQuery(func() { b.scan.RangeScanMessages(p.SmallLo, p.SmallHi) }),
		timeQuery(func() { b.docstore.RangeScanMessages(p.SmallLo, p.SmallHi, false) }))
	row("  -- with IX",
		b.asterixLatency(b.schema, rangeQ, true),
		b.asterixLatency(b.keyonly, rangeQ, true),
		timeQuery(func() { b.rowstore.RangeScanMessages(p.SmallLo, p.SmallHi, true) }),
		timeQuery(func() { b.scan.RangeScanMessages(p.SmallLo, p.SmallHi) }),
		timeQuery(func() { b.docstore.RangeScanMessages(p.SmallLo, p.SmallHi, true) }))

	// Select-join, small and large selectivity, without and with index.
	row("Sel-Join (Sm)",
		b.asterixLatency(b.schema, joinQ, false),
		b.asterixLatency(b.keyonly, joinQ, false),
		timeQuery(func() { b.rowstore.SelectJoin(p.SmallLo, p.SmallHi, false) }),
		timeQuery(func() { b.scan.SelectJoin(p.SmallLo, p.SmallHi, userIDs) }),
		timeQuery(func() { b.docstore.ClientSideJoin(p.SmallLo, p.SmallHi, false) }))
	row("  -- with IX",
		b.asterixLatency(b.schema, joinQ, true),
		b.asterixLatency(b.keyonly, joinQ, true),
		timeQuery(func() { b.rowstore.SelectJoin(p.SmallLo, p.SmallHi, true) }),
		timeQuery(func() { b.scan.SelectJoin(p.SmallLo, p.SmallHi, userIDs) }),
		timeQuery(func() { b.docstore.ClientSideJoin(p.SmallLo, p.SmallHi, true) }))
	row("Sel-Join (Lg)",
		b.asterixLatency(b.schema, joinQLarge, false),
		b.asterixLatency(b.keyonly, joinQLarge, false),
		timeQuery(func() { b.rowstore.SelectJoin(p.LargeLo, p.LargeHi, false) }),
		timeQuery(func() { b.scan.SelectJoin(p.LargeLo, p.LargeHi, userIDs) }),
		timeQuery(func() { b.docstore.ClientSideJoin(p.LargeLo, p.LargeHi, false) }))
	row("  -- with IX",
		b.asterixLatency(b.schema, joinQLarge, true),
		b.asterixLatency(b.keyonly, joinQLarge, true),
		timeQuery(func() { b.rowstore.SelectJoin(p.LargeLo, p.LargeHi, true) }),
		timeQuery(func() { b.scan.SelectJoin(p.LargeLo, p.LargeHi, userIDs) }),
		timeQuery(func() { b.docstore.ClientSideJoin(p.LargeLo, p.LargeHi, true) }))

	// Aggregation (large selectivity), without and with index.
	row("Agg (Lg)",
		b.asterixLatency(b.schema, aggQ, false),
		b.asterixLatency(b.keyonly, aggQ, false),
		timeQuery(func() { b.rowstore.Aggregate(p.LargeLo, p.LargeHi, false) }),
		timeQuery(func() { b.scan.Aggregate(p.LargeLo, p.LargeHi) }),
		timeQuery(func() { b.docstore.AggregateMapReduce(p.LargeLo, p.LargeHi, false) }))
	row("  -- with IX",
		b.asterixLatency(b.schema, aggQ, true),
		b.asterixLatency(b.keyonly, aggQ, true),
		timeQuery(func() { b.rowstore.Aggregate(p.LargeLo, p.LargeHi, true) }),
		timeQuery(func() { b.scan.Aggregate(p.LargeLo, p.LargeHi) }),
		timeQuery(func() { b.docstore.AggregateMapReduce(p.LargeLo, p.LargeHi, true) }))

	// Spatial and similarity selections, Asterix-only (the comparator stores
	// have no spatial or text indexes): the newly compiled R-tree and ngram
	// inverted-index access paths against the full-scan baseline.
	rowAst := func(name string, schema, keyonly time.Duration) {
		fmt.Printf("%-22s %12s %12s %12s %12s %12s\n",
			name, schema.Round(time.Microsecond), keyonly.Round(time.Microsecond), "-", "-", "-")
	}
	spatialQ := `for $m in dataset MugshotMessages where spatial-intersect($m.sender-location, create-rectangle(create-point(25.0, 75.0), create-point(35.0, 85.0))) return $m.message-id;`
	simQ := `for $m in dataset MugshotMessages where contains($m.message, "data") return $m.message-id;`
	rowAst("Spatial",
		b.asterixLatency(b.schema, spatialQ, false),
		b.asterixLatency(b.keyonly, spatialQ, false))
	rowAst("  -- with IX",
		b.asterixLatency(b.schema, spatialQ, true),
		b.asterixLatency(b.keyonly, spatialQ, true))
	rowAst("Similarity",
		b.asterixLatency(b.schema, simQ, false),
		b.asterixLatency(b.keyonly, simQ, false))
	rowAst("  -- with IX",
		b.asterixLatency(b.schema, simQ, true),
		b.asterixLatency(b.keyonly, simQ, true))
}

func (b *bench) table4() {
	fmt.Println("\n== Table 4: average insert time per record ==")
	fmt.Printf("%-12s %16s %16s %16s\n", "batch size", "Asterix", "System-X", "Mongo")
	gen := b.gen
	next := 10_000_000
	for _, batch := range []int{1, 20} {
		dir, _ := os.MkdirTemp("", "asterixbench-insert")
		b.tmpDirs = append(b.tmpDirs, dir)
		inst, err := asterixdb.Open(asterixdb.Config{DataDir: dir, Partitions: 4, Journaled: true})
		if err != nil {
			log.Fatal(err)
		}
		inst.Execute(`
create type M as closed { message-id: int32, author-id: int32, timestamp: datetime, in-response-to: int32?, sender-location: point?, tags: {{ string }}, message: string }
create dataset Msgs(M) primary key message-id;`)
		ds, _ := inst.Dataset("Msgs")
		const rounds = 50
		mkBatch := func() []*adm.Record {
			recs := make([]*adm.Record, batch)
			for j := range recs {
				next++
				recs[j] = gen.Message(1).Set("message-id", adm.Int32(int32(next)))
			}
			return recs
		}
		start := time.Now()
		for r := 0; r < rounds; r++ {
			if _, err := ds.InsertBatch(mkBatch()); err != nil {
				log.Fatal(err)
			}
		}
		asterixPer := time.Since(start) / time.Duration(rounds*batch)

		rs := comparators.NewRowStore()
		start = time.Now()
		for r := 0; r < rounds; r++ {
			for _, rec := range mkBatch() {
				rs.Insert(rec)
			}
		}
		rowPer := time.Since(start) / time.Duration(rounds*batch)

		doc := comparators.NewDocStore()
		start = time.Now()
		for r := 0; r < rounds; r++ {
			for _, rec := range mkBatch() {
				doc.Insert(rec)
			}
		}
		docPer := time.Since(start) / time.Duration(rounds*batch)

		fmt.Printf("%-12d %16s %16s %16s\n", batch, asterixPer, rowPer, docPer)
		inst.Close()
	}
}

func (b *bench) figure6() {
	fmt.Println("\n== Figure 6: Hyracks job for Query 10 ==")
	query := fmt.Sprintf(`avg(for $m in dataset MugshotMessages where $m.timestamp >= %s and $m.timestamp < %s return string-length($m.message))`,
		b.params.SmallLo, b.params.SmallHi)
	out, err := b.schema.Explain(query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out)
}

// spillTable benchmarks the out-of-core runtime: the shared workload
// definitions (internal/workload spillbench.go) run unconstrained and under
// memory budgets that force the blocking operators to spill. The
// latency/spill-counter trajectory is printed and written to
// BENCH_spill.json; the expected shape is graceful degradation (more runs,
// more passes, higher latency) rather than failure.
func (b *bench) spillTable() {
	// Neutralize an env-driven budget so the unconstrained level really is
	// unconstrained (otherwise the budget_bytes=0 baseline row would spill).
	os.Unsetenv("ASTERIXDB_MEMORY_BUDGET")
	fmt.Println("\n== Out-of-core runtime: latency under per-query memory budgets ==")
	fmt.Printf("%-12s %14s %14s %10s %14s %14s\n", "workload", "budget", "latency", "runs", "spilled", "peak resident")
	var rows []workload.SpillTrajectoryRow
	for _, budget := range workload.SpillBudgetLevels {
		dir, err := os.MkdirTemp("", "asterixbench-spill")
		if err != nil {
			log.Fatal(err)
		}
		b.tmpDirs = append(b.tmpDirs, dir)
		inst, err := asterixdb.Open(asterixdb.Config{DataDir: dir, Partitions: 4, MemoryBudget: budget})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := inst.Execute(workload.SpillBenchDDL); err != nil {
			log.Fatal(err)
		}
		usersDS, _ := inst.Dataset("MugshotUsers")
		if _, err := usersDS.InsertBatch(b.users); err != nil {
			log.Fatal(err)
		}
		msgsDS, _ := inst.Dataset("MugshotMessages")
		if _, err := msgsDS.InsertBatch(b.messages); err != nil {
			log.Fatal(err)
		}
		for _, q := range workload.SpillBenchQueries {
			lat := timeQuery(func() {
				if _, err := inst.Query(q.Query); err != nil {
					log.Fatal(err)
				}
			})
			// One instrumented run collects the job's spill counters.
			expr, _, err := inst.ExecuteForQuery(context.Background(), q.Query)
			if err != nil {
				log.Fatal(err)
			}
			_, job, err := inst.CompileQuery(expr, algebra.Options{})
			if err != nil {
				log.Fatal(err)
			}
			tuples, err := hyracks.Execute(job)
			if err != nil {
				log.Fatal(err)
			}
			row := workload.NewSpillRow(q.Name, budget, lat.Nanoseconds(), job.FrameSize, len(tuples), job.Spill)
			rows = append(rows, row)
			budgetLabel := "unlimited"
			if budget > 0 {
				budgetLabel = fmt.Sprintf("%dKiB", budget>>10)
			}
			fmt.Printf("%-12s %14s %14s %10d %14d %14d\n",
				q.Name, budgetLabel, lat.Round(time.Microsecond), row.RunsCreated, row.TuplesSpilled, row.PeakResidentBytes)
		}
		inst.Close()
	}
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("BENCH_spill.json", append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote BENCH_spill.json")
}

// readpathTable benchmarks the streaming read path: full-scan throughput
// across dataset sizes (per-record time must stay flat — the resumable LSM
// iterator removed the per-chunk Range-restart cost), time-to-first-row on a
// limit-over-scan, and the per-record latency of a pipelined expression chain.
// Results print as a table and land in BENCH_readpath.json.
func (b *bench) readpathTable() {
	os.Unsetenv("ASTERIXDB_MEMORY_BUDGET")
	// Load the committed baseline before the run overwrites the file.
	var baseline []workload.ReadPathRow
	if *baselineFlag != "" {
		data, err := os.ReadFile(*baselineFlag)
		if err != nil {
			log.Fatalf("readpath baseline: %v", err)
		}
		if err := json.Unmarshal(data, &baseline); err != nil {
			log.Fatalf("readpath baseline %s: %v", *baselineFlag, err)
		}
	}
	fmt.Println("\n== Read path: iterator-based scans + operator fusion ==")
	fmt.Printf("%-18s %12s %14s %14s\n", "workload", "records", "median", "per record")
	var rows []workload.ReadPathRow

	report := func(name string, records int, d time.Duration, resultRows int, perRecord bool) {
		row := workload.ReadPathRow{Workload: name, Records: records, Ns: d.Nanoseconds(), Rows: resultRows}
		per := ""
		if perRecord {
			row.NsPerRecord = float64(d.Nanoseconds()) / float64(records)
			per = fmt.Sprintf("%.0f ns", row.NsPerRecord)
		}
		rows = append(rows, row)
		fmt.Printf("%-18s %12d %14s %14s\n", name, records, d.Round(time.Microsecond), per)
	}

	// median runs fn reps times after two warmups and returns the median.
	median := func(reps int, fn func() time.Duration) time.Duration {
		fn() // warmup: page in components, settle the allocator
		fn()
		ds := make([]time.Duration, reps)
		for i := range ds {
			ds[i] = fn()
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		return ds[len(ds)/2]
	}

	mk := func(n int) *asterixdb.Instance {
		dir, err := os.MkdirTemp("", "asterixbench-readpath")
		if err != nil {
			log.Fatal(err)
		}
		b.tmpDirs = append(b.tmpDirs, dir)
		inst, err := asterixdb.Open(asterixdb.Config{DataDir: dir, Partitions: 4})
		if err != nil {
			log.Fatal(err)
		}
		if _, err := inst.Execute(workload.ReadPathDDL); err != nil {
			log.Fatal(err)
		}
		ds, _ := inst.Dataset("Big")
		const chunk = 10_000
		for lo := 1; lo <= n; lo += chunk {
			hi := lo + chunk - 1
			if hi > n {
				hi = n
			}
			recs := make([]*adm.Record, 0, hi-lo+1)
			for i := lo; i <= hi; i++ {
				recs = append(recs, adm.NewRecord(
					adm.Field{Name: "id", Value: adm.Int32(int32(i))},
					adm.Field{Name: "k", Value: adm.Int32(int32(i % 100))},
				))
			}
			if _, err := ds.InsertBatch(recs); err != nil {
				log.Fatal(err)
			}
		}
		// Collect the load-phase garbage before anything is measured: the
		// first few drains otherwise pay inflated GC assist costs while the
		// pacer works off the insert churn, skewing small-rep medians.
		runtime.GC()
		return inst
	}

	drain := func(inst *asterixdb.Instance, query string) (time.Duration, int) {
		start := time.Now()
		cur, err := inst.QueryStream(context.Background(), query)
		if err != nil {
			log.Fatal(err)
		}
		n := 0
		for cur.Next() {
			n++
		}
		if err := cur.Err(); err != nil {
			log.Fatal(err)
		}
		cur.Close()
		return time.Since(start), n
	}

	for _, n := range workload.ReadPathSizes {
		if n > *readpathMax {
			continue
		}
		inst := mk(n)
		resultRows := 0
		d := median(5, func() time.Duration {
			dd, rr := drain(inst, workload.ReadPathScanQuery)
			resultRows = rr
			return dd
		})
		report("full-scan", n, d, resultRows, true)

		d = median(5, func() time.Duration {
			start := time.Now()
			cur, err := inst.QueryStream(context.Background(), workload.ReadPathFirstRowQuery)
			if err != nil {
				log.Fatal(err)
			}
			if !cur.Next() {
				log.Fatal("no first row")
			}
			elapsed := time.Since(start)
			cur.Close()
			return elapsed
		})
		report("first-row", n, d, 1, false)

		// The expression pipeline at the middle size only: the measure is
		// per-tuple overhead, one size suffices. (BenchmarkReadPathFusion
		// compares it against the unfused job shape.)
		if n == 100_000 {
			resultRows = 0
			d := median(5, func() time.Duration {
				dd, rr := drain(inst, workload.ReadPathPipelineQuery)
				resultRows = rr
				return dd
			})
			report("pipeline-fused", n, d, resultRows, true)
		}
		inst.Close()
	}

	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("BENCH_readpath.json", append(data, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nwrote BENCH_readpath.json")

	if *baselineFlag != "" {
		if fails := workload.ReadPathRegressions(baseline, rows, *tolFlag); len(fails) > 0 {
			for _, f := range fails {
				fmt.Fprintln(os.Stderr, "REGRESSION:", f)
			}
			log.Fatalf("read path regressed against %s", *baselineFlag)
		}
		fmt.Printf("no full-scan regression against %s (tolerance %.0f%%)\n", *baselineFlag, *tolFlag*100)
	}
}
