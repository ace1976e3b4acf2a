// Benchmarks regenerating the paper's evaluation (Section 5.3): Table 2
// (dataset sizes under each system's storage format), Table 3 (query response
// times with and without indexes across the four systems), Table 4 (insert
// times for batch sizes 1 and 20) and the compile time of the Figure 6 job
// (TestFigure6JobShape -v prints the job itself), plus the out-of-core sweep
// and ablation benchmarks for the optimizer rules and the LSM memory budget.
// One sub-benchmark per table cell; run a table with
//
//	go test -run '^$' -bench Table3 -benchmem .
package asterixdb

import (
	"fmt"
	"testing"
	"time"

	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
	"asterixdb/internal/comparators"
	"asterixdb/internal/temporal"
	"asterixdb/internal/workload"
)

// benchScale is deliberately laptop-sized; the reproduced quantity is the
// *shape* of the comparisons (who wins and by roughly what factor), not the
// absolute seconds of the paper's 10-node cluster.
var benchScale = workload.Config{Users: 1000, Messages: 5000, Tweets: 2000, Seed: 7}

type benchEnv struct {
	gen      *workload.Generator
	params   workload.QueryParams
	users    []*adm.Record
	messages []*adm.Record

	asterixSchema  *Instance
	asterixKeyOnly *Instance
	rowstore       *comparators.RowStore
	docstore       *comparators.DocStore
	scanstore      *comparators.ScanStore
}

var sharedEnv *benchEnv

// getEnv lazily builds the shared benchmark environment (loading all systems
// once and reusing them across benchmarks, like the paper's warm runs).
func getEnv(b *testing.B) *benchEnv {
	b.Helper()
	if sharedEnv != nil {
		return sharedEnv
	}
	gen := workload.New(benchScale)
	env := &benchEnv{gen: gen, params: gen.Params(), users: gen.Users(), messages: gen.Messages()}

	// mkInstance loads the generated data under the given Datatypes; the
	// Schema and KeyOnly systems differ only in them.
	mkInstance := func(types string) *Instance {
		inst, err := Open(Config{DataDir: b.TempDir(), Partitions: 4})
		if err != nil {
			b.Fatal(err)
		}
		inst.EvalContext().Clock = temporal.FixedClock{T: time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)}
		ddl := types + `
create dataset MugshotUsers(MugshotUserType) primary key id;
create dataset MugshotMessages(MugshotMessageType) primary key message-id;
create index msTimestampIdx on MugshotMessages(timestamp);
create index msAuthorIdx on MugshotMessages(author-id) type btree;
create index msSenderLocIdx on MugshotMessages(sender-location) type rtree;
create index msMessageKwIdx on MugshotMessages(message) type keyword;
create index msMessageNgIdx on MugshotMessages(message) type ngram(3);
`
		if _, err := inst.Execute(ddl); err != nil {
			b.Fatal(err)
		}
		usersDS, _ := inst.Dataset("MugshotUsers")
		if _, err := usersDS.InsertBatch(env.users); err != nil {
			b.Fatal(err)
		}
		msgsDS, _ := inst.Dataset("MugshotMessages")
		if _, err := msgsDS.InsertBatch(env.messages); err != nil {
			b.Fatal(err)
		}
		return inst
	}
	env.asterixSchema = mkInstance(`
create type EmploymentType as open { organization-name: string, start-date: date, end-date: date? }
create type MugshotUserType as {
  id: int32, alias: string, name: string, user-since: datetime,
  address: { street: string, city: string, state: string, zip: string, country: string },
  friend-ids: {{ int32 }}, employment: [EmploymentType]
}
create type MugshotMessageType as closed {
  message-id: int32, author-id: int32, timestamp: datetime, in-response-to: int32?,
  sender-location: point?, tags: {{ string }}, message: string
}`)
	// KeyOnly declares only the primary key (workload.KeyOnlyUserType and
	// KeyOnlyMessageType): every other field is stored with its name.
	env.asterixKeyOnly = mkInstance(`
create type MugshotUserType as open { id: int32 }
create type MugshotMessageType as open { message-id: int32 }`)

	env.rowstore = comparators.NewRowStore()
	env.rowstore.LoadUsers(env.users)
	env.rowstore.LoadMessages(env.messages)
	env.rowstore.BuildIndexes(env.messages)

	env.docstore = comparators.NewDocStore()
	env.docstore.LoadUsers(env.users)
	env.docstore.LoadMessages(env.messages)
	env.docstore.BuildIndexes(env.messages)

	env.scanstore = comparators.NewScanStore()
	env.scanstore.LoadMessages(env.messages)

	sharedEnv = env
	return env
}

func (e *benchEnv) rangeQuery(lo, hi adm.Datetime) string {
	return fmt.Sprintf(`
for $m in dataset MugshotMessages
where $m.timestamp >= %s and $m.timestamp <= %s
return $m;`, lo, hi)
}

func (e *benchEnv) joinQuery(lo, hi adm.Datetime) string {
	return fmt.Sprintf(`
for $u in dataset MugshotUsers
for $m in dataset MugshotMessages
where $m.author-id = $u.id and $m.timestamp >= %s and $m.timestamp <= %s
return { "uname": $u.name, "message": $m.message };`, lo, hi)
}

func (e *benchEnv) aggQuery(lo, hi adm.Datetime) string {
	return fmt.Sprintf(`
avg(
  for $m in dataset MugshotMessages
  where $m.timestamp >= %s and $m.timestamp <= %s
  return string-length($m.message)
)`, lo, hi)
}

// spatialQuery selects the messages sent from a probe rectangle covering
// roughly one ninth of the generator's sender-location space; with the index
// enabled it compiles into the per-partition R-tree access path.
func (e *benchEnv) spatialQuery() string {
	return `
for $m in dataset MugshotMessages
where spatial-intersect($m.sender-location, create-rectangle(create-point(25.0, 75.0), create-point(35.0, 85.0)))
return $m.message-id;`
}

// similarityQuery selects messages whose text contains a probe substring;
// with the index enabled it compiles into the per-partition ngram
// inverted-index access path ("data" also matches inside "database").
func (e *benchEnv) similarityQuery() string {
	return `
for $m in dataset MugshotMessages
where contains($m.message, "data")
return $m.message-id;`
}

// keywordQuery selects messages containing an exact word token; with the
// index enabled it compiles into the per-partition keyword access path.
func (e *benchEnv) keywordQuery() string {
	return `
for $m in dataset MugshotMessages
where (some $w in word-tokens($m.message) satisfies $w = "tonight")
return $m.message-id;`
}

func (e *benchEnv) grpAggQuery(lo, hi adm.Datetime) string {
	return fmt.Sprintf(`
for $m in dataset MugshotMessages
where $m.timestamp >= %s and $m.timestamp <= %s
group by $aid := $m.author-id with $m
let $cnt := count($m)
order by $cnt desc
limit 10
return { "author": $aid, "cnt": $cnt };`, lo, hi)
}

// ----------------------------------------------------------------------------
// Table 2: dataset sizes
// ----------------------------------------------------------------------------

// BenchmarkTable2DatasetSizes reports the stored size of the message dataset
// under each system's format as bytes/op metrics (one iteration measures the
// already-loaded stores). The Asterix numbers are the dataset's component
// files once flushed (Dataset.SizeBytes), its five secondary indexes
// included, which the comparators do not build; Schema stays below
// KeyOnly, and scanstore (Hive/ORC) is the smallest.
func BenchmarkTable2DatasetSizes(b *testing.B) {
	env := getEnv(b)
	schemaDS, _ := env.asterixSchema.Dataset("MugshotMessages")
	keyonlyDS, _ := env.asterixKeyOnly.Dataset("MugshotMessages")
	sSize, _ := schemaDS.SizeBytes()
	kSize, _ := keyonlyDS.SizeBytes()
	for i := 0; i < b.N; i++ {
		_ = sSize
	}
	b.ReportMetric(float64(sSize), "asterix-schema-bytes")
	b.ReportMetric(float64(kSize), "asterix-keyonly-bytes")
	b.ReportMetric(float64(env.rowstore.SizeBytes()), "systemx-bytes")
	b.ReportMetric(float64(env.docstore.SizeBytes()), "mongo-bytes")
	b.ReportMetric(float64(env.scanstore.SizeBytes()), "hive-bytes")
}

// ----------------------------------------------------------------------------
// Table 3: query response times
// ----------------------------------------------------------------------------

func BenchmarkTable3RecordLookup(b *testing.B) {
	env := getEnv(b)
	key := env.params.LookupKey
	b.Run("AsterixSchema", func(b *testing.B) {
		ds, _ := env.asterixSchema.Dataset("MugshotMessages")
		for i := 0; i < b.N; i++ {
			if _, ok, _ := ds.LookupPK(key); !ok {
				b.Fatal("lookup missed")
			}
		}
	})
	b.Run("AsterixKeyOnly", func(b *testing.B) {
		ds, _ := env.asterixKeyOnly.Dataset("MugshotMessages")
		for i := 0; i < b.N; i++ {
			ds.LookupPK(key)
		}
	})
	// The same lookup as the statement a client sends: parse, compile, job,
	// primary search.
	b.Run("AsterixQuery", func(b *testing.B) {
		query := fmt.Sprintf(`for $m in dataset MugshotMessages where $m.message-id = %d return $m;`, key)
		for i := 0; i < b.N; i++ {
			if res, err := env.asterixSchema.Query(query); err != nil || len(res) != 1 {
				b.Fatalf("lookup returned %d rows (%v)", len(res), err)
			}
		}
	})
	b.Run("SystemX", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env.rowstore.RecordLookup(adm.Int32(1))
		}
	})
	b.Run("Mongo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env.docstore.RecordLookup(adm.Int32(1))
		}
	})
	b.Run("Hive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env.scanstore.RecordLookup(int32(key))
		}
	})
}

func benchAsterixQuery(b *testing.B, inst *Instance, query string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Query(query); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAsterixQueryOpts benchmarks a query under per-call optimizer options.
func benchAsterixQueryOpts(b *testing.B, inst *Instance, query string, opts algebra.Options) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := inst.QueryWithOptions(query, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// indexModes are the two halves of a Table 3 row: the row itself, with the
// optimizer's index access path disabled so every system scans, and its
// "-- with IX" row.
var indexModes = []struct {
	name      string
	withIndex bool
}{{"NoIndex", false}, {"WithIndex", true}}

// benchAsterix measures query as a row's two Asterix columns, the Schema and
// KeyOnly Datatypes, under AsterixSchema/<suffix> and AsterixKeyOnly/<suffix>.
func (e *benchEnv) benchAsterix(b *testing.B, suffix, query string, withIndex bool) {
	opts := algebra.Options{DisableIndexAccess: !withIndex}
	b.Run("AsterixSchema/"+suffix, func(b *testing.B) { benchAsterixQueryOpts(b, e.asterixSchema, query, opts) })
	b.Run("AsterixKeyOnly/"+suffix, func(b *testing.B) { benchAsterixQueryOpts(b, e.asterixKeyOnly, query, opts) })
}

// benchAsterixRow measures a row only Asterix can answer, with and without
// its index.
func benchAsterixRow(b *testing.B, query string) {
	env := getEnv(b)
	for _, m := range indexModes {
		env.benchAsterix(b, m.name, query, m.withIndex)
	}
}

// BenchmarkTable3RangeScan covers the "Range Scan" and "-- with IX" rows.
// Hive has no index, so its one cell serves both rows.
func BenchmarkTable3RangeScan(b *testing.B) {
	env := getEnv(b)
	lo, hi := env.params.SmallLo, env.params.SmallHi
	query := env.rangeQuery(lo, hi)
	for _, m := range indexModes {
		suffix, withIndex := m.name, m.withIndex
		env.benchAsterix(b, suffix, query, withIndex)
		b.Run("SystemX/"+suffix, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env.rowstore.RangeScanMessages(lo, hi, withIndex)
			}
		})
		b.Run("Mongo/"+suffix, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				env.docstore.RangeScanMessages(lo, hi, withIndex)
			}
		})
		if !withIndex {
			b.Run("Hive/NoIndex", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					env.scanstore.RangeScanMessages(lo, hi)
				}
			})
		}
	}
}

// BenchmarkTable3SelectJoin covers the "Sel-Join (Sm)" and "Sel-Join (Lg)"
// rows and their "-- with IX" rows.
func BenchmarkTable3SelectJoin(b *testing.B) {
	env := getEnv(b)
	userIDs := make([]int32, len(env.users))
	for i := range userIDs {
		userIDs[i] = int32(i + 1)
	}
	for _, sel := range []struct {
		name   string
		lo, hi adm.Datetime
	}{
		{"Small", env.params.SmallLo, env.params.SmallHi},
		{"Large", env.params.LargeLo, env.params.LargeHi},
	} {
		query := env.joinQuery(sel.lo, sel.hi)
		for _, m := range indexModes {
			suffix, withIndex := sel.name+"/"+m.name, m.withIndex
			env.benchAsterix(b, suffix, query, withIndex)
			b.Run("SystemX/"+suffix, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					env.rowstore.SelectJoin(sel.lo, sel.hi, withIndex)
				}
			})
			b.Run("Mongo/"+suffix, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					env.docstore.ClientSideJoin(sel.lo, sel.hi, withIndex)
				}
			})
			if !withIndex {
				b.Run("Hive/"+sel.name+"/NoIndex", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						env.scanstore.SelectJoin(sel.lo, sel.hi, userIDs)
					}
				})
			}
		}
	}
}

// BenchmarkTable3Aggregation covers the "Agg" rows (the paper's is Large)
// and their "-- with IX" rows.
func BenchmarkTable3Aggregation(b *testing.B) {
	env := getEnv(b)
	for _, sel := range []struct {
		name   string
		lo, hi adm.Datetime
	}{
		{"Small", env.params.SmallLo, env.params.SmallHi},
		{"Large", env.params.LargeLo, env.params.LargeHi},
	} {
		query := env.aggQuery(sel.lo, sel.hi)
		for _, m := range indexModes {
			suffix, withIndex := sel.name+"/"+m.name, m.withIndex
			env.benchAsterix(b, suffix, query, withIndex)
			b.Run("SystemX/"+suffix, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					env.rowstore.Aggregate(sel.lo, sel.hi, withIndex)
				}
			})
			b.Run("Mongo/"+suffix, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					env.docstore.AggregateMapReduce(sel.lo, sel.hi, withIndex)
				}
			})
			if !withIndex {
				b.Run("Hive/"+sel.name+"/NoIndex", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						env.scanstore.Aggregate(sel.lo, sel.hi)
					}
				})
			}
		}
	}
}

func BenchmarkTable3GroupedAggregation(b *testing.B) {
	env := getEnv(b)
	benchAsterixRow(b, env.grpAggQuery(env.params.SmallLo, env.params.SmallHi))
}

// BenchmarkTable3Spatial and BenchmarkTable3Similarity are Table 3's
// Asterix-only rows (the comparator stores have no spatial or text indexes):
// the R-tree and ngram inverted-index access paths against a full scan.
func BenchmarkTable3Spatial(b *testing.B) { benchAsterixRow(b, getEnv(b).spatialQuery()) }

func BenchmarkTable3Similarity(b *testing.B) { benchAsterixRow(b, getEnv(b).similarityQuery()) }

// BenchmarkKeywordQuery is the keyword inverted-index access path against a
// full scan.
func BenchmarkKeywordQuery(b *testing.B) { benchAsterixRow(b, getEnv(b).keywordQuery()) }

// ----------------------------------------------------------------------------
// Table 4: insert times (batch sizes 1 and 20)
// ----------------------------------------------------------------------------

func BenchmarkTable4Inserts(b *testing.B) {
	gen := workload.New(benchScale)
	nextID := 1_000_000
	for _, batch := range []int{1, 20} {
		b.Run(fmt.Sprintf("AsterixSchema/batch%d", batch), func(b *testing.B) {
			inst, err := Open(Config{DataDir: b.TempDir(), Partitions: 4, Journaled: true})
			if err != nil {
				b.Fatal(err)
			}
			defer inst.Close()
			if _, err := inst.Execute(`
create type M as closed { message-id: int32, author-id: int32, timestamp: datetime, in-response-to: int32?, sender-location: point?, tags: {{ string }}, message: string }
create dataset Msgs(M) primary key message-id;`); err != nil {
				b.Fatal(err)
			}
			ds, _ := inst.Dataset("Msgs")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				recs := make([]*adm.Record, batch)
				for j := range recs {
					nextID++
					recs[j] = gen.Message(1).Set("message-id", adm.Int32(int32(nextID)))
				}
				if _, err := ds.InsertBatch(recs); err != nil {
					b.Fatal(err)
				}
			}
			// Normalize to per-record time.
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/record")
		})
		b.Run(fmt.Sprintf("SystemX/batch%d", batch), func(b *testing.B) {
			rs := comparators.NewRowStore()
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch; j++ {
					nextID++
					rs.Insert(gen.Message(1).Set("message-id", adm.Int32(int32(nextID))))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/record")
		})
		b.Run(fmt.Sprintf("Mongo/batch%d", batch), func(b *testing.B) {
			dsStore := comparators.NewDocStore()
			for i := 0; i < b.N; i++ {
				for j := 0; j < batch; j++ {
					nextID++
					dsStore.Insert(gen.Message(1).Set("message-id", adm.Int32(int32(nextID))))
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/record")
		})
	}
}

// ----------------------------------------------------------------------------
// Figure 6: compiled job for Query 10
// ----------------------------------------------------------------------------

func BenchmarkFigure6JobCompilation(b *testing.B) {
	env := getEnv(b)
	query := env.aggQuery(env.params.SmallLo, env.params.SmallHi)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := env.asterixSchema.compileJob(query); err != nil {
			b.Fatal(err)
		}
	}
}

// ----------------------------------------------------------------------------
// Scale-out (Section 4.1's cluster anecdote, simulated via partitions)
// ----------------------------------------------------------------------------

func BenchmarkHyracksScaleOut(b *testing.B) {
	gen := workload.New(workload.Config{Users: 200, Messages: 4000, Seed: 3})
	messages := gen.Messages()
	for _, partitions := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("partitions-%d", partitions), func(b *testing.B) {
			inst, err := Open(Config{DataDir: b.TempDir(), Partitions: partitions})
			if err != nil {
				b.Fatal(err)
			}
			defer inst.Close()
			if _, err := inst.Execute(`
create type M as closed { message-id: int32, author-id: int32, timestamp: datetime, in-response-to: int32?, sender-location: point?, tags: {{ string }}, message: string }
create dataset Msgs(M) primary key message-id;`); err != nil {
				b.Fatal(err)
			}
			ds, _ := inst.Dataset("Msgs")
			if _, err := ds.InsertBatch(messages); err != nil {
				b.Fatal(err)
			}
			query := `avg(for $m in dataset Msgs return string-length($m.message))`
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := inst.Query(query); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ----------------------------------------------------------------------------
// Ablation benches
// ----------------------------------------------------------------------------

// BenchmarkAblationAggSplit compares Query 10 with and without the
// local/global aggregation split rule.
func BenchmarkAblationAggSplit(b *testing.B) {
	env := getEnv(b)
	query := env.aggQuery(env.params.LargeLo, env.params.LargeHi)
	for _, disable := range []bool{false, true} {
		name := "split"
		if disable {
			name = "no-split"
		}
		b.Run(name, func(b *testing.B) {
			benchAsterixQueryOpts(b, env.asterixSchema, query, algebra.Options{DisableAggSplit: disable})
		})
	}
}

// BenchmarkAblationPKSort toggles the primary-key sort between the secondary
// and primary index searches.
func BenchmarkAblationPKSort(b *testing.B) {
	env := getEnv(b)
	query := env.rangeQuery(env.params.LargeLo, env.params.LargeHi)
	for _, disable := range []bool{false, true} {
		name := "pk-sort"
		if disable {
			name = "no-pk-sort"
		}
		b.Run(name, func(b *testing.B) {
			benchAsterixQueryOpts(b, env.asterixSchema, query, algebra.Options{DisablePKSort: disable})
		})
	}
}

// BenchmarkAblationLSMMemBudget sweeps the LSM in-memory component budget to
// show the ingestion/flush trade-off.
func BenchmarkAblationLSMMemBudget(b *testing.B) {
	gen := workload.New(workload.Config{Users: 100, Messages: 1000, Seed: 5})
	for _, budget := range []int{16 << 10, 256 << 10, 4 << 20} {
		b.Run(fmt.Sprintf("membudget-%dKiB", budget>>10), func(b *testing.B) {
			inst, err := Open(Config{DataDir: b.TempDir(), Partitions: 2, MemBudget: budget})
			if err != nil {
				b.Fatal(err)
			}
			defer inst.Close()
			if _, err := inst.Execute(`
create type M as closed { message-id: int32, author-id: int32, timestamp: datetime, in-response-to: int32?, sender-location: point?, tags: {{ string }}, message: string }
create dataset Msgs(M) primary key message-id;`); err != nil {
				b.Fatal(err)
			}
			ds, _ := inst.Dataset("Msgs")
			next := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				next++
				rec := gen.Message(1).Set("message-id", adm.Int32(int32(next)))
				if err := ds.Insert(rec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ----------------------------------------------------------------------------
// Out-of-core runtime: one query per spillable blocking operator, run
// unconstrained and at budgets that force it to spill. Each cell reports its
// latency and the job's spill counters; the acceptance shape is graceful
// slowdown under pressure, never failure.
// ----------------------------------------------------------------------------

// spillBudgetLevels is the budget sweep: unconstrained, lightly constrained,
// heavily constrained.
var spillBudgetLevels = []int64{0, 256 << 10, 32 << 10}

// spillBenchDDL creates the Mugshot datasets the spill queries run over.
const spillBenchDDL = `
create type SpillBenchUserType as closed { id: int32, alias: string, name: string, user-since: datetime,
  address: { street: string, city: string, state: string, zip: string, country: string },
  friend-ids: {{ int32 }}, employment: [{ organization-name: string, start-date: date, end-date: date? }] }
create type SpillBenchMsgType as closed { message-id: int32, author-id: int32, timestamp: datetime, in-response-to: int32?,
  sender-location: point?, tags: {{ string }}, message: string }
create dataset MugshotUsers(SpillBenchUserType) primary key id;
create dataset MugshotMessages(SpillBenchMsgType) primary key message-id;`

// spillBenchQueries are one workload per spillable blocking operator, plus
// the sort with a limit directly above it, which keeps only k rows.
var spillBenchQueries = []struct {
	name  string
	query string
}{
	{"scan-join", `
for $u in dataset MugshotUsers
for $m in dataset MugshotMessages
where $m.author-id = $u.id
return { "u": $u.id, "m": $m.message-id };`},
	{"sort", `
for $m in dataset MugshotMessages
order by $m.message, $m.message-id
return $m.message-id;`},
	{"topk", `
for $m in dataset MugshotMessages
order by $m.message desc, $m.message-id
limit 10
return $m.message-id;`},
	{"group-by", `
for $m in dataset MugshotMessages
group by $a := $m.author-id with $m
return { "a": $a, "n": count($m) };`},
}

func newSpillBenchInstance(b *testing.B, budget int64) *Instance {
	b.Helper()
	inst, err := Open(Config{DataDir: b.TempDir(), Partitions: 4, MemoryBudget: budget})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { inst.Close() })
	inst.EvalContext().Clock = temporal.FixedClock{T: time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)}
	if _, err := inst.Execute(spillBenchDDL); err != nil {
		b.Fatal(err)
	}
	gen := workload.New(workload.Config{Users: 300, Messages: 4000, Seed: 9})
	usersDS, _ := inst.Dataset("MugshotUsers")
	if _, err := usersDS.InsertBatch(gen.Users()); err != nil {
		b.Fatal(err)
	}
	msgsDS, _ := inst.Dataset("MugshotMessages")
	if _, err := msgsDS.InsertBatch(gen.Messages()); err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkSpillBudgets measures every workload at every budget level.
func BenchmarkSpillBudgets(b *testing.B) {
	// Neutralize an env-driven budget so the unconstrained level really is.
	b.Setenv("ASTERIXDB_MEMORY_BUDGET", "")
	for _, budget := range spillBudgetLevels {
		inst := newSpillBenchInstance(b, budget)
		for _, q := range spillBenchQueries {
			b.Run(fmt.Sprintf("%s/budget-%dKiB", q.name, budget>>10), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := inst.Query(q.query); err != nil {
						b.Fatal(err)
					}
				}
				// One instrumented run outside the timing loop collects the
				// job's spill counters.
				b.StopTimer()
				job, _, err := inst.compileJob(q.query)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := inst.runJob(job); err != nil {
					b.Fatal(err)
				}
				st := job.Spill.Stats()
				b.ReportMetric(float64(st.RunsCreated), "runs")
				b.ReportMetric(float64(st.TuplesSpilled), "tuples-spilled")
				b.ReportMetric(float64(st.BytesSpilled), "bytes-spilled")
				b.ReportMetric(float64(st.PeakResident), "peak-resident-bytes")
			})
		}
	}
}

// BenchmarkExecutorHyracksVsInterpreter compares the pipelined Hyracks jobs
// against the materializing interpreter oracle (the acceptance bar for the
// compiled path: no slower than the interpreter it replaced).
func BenchmarkExecutorHyracksVsInterpreter(b *testing.B) {
	env := getEnv(b)
	queries := []struct {
		name  string
		query string
	}{
		{"RangeScan", env.rangeQuery(env.params.LargeLo, env.params.LargeHi)},
		{"Join", env.joinQuery(env.params.LargeLo, env.params.LargeHi)},
		{"Aggregate", env.aggQuery(env.params.LargeLo, env.params.LargeHi)},
		{"GroupedAggregate", env.grpAggQuery(env.params.LargeLo, env.params.LargeHi)},
		{"Spatial", env.spatialQuery()},
		{"Similarity", env.similarityQuery()},
	}
	for _, q := range queries {
		b.Run(q.name+"/Hyracks", func(b *testing.B) {
			benchAsterixQuery(b, env.asterixSchema, q.query)
		})
		b.Run(q.name+"/Interpreter", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := env.asterixSchema.interpret(q.query, algebra.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// nestedUsers and nestedMessages size BenchmarkNestedQuery4: k outer users
// of 500 whose messages, 40 each, lie among 20 000.
const nestedUsers, nestedMessages = 500, 20000

// BenchmarkNestedQuery4 times the paper's Query 4, a nested left outer-join,
// over a window of k users by id: each user comes back with the list of its
// messages, read by one nest join per statement.
func BenchmarkNestedQuery4(b *testing.B) {
	inst, err := Open(Config{DataDir: b.TempDir(), Partitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer inst.Close()
	if _, err := inst.Execute(`create type U as closed { id: int64, name: string }
create type M as closed { id: int64, a: int64, msg: string }
create dataset NestU(U) primary key id;
create dataset NestM(M) primary key id;`); err != nil {
		b.Fatal(err)
	}
	users, _ := inst.Dataset("NestU")
	msgs, _ := inst.Dataset("NestM")
	var us, ms []*adm.Record
	for i := 0; i < nestedUsers; i++ {
		us = append(us, adm.NewRecord(adm.Field{Name: "id", Value: adm.Int64(int64(i))},
			adm.Field{Name: "name", Value: adm.String(fmt.Sprintf("user%d", i))}))
	}
	for i := 0; i < nestedMessages; i++ {
		ms = append(ms, adm.NewRecord(adm.Field{Name: "id", Value: adm.Int64(int64(i))},
			adm.Field{Name: "a", Value: adm.Int64(int64(i % nestedUsers))},
			adm.Field{Name: "msg", Value: adm.String(fmt.Sprintf("message %d", i))}))
	}
	if _, err := users.InsertBatch(us); err != nil {
		b.Fatal(err)
	}
	if _, err := msgs.InsertBatch(ms); err != nil {
		b.Fatal(err)
	}
	const k = 25
	query := fmt.Sprintf(`for $u in dataset NestU where $u.id < %d
return { "u": $u.name, "ms": for $m in dataset NestM where $m.a = $u.id return $m.msg }`, k)
	b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			vals, err := inst.Query(query)
			if err != nil {
				b.Fatal(err)
			}
			if len(vals) != k {
				b.Fatalf("%d users, want %d", len(vals), k)
			}
		}
	})
}
