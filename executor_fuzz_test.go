package asterixdb

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"asterixdb/internal/adm"
	"asterixdb/internal/algebra"
	"asterixdb/internal/temporal"
)

// This file is the randomized differential-testing harness: it generates
// random datasets (ints, strings, points, nested lists, and numbers stored at
// random widths under wider declared types), draws queries from
// templates covering every compiled access path — scan/filter, primary-key
// equality, B+-tree range, R-tree spatial, inverted-index text search,
// correlated unnest, hash and index-probed (indexnl) joins, group-by,
// aggregation, order/limit — and asserts that the pipelined Hyracks executor
// and the materializing interpreter oracle agree on every query under every
// optimizer-option set. It runs both as a seeded deterministic test
// (TestDifferentialFuzzSeeded) and as a native fuzz target (go test
// -fuzz=FuzzDifferential).

// fuzzVocab is the text vocabulary; small enough that keyword, ngram and
// equality probes regularly hit.
var fuzzVocab = []string{"alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india", "juliet"}

const fuzzDDL = `
create type FuzzRecType as closed {
  id: int32,
  cat: int32,
  score: int32,
  text: string,
  loc: point,
  tags: [string]
}
create dataset FuzzA(FuzzRecType) primary key id;
create dataset FuzzB(FuzzRecType) primary key id;
create index faScoreIdx on FuzzA(score);
create index faLocIdx on FuzzA(loc) type rtree;
create index faTextKwIdx on FuzzA(text) type keyword;
create index faTextNgIdx on FuzzA(text) type ngram(3);
create index fbCatIdx on FuzzB(cat);
create type FuzzWideType as closed { id: int64, v: double, l: [double] }
create type FuzzNarrowType as closed { id: int16, v: int32, l: [int32] }
create dataset FuzzWide(FuzzWideType) primary key id;
create dataset FuzzNarrow(FuzzNarrowType) primary key id;
create index fwVIdx on FuzzWide(v);
create function fzShift($r, $k) { $r.score + $k };
create function fzBand($r) { fzShift($r, 0) - fzShift($r, 0) % 100 };
create function fzSameCat($c) { for $b in dataset FuzzB where $b.cat = $c return $b.id };
`

// fuzzCoord draws a spatial coordinate from [-50, 100): both signs and every
// binade edge between them, and, one draw in eight, an exact multiple of 16
// that records and probe corners then share.
func fuzzCoord(rng *rand.Rand) float64 {
	if rng.Intn(8) == 0 {
		return float64(rng.Intn(9)-3) * 16
	}
	return rng.Float64()*150 - 50
}

// fuzzRecord builds one random record. Every field the query templates touch
// is drawn from a range narrow enough that predicates select non-trivial
// subsets.
func fuzzRecord(rng *rand.Rand, id int) *adm.Record {
	nWords := 2 + rng.Intn(5)
	words := make([]string, nWords)
	for i := range words {
		words[i] = fuzzVocab[rng.Intn(len(fuzzVocab))]
	}
	nTags := rng.Intn(4)
	tags := make([]adm.Value, nTags)
	for i := range tags {
		tags[i] = adm.String(fuzzVocab[rng.Intn(len(fuzzVocab))])
	}
	return adm.NewRecord(
		adm.Field{Name: "id", Value: adm.Int32(int32(id))},
		adm.Field{Name: "cat", Value: adm.Int32(int32(rng.Intn(8)))},
		adm.Field{Name: "score", Value: adm.Int32(int32(rng.Intn(1000)))},
		adm.Field{Name: "text", Value: adm.String(strings.Join(words, " "))},
		adm.Field{Name: "loc", Value: adm.Point{X: fuzzCoord(rng), Y: fuzzCoord(rng)}},
		adm.Field{Name: "tags", Value: &adm.OrderedList{Items: tags}},
	)
}

// buildFuzzPair creates the Hyracks instance, a fusion-disabled Hyracks
// instance and an eager-decode Hyracks instance over identical random data,
// applying the same interleaved inserts, overwrites, deletes and an LSM flush
// to all three; the interpreter oracle (Instance.interpret) reads the first
// instance's data. A non-zero memoryBudget constrains the blocking operators
// of the jobs (the interpreter never spills and ignores it), so the whole
// template suite doubles as an out-of-core differential test; the no-fusion
// instance makes it a fused-vs-unfused differential test, and the
// eager-decode instance a lazy-vs-eager record-format differential test.
func buildFuzzPair(t testing.TB, rng *rand.Rand, memoryBudget int64) (*Instance, *Instance, *Instance) {
	t.Helper()
	clock := temporal.FixedClock{T: time.Date(2014, 3, 1, 0, 0, 0, 0, time.UTC)}
	mk := func(v variant) *Instance {
		inst, err := open(Config{DataDir: t.TempDir(), Partitions: 3, MemoryBudget: memoryBudget}, v)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { inst.Close() })
		inst.EvalContext().Clock = clock
		if _, err := inst.Execute(fuzzDDL); err != nil {
			t.Fatal(err)
		}
		return inst
	}
	hy, hyNoFuse, hyEager := mk(variant{}), mk(variant{unfused: true}), mk(variant{eagerDecode: true})

	nA, nB := 40+rng.Intn(60), 20+rng.Intn(40)
	var batchA, batchB []*adm.Record
	for i := 1; i <= nA; i++ {
		batchA = append(batchA, fuzzRecord(rng, i))
	}
	for i := 1; i <= nB; i++ {
		batchB = append(batchB, fuzzRecord(rng, i))
	}
	// Overwrites (duplicate primary keys replace the old record and its
	// secondary entries) and deletes exercise index maintenance.
	var overwrites []*adm.Record
	for i := 0; i < 8; i++ {
		overwrites = append(overwrites, fuzzRecord(rng, 1+rng.Intn(nA)))
	}
	var deletes []int32
	for i := 0; i < 6; i++ {
		deletes = append(deletes, int32(1+rng.Intn(nA)))
	}
	// Numbers written at random widths the declared types accept; equal
	// numbers written twice as a key are one key, so the later replaces the
	// earlier. A list holds up to two of 1 and 2, each at a random width, so
	// equal lists are often written at different widths.
	widthRecords := func(n, idWidths, vWidths int) string {
		recs := make([]string, n)
		for i := range recs {
			items := make([]string, rng.Intn(3))
			for j := range items {
				items[j] = fmt.Sprintf(`%s("%d")`, keyWidths[rng.Intn(vWidths)], 1+rng.Intn(2))
			}
			recs[i] = fmt.Sprintf(`{"id": %s, "v": %s, "l": [%s]}`, randomKeyLiteral(rng, idWidths), randomKeyLiteral(rng, vWidths), strings.Join(items, ", "))
		}
		return strings.Join(recs, ", ")
	}
	widthInserts := fmt.Sprintf("insert into dataset FuzzWide ([%s]);\ninsert into dataset FuzzNarrow ([%s]);",
		widthRecords(10+rng.Intn(10), 4, 6), widthRecords(6+rng.Intn(6), 2, 3))
	for _, inst := range []*Instance{hy, hyNoFuse, hyEager} {
		if _, err := inst.Execute(widthInserts); err != nil {
			t.Fatal(err)
		}
		dsA, _ := inst.Dataset("FuzzA")
		dsB, _ := inst.Dataset("FuzzB")
		if _, err := dsA.InsertBatch(batchA); err != nil {
			t.Fatal(err)
		}
		if _, err := dsB.InsertBatch(batchB); err != nil {
			t.Fatal(err)
		}
		if _, err := dsA.InsertBatch(overwrites); err != nil {
			t.Fatal(err)
		}
		if err := dsA.Flush(); err != nil {
			t.Fatal(err)
		}
		for _, id := range deletes {
			if _, err := dsA.Delete(adm.Int32(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return hy, hyNoFuse, hyEager
}

// fuzzQueries draws one query per template, parameterized by the rng. Ordered
// queries sort on keys that end in a unique one so both executors must
// produce the exact sequence; the rest are compared as multisets.
func fuzzQueries(rng *rand.Rand) []diffQuery {
	word := func() string { return fuzzVocab[rng.Intn(len(fuzzVocab))] }
	lo := rng.Intn(900)
	hi := lo + rng.Intn(1000-lo)
	x1, y1 := fuzzCoord(rng), fuzzCoord(rng)
	x2, y2 := x1+rng.Float64()*40, y1+rng.Float64()*40
	sub := word()
	sub = sub[:3+rng.Intn(len(sub)-2)] // random prefix, at least gram length
	return []diffQuery{
		{"scan-filter", fmt.Sprintf(`for $r in dataset FuzzA where $r.cat = %d return $r;`, rng.Intn(8)), false, false},
		{"btree-range", fmt.Sprintf(`for $r in dataset FuzzA where $r.score >= %d and $r.score <= %d return $r.id;`, lo, hi), false, false},
		{"rtree-spatial", fmt.Sprintf(
			`for $r in dataset FuzzA where spatial-intersect($r.loc, create-rectangle(create-point(%.4f, %.4f), create-point(%.4f, %.4f))) return $r.id;`,
			x1, y1, x2, y2), false, false},
		{"contains-ngram", fmt.Sprintf(`for $r in dataset FuzzA where contains($r.text, "%s") return $r.id;`, sub), false, false},
		{"keyword-some", fmt.Sprintf(`for $r in dataset FuzzA where (some $w in word-tokens($r.text) satisfies $w = "%s") return $r.id;`, word()), false, false},
		{"unnest", `for $r in dataset FuzzA for $t in $r.tags return { "id": $r.id, "t": $t };`, false, false},
		{"unnest-filter", fmt.Sprintf(`for $r in dataset FuzzA for $t in $r.tags where $t = "%s" return $r.id;`, word()), false, false},
		{"hash-join", fmt.Sprintf(
			`for $a in dataset FuzzA for $b in dataset FuzzB where $a.cat = $b.cat and $a.score >= %d return { "a": $a.id, "b": $b.id };`, lo), false, false},
		// Single-side conjuncts are selects below the join: FuzzA's score
		// range reaches faScoreIdx there, FuzzB's conjunct filters its scan.
		{"join-filter-both-sides", fmt.Sprintf(
			`for $a in dataset FuzzA for $b in dataset FuzzB where $a.cat = $b.cat and $a.score >= %d and $a.score <= %d and $b.cat != %d return { "a": $a.id, "b": $b.id };`,
			lo, hi, rng.Intn(8)), false, false},
		// The key of the top join is between its two inner inputs, and the
		// first join gets its key from the conjunct pushed onto it.
		{"join-3way", fmt.Sprintf(
			`for $a in dataset FuzzA for $b in dataset FuzzB for $c in dataset FuzzB where $b.cat = $a.cat and $c.id = $b.id and $a.score < %d return { "a": $a.id, "b": $b.id, "c": $c.score };`, hi), false, false},
		{"join-let-key", fmt.Sprintf(
			`for $a in dataset FuzzA let $k := $a.cat for $b in dataset FuzzB where $b.cat = $k and $b.score > %d return { "a": $a.id, "b": $b.id };`, lo), false, false},
		{"indexnl-join", `for $a in dataset FuzzA for $b in dataset FuzzB where $a.cat /*+ indexnl */ = $b.cat return { "a": $a.id, "b": $b.id };`, false, false},
		{"indexnl-join-pk", `for $b in dataset FuzzB for $a in dataset FuzzA where $b.score /*+ indexnl */ = $a.id return { "a": $a.id, "b": $b.id };`, false, false},
		{"group-by", `for $r in dataset FuzzA group by $c := $r.cat with $r return { "c": $c, "n": count($r) };`, false, false},
		// The with-variable folded for count and iterated as its listify.
		{"group-bag-and-count", `for $r in dataset FuzzA group by $c := $r.cat with $r return { "c": $c, "n": count($r), "m": count(for $x in $r where $x.id > 0 return $x) };`, false, false},
		{"agg-sum", fmt.Sprintf(`sum(for $r in dataset FuzzA where $r.score <= %d return $r.score)`, hi), true, false},
		{"agg-avg", `avg(for $r in dataset FuzzB return $r.score)`, true, false},
		{"order-limit", fmt.Sprintf(`for $r in dataset FuzzA order by $r.id desc limit %d return $r.id;`, 1+rng.Intn(20)), true, false},
		// The int32 key probed at any width: the primary index must find the
		// number whatever width it was written at.
		{"pk-equality", fmt.Sprintf(`for $r in dataset FuzzA where $r.id = %s("%d") return $r;`,
			keyWidths[rng.Intn(len(keyWidths))], 1+rng.Intn(100)), false, false},
		// A computed key with many ties (cat % 3) broken by the unique id,
		// above a select, with an offset: the sort keeps offset+limit rows
		// behind a cut.
		{"topk-computed-offset", fmt.Sprintf(
			`for $r in dataset FuzzA where $r.score >= %d order by $r.cat %% 3 desc, $r.id limit %d offset %d return { "id": $r.id, "k": $r.cat %% 3 };`,
			rng.Intn(500), 1+rng.Intn(20), rng.Intn(10)), true, false},
		{"group-topk", fmt.Sprintf(
			`for $r in dataset FuzzB group by $c := $r.cat with $r order by count($r) desc, $c limit %d return { "c": $c, "n": count($r) };`,
			1+rng.Intn(5)), true, false},
		// Numbers stored and probed at random widths, joined across declared
		// widths (int16 and int32 against int64 and double): a key is written
		// from the number's value, so every access path agrees with `=`. A
		// group's key keeps the width of whichever member came first, so the
		// group returns it as a double.
		{"width-btree-range", fmt.Sprintf(`for $r in dataset FuzzWide where $r.v >= %s and $r.v <= %s return $r.id;`,
			randomKeyLiteral(rng, 6), randomKeyLiteral(rng, 6)), false, false},
		{"width-btree-eq", fmt.Sprintf(`for $r in dataset FuzzWide where $r.v = %s return $r.id;`, randomKeyLiteral(rng, 6)), false, false},
		{"width-pk-eq", fmt.Sprintf(`for $r in dataset FuzzNarrow where $r.id = %s return $r;`, randomKeyLiteral(rng, 6)), false, false},
		{"width-group-by", `for $r in dataset FuzzWide group by $v := $r.v with $r return { "v": $v + 0.0, "n": count($r) };`, false, false},
		{"width-join", `for $a in dataset FuzzNarrow for $b in dataset FuzzWide where $a.v = $b.id return { "a": $a.id, "b": $b.id };`, false, false},
		{"width-indexnl-join-pk", `for $a in dataset FuzzNarrow for $b in dataset FuzzWide where $a.v /*+ indexnl */ = $b.id return { "a": $a.id, "b": $b.id };`, false, false},
		{"width-indexnl-join", `for $a in dataset FuzzNarrow for $b in dataset FuzzWide where $a.id /*+ indexnl */ = $b.v return { "a": $a.id, "b": $b.id };`, false, false},
		// Lists whose items were written at mixed widths, hash-joined and
		// grouped by value: the key of a list is its items' keys.
		{"width-list-join-group", `for $a in dataset FuzzNarrow for $b in dataset FuzzWide where $a.l = $b.l group by $l := $b.l with $a return { "len": count($l), "n": count($a) };`, false, false},
		// Datasets inside the return expression, each a nest join: keyed on an
		// equality, with an inner-only conjunct, keyless on `<`, folded by
		// count, with outer rows whose key is missing or matches nothing, and
		// under an inner order by and limit. Lists without an inner order by
		// compare as bags.
		{"nest-equi", `for $a in dataset FuzzA return { "a": $a.id, "bs": for $b in dataset FuzzB where $b.cat = $a.cat return $b.id };`, false, true},
		{"nest-equi-inner-conjunct", fmt.Sprintf(
			`for $a in dataset FuzzA return { "a": $a.id, "bs": for $b in dataset FuzzB where $a.cat = $b.cat and $b.score >= %d return { "b": $b.id, "s": $b.score } };`, lo), false, true},
		{"nest-non-equi", fmt.Sprintf(
			`for $a in dataset FuzzA where $a.score < %d return { "a": $a.id, "bs": for $b in dataset FuzzB where $b.score < $a.score return $b.id };`, hi), false, true},
		{"nest-count", `for $a in dataset FuzzA return { "a": $a.id, "n": count(for $b in dataset FuzzB where $b.cat = $a.cat return $b) };`, false, false},
		{"nest-unmatched", fmt.Sprintf(
			`for $a in dataset FuzzA return { "a": $a.id, "bs": for $b in dataset FuzzB where $b.tags[0] = $a.tags[0] and $b.cat < %d return $b.id };`, rng.Intn(8)), false, true},
		{"nest-inner-order-limit", `for $a in dataset FuzzA return { "a": $a.id, "top": for $b in dataset FuzzB where $b.cat = $a.cat order by $b.score desc, $b.id limit 2 return $b.id };`, false, false},
		// User functions, which the job inlines and the oracle calls with
		// its parameters bound: over a field, calling another, and reading
		// a dataset keyed by the parameter.
		{"udf-field", fmt.Sprintf(
			`for $r in dataset FuzzA where fzShift($r, %d) >= 600 return { "id": $r.id, "s": fzShift($r, 1) };`, rng.Intn(400)), false, false},
		{"udf-calls-udf", `for $r in dataset FuzzA return { "id": $r.id, "band": fzBand($r) };`, false, false},
		{"udf-reads-dataset", `for $a in dataset FuzzA return { "a": $a.id, "bs": fzSameCat($a.cat) };`, false, true},
		// FLWORs over a record's own list: a group-by that still sees the
		// outer record, and a positional variable.
		{"nested-group-by", `for $r in dataset FuzzA return { "id": $r.id, "g": for $t in $r.tags group by $k := $t with $t order by $k return { "k": $k, "n": count($t), "cat": $r.cat } };`, false, false},
		{"nested-at", `for $r in dataset FuzzA return { "id": $r.id, "p": for $t at $i in $r.tags where $i > 1 return { "i": $i, "t": $t } };`, false, false},
	}
}

// fuzzOptionSets are the optimizer-option sets every query runs under.
var fuzzOptionSets = []struct {
	name string
	opts algebra.Options
}{
	{"default", algebra.Options{}},
	{"no-index", algebra.Options{DisableIndexAccess: true}},
	{"no-pk-sort", algebra.Options{DisablePKSort: true}},
	{"no-agg-split", algebra.Options{DisableAggSplit: true}},
}

// runDifferentialFuzz is one harness iteration: build both instances from the
// seed, then assert compiled-vs-interpreter parity for every (template,
// option-set) pair, and that every template compiles into a Hyracks job (no
// interpreter fallback on any access path).
func runDifferentialFuzz(t *testing.T, seed int64) {
	runDifferentialFuzzBudget(t, seed, 0)
}

// runDifferentialFuzzBudget is runDifferentialFuzz with the Hyracks side
// running under a job memory budget, so joins, sorts and group-bys
// spill mid-template and must still match the unconstrained oracle.
func runDifferentialFuzzBudget(t *testing.T, seed, memoryBudget int64) {
	rng := rand.New(rand.NewSource(seed))
	hy, hyNoFuse, hyEager := buildFuzzPair(t, rng, memoryBudget)
	for _, q := range fuzzQueries(rng) {
		if _, _, err := hy.compileJob(q.query); err != nil {
			t.Errorf("seed %d %s: BuildJob failed: %v", seed, q.name, err)
			continue
		}
		perOption := map[string][]adm.Value{}
		for _, os := range fuzzOptionSets {
			hyRes, err := hy.QueryWithOptions(q.query, os.opts)
			if err != nil {
				t.Fatalf("seed %d %s/%s (hyracks): %v", seed, q.name, os.name, err)
			}
			orRes, err := hy.interpret(q.query, os.opts)
			if err != nil {
				t.Fatalf("seed %d %s/%s (interpreter): %v", seed, q.name, os.name, err)
			}
			sameDiffResults(t, fmt.Sprintf("seed %d %s/%s", seed, q.name, os.name), hyRes, orRes, q)
			perOption[os.name] = hyRes
		}
		// Fused-vs-unfused parity: the fusion pass must be purely structural.
		noFuseRes, err := hyNoFuse.Query(q.query)
		if err != nil {
			t.Fatalf("seed %d %s (fusion disabled): %v", seed, q.name, err)
		}
		sameDiffResults(t, fmt.Sprintf("seed %d %s fused-vs-unfused", seed, q.name), perOption["default"], noFuseRes, q)
		// Lazy-vs-eager parity: the zero-copy lazy record path must be
		// semantically invisible — every field access, comparison, hash key
		// and serialized result identical to decoding records up front.
		eagerRes, err := hyEager.Query(q.query)
		if err != nil {
			t.Fatalf("seed %d %s (eager decode): %v", seed, q.name, err)
		}
		sameDiffResults(t, fmt.Sprintf("seed %d %s lazy-vs-eager", seed, q.name), perOption["default"], eagerRes, q)
		// Index-vs-scan cross-check: the access-path rewrite must not change
		// results. This catches an unsound rewrite (candidate set not a
		// superset) that compiled-vs-interpreter parity alone would miss,
		// since both executors share the same plan.
		sameDiffResults(t, fmt.Sprintf("seed %d %s index-vs-scan", seed, q.name),
			perOption["default"], perOption["no-index"], q)
		// Profile invariant: a profiled run of the default plan delivers the
		// same rows, and the profile's sink operator accounts for exactly
		// those rows — the counters are observers, never participants.
		profRows, profOut := profiledFuzzQuery(t, hy, q.query)
		if profRows != len(perOption["default"]) {
			t.Errorf("seed %d %s: profiled run returned %d rows, unprofiled %d",
				seed, q.name, profRows, len(perOption["default"]))
		}
		if got := profOut["distribute-result"]; got != int64(profRows) {
			t.Errorf("seed %d %s: distribute-result out = %d, want %d (out=%v)",
				seed, q.name, got, profRows, profOut)
		}
	}
}

// profiledFuzzQuery drains one query through the streaming API under
// WithProfiling and returns the row count plus per-operator output totals.
func profiledFuzzQuery(t *testing.T, inst *Instance, query string) (int, map[string]int64) {
	t.Helper()
	cur, err := inst.QueryStream(WithProfiling(context.Background()), query)
	if err != nil {
		t.Fatalf("profiled %s: %v", query, err)
	}
	rows := 0
	for cur.Next() {
		rows++
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("profiled %s: %v", query, err)
	}
	cur.Close()
	p := cur.Profile()
	if p == nil {
		t.Fatalf("profiled %s: nil JobProfile", query)
	}
	return rows, p.OutByName()
}

// TestDifferentialFuzzSeeded is the deterministic face of the harness: a
// fixed set of seeds that runs on every go test invocation.
func TestDifferentialFuzzSeeded(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			runDifferentialFuzz(t, seed)
		})
	}
}

// TestDifferentialFuzzSpillSeeded reruns the seeded harness with memory
// budgets small enough that every blocking operator spills (the 4KiB budget
// shares out to well under one frame of fuzz records per instance, forcing
// multi-round spilling and recursive repartitioning); results must still
// match the unconstrained interpreter oracle exactly.
func TestDifferentialFuzzSpillSeeded(t *testing.T) {
	for _, budget := range []int64{4 << 10, 64 << 10} {
		for _, seed := range []int64{7, 42} {
			budget, seed := budget, seed
			t.Run(fmt.Sprintf("budget-%dKiB/seed-%d", budget>>10, seed), func(t *testing.T) {
				runDifferentialFuzzBudget(t, seed, budget)
			})
		}
	}
}

// FuzzDifferential is the native fuzz target: the fuzzer explores seeds and
// every seed deterministically derives the datasets, the mutation interleaving
// and the query parameters. Run with
//
//	go test -run='^$' -fuzz=FuzzDifferential -fuzztime=15s .
func FuzzDifferential(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(42))
	f.Add(int64(20140301))
	f.Fuzz(func(t *testing.T, seed int64) {
		runDifferentialFuzz(t, seed)
	})
}
