package asterixdb

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/hyracks"
)

// openEmpty opens an instance with no datasets.
func openEmpty(t *testing.T) *Instance {
	t.Helper()
	inst, err := Open(Config{DataDir: t.TempDir(), Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { inst.Close() })
	return inst
}

// queryText runs src and returns its values' ADM text, one per value.
func queryText(t *testing.T, inst *Instance, src string) string {
	t.Helper()
	res, err := inst.Query(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	out := make([]string, len(res))
	for i, v := range res {
		out[i] = v.String()
	}
	return strings.Join(out, " ")
}

// TestFunctionDDLBesideQueries: functions are created and dropped while other
// requests inline calls. The catalog owns the function table and inlining
// reads the request's immutable catalog version, so neither side sees a torn
// table (run under -race, a CI step repeats it).
func TestFunctionDDLBesideQueries(t *testing.T) {
	inst := openEmpty(t)
	if _, err := inst.Execute(`create function g($x) { $x + 1 };`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < 100; i++ {
			if _, err := inst.Execute(fmt.Sprintf(`create function f%d($x) { $x + 1 };`, i)); err != nil {
				t.Error(err)
				return
			}
			if _, err := inst.Execute(fmt.Sprintf(`drop function f%d;`, i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for calls := 0; ; calls++ {
		select {
		case <-done:
			wg.Wait()
			if calls == 0 {
				t.Error("no call ran beside the function DDL")
			}
			return
		default:
		}
		res, err := inst.Query(`g(1);`)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := adm.NumericAsInt64(res[0]); len(res) != 1 || n != 2 {
			t.Fatalf("g(1) = %v, want [2]", res)
		}
	}
}

// TestSetLastsForItsRequest: set simfunction and simthreshold are the
// prologue of the request they are in (the paper's Queries 6 and 13); the
// next request starts from the instance's defaults, whichever entry point
// ran the set.
func TestSetLastsForItsRequest(t *testing.T) {
	inst := openEmpty(t)
	const cmp = `"hello world" ~= "hello there"`
	if got := queryText(t, inst, `set simthreshold "0.1"; `+cmp); got != "true" {
		t.Errorf("with simthreshold 0.1: %s, want true", got)
	}
	if got := queryText(t, inst, cmp); got != "false" {
		t.Errorf("the next request: %s, want false (jaccard 0.5)", got)
	}
	if _, err := inst.Execute(`set simfunction "edit-distance"; set simthreshold "9";`); err != nil {
		t.Fatal(err)
	}
	if got := queryText(t, inst, cmp); got != "false" {
		t.Errorf("after a request of only sets: %s, want false", got)
	}
	if got := queryText(t, inst, `set simfunction "edit-distance"; set simthreshold "9"; `+cmp); got != "true" {
		t.Errorf("edit distance 5 within 9: %s, want true", got)
	}
	if d := inst.EvalContext(); d.SimFunction != "jaccard" || d.SimThreshold != 0.5 {
		t.Errorf("the instance defaults changed: %q %v", d.SimFunction, d.SimThreshold)
	}
}

// TestUseDataverseLastsForItsRequest: use dataverse names the dataverse of
// what its own request creates; the next request creates in Default again.
func TestUseDataverseLastsForItsRequest(t *testing.T) {
	inst := openEmpty(t)
	if _, err := inst.Execute(`create dataverse Foo; use dataverse Foo; create type A as open { id: int32 };`); err != nil {
		t.Fatal(err)
	}
	if _, err := inst.Execute(`create type B as open { id: int32 }; create function h() { 1 };`); err != nil {
		t.Fatal(err)
	}
	const q = `for $t in dataset Metadata.Datatype order by $t.DatatypeName return [$t.DatatypeName, $t.DataverseName]`
	if got, want := queryText(t, inst, q), `[ "A", "Foo" ] [ "B", "Default" ]`; got != want {
		t.Errorf("types: %s, want %s", got, want)
	}
	if got := queryText(t, inst, `for $f in dataset Metadata.Function return $f.DataverseName`); got != `"Default"` {
		t.Errorf("function h: %s, want \"Default\"", got)
	}
}

// TestSetRefusesUnknownSimFunction: a simfunction ~= does not implement is
// refused where it is set, naming the two it does.
func TestSetRefusesUnknownSimFunction(t *testing.T) {
	inst := openEmpty(t)
	for _, src := range []string{`set simfunction "cosine";`, `set simfunction "cosine"; "a" ~= "b"`} {
		_, err := inst.Execute(src)
		if ErrorCode(err) != CodeInvalid {
			t.Fatalf("%s: %v, want a CodeInvalid error", src, err)
		}
		for _, name := range []string{`"cosine"`, `"jaccard"`, `"edit-distance"`} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%s: %v does not name %s", src, err, name)
			}
		}
	}
	if _, err := inst.Explain(`set simfunction "cosine"; 1`); ErrorCode(err) != CodeInvalid {
		t.Errorf("Explain: %v, want a CodeInvalid error", err)
	}
}

// TestLoadDelimitedNarrowFields: a delimited-text column declared int8, int16
// or float loads into a stored field of that type, and a value out of its
// range fails the load naming the line and the field.
func TestLoadDelimitedNarrowFields(t *testing.T) {
	inst := openEmpty(t)
	dir := t.TempDir()
	good, bad := filepath.Join(dir, "good.csv"), filepath.Join(dir, "bad.csv")
	for path, content := range map[string]string{good: "1|-128|300|1.5\n2|127|-32768|0.25\n", bad: "3|1|1|1\n4|300|1|1\n"} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ddl := `create type S as closed { id: int32, small: int8, mid: int16, f: float };
create dataset D(S) primary key id;`
	if _, err := inst.Execute(ddl); err != nil {
		t.Fatal(err)
	}
	load := `load dataset D using localfs (("path"="localhost://%s"),("format"="delimited-text"),("delimiter"="|"));`
	if _, err := inst.Execute(fmt.Sprintf(load, good)); err != nil {
		t.Fatal(err)
	}
	got := queryText(t, inst, `for $d in dataset D order by $d.id return [$d.small, $d.mid, $d.f]`)
	if want := `[ -128i8, 300i16, 1.5f ] [ 127i8, -32768i16, 0.25f ]`; got != want {
		t.Errorf("loaded %s, want %s", got, want)
	}
	_, err := inst.Execute(fmt.Sprintf(load, bad))
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), `field "small"`) {
		t.Errorf("loading 300 into an int8: %v, want an error naming line 2 and field \"small\"", err)
	}
}

// TestLoadDelimitedRefusesEmptyAndLooseBooleans: loading a delimited-text
// file whose int32 column is empty or whose boolean column reads "TRUE"
// fails naming the line and the field, and stores nothing.
func TestLoadDelimitedRefusesEmptyAndLooseBooleans(t *testing.T) {
	inst := openEmpty(t)
	if _, err := inst.Execute(`create type B as closed { id: int32, n: int32, b: boolean };
create dataset D(B) primary key id;`); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	load := `load dataset D using localfs (("path"="localhost://%s"),("format"="delimited-text"),("delimiter"="|"));`
	for i, c := range []struct{ content, field string }{
		{"1|5|true\n2||yes\n", `field "n"`},
		{"1|5|false\n2|7|TRUE\n", `field "b"`},
	} {
		path := filepath.Join(dir, fmt.Sprintf("b%d.csv", i))
		if err := os.WriteFile(path, []byte(c.content), 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := inst.Execute(fmt.Sprintf(load, path))
		if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), c.field) {
			t.Errorf("loading %q: %v, want an error naming line 2 and %s", c.content, err, c.field)
		}
	}
	if got := queryText(t, inst, `count(for $d in dataset D return $d)`); got != "0i64" {
		t.Errorf("count after the failed loads = %s, want 0", got)
	}
}

// TestMetadataPositionalSource: a positional variable over a Metadata dataset
// numbers its records 1..n in the order the catalog lists them.
func TestMetadataPositionalSource(t *testing.T) {
	inst := newTinySocial(t)
	got := queryText(t, inst, `for $d at $i in dataset Metadata.Dataset return [$i, $d.DatasetName]`)
	if want := `[ 1i64, "MugshotMessages" ] [ 2i64, "MugshotUsers" ]`; got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}

// TestMetadataCountIsNestJoin: a Metadata dataset read inside a return
// expression is a nest join whose build side is the dataset's one source
// instance.
func TestMetadataCountIsNestJoin(t *testing.T) {
	inst := newTinySocial(t)
	const q = `for $u in dataset MugshotUsers order by $u.id return [$u.id, count(for $d in dataset Metadata.Dataset return $d)]`
	if got, want := queryText(t, inst, q), `[ 1, 2i64 ] [ 2, 2i64 ] [ 3, 2i64 ] [ 4, 2i64 ]`; got != want {
		t.Errorf("got %s, want %s", got, want)
	}
	job, _, err := inst.compileJob(q)
	if err != nil {
		t.Fatal(err)
	}
	var build hyracks.Operator
	for _, e := range job.Edges {
		if strings.HasPrefix(job.Operators[e.To].Name(), "nest-join") && e.Port == 1 {
			build = job.Operators[e.From]
		}
	}
	if src, ok := build.(*hyracks.SourceOp); !ok || src.Name() != "datasource-scan(Dataset)" || src.Partitions != 1 {
		t.Errorf("the nest join's build side is %v, want the one-instance datasource-scan(Dataset)\n%s", build, job.Describe())
	}
}

// TestExternalJoinsStored: an external dataset's source joins a stored
// dataset's scan like any other input.
func TestExternalJoinsStored(t *testing.T) {
	inst := newTinySocial(t)
	path := filepath.Join(t.TempDir(), "visits.csv")
	if err := os.WriteFile(path, []byte("1|home\n3|list\n3|home\n9|nowhere\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ddl := fmt.Sprintf(`create type VisitType as closed { uid: int32, page: string };
create external dataset Visits(VisitType) using localfs (("path"="localhost://%s"),("format"="delimited-text"),("delimiter"="|"));`, path)
	if _, err := inst.Execute(ddl); err != nil {
		t.Fatal(err)
	}
	got := queryText(t, inst, `for $v in dataset Visits for $u in dataset MugshotUsers where $u.id = $v.uid
order by $u.id, $v.page return [$u.alias, $v.page]`)
	if want := `[ "Margarita", "home" ] [ "Emory", "home" ] [ "Emory", "list" ]`; got != want {
		t.Errorf("got %s, want %s", got, want)
	}
}
