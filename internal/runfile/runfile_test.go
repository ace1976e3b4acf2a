package runfile

import (
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"asterixdb/internal/adm"
)

func testTuple(i int) []adm.Value {
	return []adm.Value{
		adm.Int32(int32(i)),
		adm.String("value"),
		nil, // unbound synthetic column
		&adm.OrderedList{Items: []adm.Value{adm.Int64(int64(i)), adm.Point{X: 1, Y: 2}}},
	}
}

// TestRunRoundTrip writes tuples through a run file and reads them back
// twice (runs must be re-openable for multi-pass joins).
func TestRunRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(dir, 1<<20)
	w, err := m.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := w.Write(testTuple(i)); err != nil {
			t.Fatal(err)
		}
	}
	if w.Tuples() != n {
		t.Fatalf("writer counted %d tuples, want %d", w.Tuples(), n)
	}
	run, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		r, err := run.Open()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			cols, err := r.Next()
			if err != nil {
				t.Fatalf("pass %d tuple %d: %v", pass, i, err)
			}
			if len(cols) != 4 {
				t.Fatalf("tuple %d has %d columns", i, len(cols))
			}
			if got := cols[0].(adm.Int32); int(got) != i {
				t.Fatalf("tuple %d decoded id %d", i, got)
			}
			if cols[2] != nil {
				t.Fatalf("tuple %d: nil column decoded as %v", i, cols[2])
			}
			if lst := cols[3].(*adm.OrderedList); len(lst.Items) != 2 {
				t.Fatalf("tuple %d list decoded with %d items", i, len(lst.Items))
			}
		}
		if _, err := r.Next(); err != io.EOF {
			t.Fatalf("pass %d: want io.EOF after last tuple, got %v", pass, err)
		}
		r.Close()
	}
	if st := m.Stats(); st.RunsCreated != 1 || st.TuplesSpilled != n || st.LiveRuns != 1 {
		t.Fatalf("unexpected stats %+v", st)
	}
	run.Release()
	if st := m.Stats(); st.LiveRuns != 0 {
		t.Fatalf("run not deregistered: %+v", st)
	}
	assertNoFiles(t, dir)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestManagerCloseRemovesEverything covers the backstop: unfinished writers
// and unreleased runs are all removed by Close.
func TestManagerCloseRemovesEverything(t *testing.T) {
	dir := t.TempDir()
	m := NewManager(dir, 0)
	w1, err := m.NewRun()
	if err != nil {
		t.Fatal(err)
	}
	if err := w1.Write(testTuple(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := w1.Finish(); err != nil { // sealed but never released
		t.Fatal(err)
	}
	w2, err := m.NewRun() // never finished
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Write(testTuple(2)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	assertNoFiles(t, dir)
}

// TestBudgetAccounting checks Fits/Add/Release and the manager's peak
// tracking, including the always-fit-one-tuple rule.
func TestBudgetAccounting(t *testing.T) {
	m := NewManager(t.TempDir(), 1000)
	b := &Budget{M: m, PerInstance: 100}
	in := b.NewInstance()
	if !in.Fits(1 << 30) {
		t.Fatal("an empty instance must always fit one tuple")
	}
	in.Add(80)
	if in.Fits(30) {
		t.Fatal("80+30 should exceed the 100-byte allowance")
	}
	if !in.Fits(20) {
		t.Fatal("80+20 should fit exactly")
	}
	in2 := b.NewInstance()
	in2.Add(500)
	if st := m.Stats(); st.PeakResident != 580 {
		t.Fatalf("peak = %d, want 580", st.PeakResident)
	}
	in.Release(80)
	in2.Close()
	if st := m.Stats(); st.PeakResident != 580 {
		t.Fatalf("peak must be sticky, got %d", st.PeakResident)
	}
	in.Close()
}

func assertNoFiles(t *testing.T, dir string) {
	t.Helper()
	var leaked []string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			leaked = append(leaked, path)
		}
		return nil
	})
	if len(leaked) > 0 {
		t.Fatalf("leaked run files: %v", leaked)
	}
}

// TestReaderRejectsCorruptTuples overwrites a finished run with damaged
// frames: each must read back as an error — never a panic, and never an
// allocation sized by a column count the frame's bytes cannot back.
func TestReaderRejectsCorruptTuples(t *testing.T) {
	good, err := adm.AppendTuple(nil, testTuple(7))
	if err != nil {
		t.Fatal(err)
	}
	frame := func(tuple []byte) []byte {
		return append(binary.AppendUvarint(nil, uint64(len(tuple))), tuple...)
	}
	cases := map[string][]byte{
		"truncated tuple":        frame(good[:len(good)-3]),
		"truncated frame":        frame(good)[:len(good)-3],
		"oversized column count": frame(binary.AppendUvarint(nil, 1<<40)),
		"bad presence byte":      frame([]byte{1, 2}),
		"trailing bytes":         frame(append(append([]byte{}, good...), 0)),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			m := NewManager(t.TempDir(), 0)
			defer m.Close()
			w, err := m.NewRun()
			if err != nil {
				t.Fatal(err)
			}
			run, err := w.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(run.path, data, 0o600); err != nil {
				t.Fatal(err)
			}
			r, err := run.Open()
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if cols, err := r.Next(); err == nil || err == io.EOF {
				t.Fatalf("corrupt run read back as %v, %v", cols, err)
			}
		})
	}
}

// TestValueMemSizeLazyRecord: an undecoded lazy record is charged at least
// its header and the slab it views, and a materialized one at least its
// header and the record.
func TestValueMemSizeLazyRecord(t *testing.T) {
	typ := &adm.RecordType{Name: "T", Open: true, Fields: []adm.FieldType{{Name: "id", Type: adm.Prim(adm.TagInt32)}}}
	ser := adm.NewSerializer(typ, adm.SchemaEncoding)
	raw, err := ser.Encode(nil, adm.NewRecord(
		adm.Field{Name: "id", Value: adm.Int32(1)},
		adm.Field{Name: "text", Value: adm.String("some words stored in the slab")},
	))
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := ser.DecodeLazy(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	lr := v.(*adm.LazyRecord)
	header := int64(unsafe.Sizeof(adm.LazyRecord{}))
	if got, min := ValueMemSize(lr), header+int64(len(raw)); got < min {
		t.Errorf("undecoded: ValueMemSize = %d, want at least %d (header %d + slab %d)", got, min, header, len(raw))
	}
	rec := lr.Materialize()
	if got, min := ValueMemSize(lr), header+ValueMemSize(rec); got < min {
		t.Errorf("materialized: ValueMemSize = %d, want at least %d", got, min)
	}
}
