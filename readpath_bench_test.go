package asterixdb

import (
	"context"
	"fmt"
	"testing"

	"asterixdb/internal/adm"
)

// seedBigDataset fills an already-created Big dataset with n simple records.
func seedBigDataset(tb testing.TB, inst *Instance, n int) {
	tb.Helper()
	ds, ok := inst.Dataset("Big")
	if !ok {
		tb.Fatal("no Big dataset")
	}
	recs := make([]*adm.Record, 0, n)
	for i := 1; i <= n; i++ {
		recs = append(recs, adm.NewRecord(
			adm.Field{Name: "id", Value: adm.Int32(int32(i))},
			adm.Field{Name: "k", Value: adm.Int32(int32(i % 100))},
		))
	}
	if _, err := ds.InsertBatch(recs); err != nil {
		tb.Fatal(err)
	}
}

// Read-path benchmarks: these are the numbers behind the iterator-based LSM
// read path and operator fusion (BENCH_readpath.json is produced from the
// same workload shapes by `asterixbench -readpath`). The key property is in
// BenchmarkReadPathScan: per-record scan time must stay flat as the dataset
// grows — before the resumable iterator, every 64-record chunk restarted a
// full LSM Range merge, so per-record time grew ~10x from 10k to 100k
// records.

// benchLargeInstance caches one instance per size across sub-benchmarks.
func benchDrain(b *testing.B, inst *Instance, n int) {
	b.Helper()
	query := `for $x in dataset Big return $x.k;`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := inst.QueryStream(context.Background(), query)
		if err != nil {
			b.Fatal(err)
		}
		rows := 0
		for cur.Next() {
			rows++
		}
		if err := cur.Close(); err != nil {
			b.Fatal(err)
		}
		if rows != n {
			b.Fatalf("drained %d rows, want %d", rows, n)
		}
	}
	b.StopTimer()
	perRecord := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(n)
	b.ReportMetric(perRecord, "ns/record")
}

// BenchmarkReadPathScan measures full-scan drain throughput at two dataset
// sizes; compare the ns/record metric between them to verify linear scans.
func BenchmarkReadPathScan(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		n := n
		b.Run(fmt.Sprintf("records-%d", n), func(b *testing.B) {
			inst := newLargeInstance(b, n)
			benchDrain(b, inst, n)
		})
	}
}

// BenchmarkReadPathFusion compares a fused scan->select->assign->limit
// pipeline against the same plan with fusion disabled: the delta is the
// per-tuple goroutine-handoff cost fusion removes.
func BenchmarkReadPathFusion(b *testing.B) {
	query := `for $x in dataset Big where $x.k >= 10 let $v := $x.k + 1 return $v;`
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"fused", false}, {"unfused", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			inst, err := open(Config{DataDir: b.TempDir(), Partitions: 4}, variant{unfused: mode.disable})
			if err != nil {
				b.Fatal(err)
			}
			defer inst.Close()
			if _, err := inst.Execute(`
create type BigType as closed { id: int32, k: int32 };
create dataset Big(BigType) primary key id;`); err != nil {
				b.Fatal(err)
			}
			seedBigDataset(b, inst, 50_000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cur, err := inst.QueryStream(context.Background(), query)
				if err != nil {
					b.Fatal(err)
				}
				for cur.Next() {
				}
				if err := cur.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
