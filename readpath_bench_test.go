package asterixdb

import (
	"context"
	"fmt"
	"testing"
)

// Read-path benchmarks: the numbers behind the iterator-based LSM read path
// and operator fusion. The key property is in BenchmarkReadPathScan:
// per-record scan time must stay flat as the dataset grows — before the
// resumable iterator, every 64-record chunk restarted a full LSM Range merge,
// so per-record time grew ~10x from 10k to 100k records.

// benchDrain drains query b.N times over a dataset of n records, checks it
// yields wantRows rows, and reports the time per scanned record.
func benchDrain(b *testing.B, inst *Instance, query string, n, wantRows int) {
	b.Helper()
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
		if rows != wantRows {
			b.Fatalf("drained %d rows, want %d", rows, wantRows)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/record")
}

// BenchmarkReadPathScan measures, at three dataset sizes, full-scan drain
// throughput (compare ns/record across sizes to verify linear scans) and the
// time to the first row of a limit-over-scan.
func BenchmarkReadPathScan(b *testing.B) {
	for _, n := range []int{10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("records-%d", n), func(b *testing.B) {
			inst := newLargeInstance(b, n)
			b.Run("full-scan", func(b *testing.B) {
				benchDrain(b, inst, `for $x in dataset Big return $x.k;`, n, n)
			})
			b.Run("first-row", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					cur, err := inst.QueryStream(context.Background(), `for $x in dataset Big limit 20000 return $x;`)
					if err != nil {
						b.Fatal(err)
					}
					if !cur.Next() {
						b.Fatalf("no first row: %v", cur.Err())
					}
					cur.Close()
				}
			})
		})
	}
}

// BenchmarkReadPathFusion compares a fused scan->select->assign->distribute
// pipeline against the same plan with fusion disabled: the delta is the
// per-tuple goroutine-handoff cost fusion removes.
func BenchmarkReadPathFusion(b *testing.B) {
	const n = 100_000
	query := `for $x in dataset Big where $x.k >= 10 let $v := $x.k + 1 return $v;`
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"fused", false}, {"unfused", true}} {
		b.Run(mode.name, func(b *testing.B) {
			inst := newLargeVariant(b, n, variant{unfused: mode.disable})
			// k = id mod 100, so the filter keeps nine records in ten.
			benchDrain(b, inst, query, n, n*9/10)
		})
	}
}
