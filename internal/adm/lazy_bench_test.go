package adm_test

import (
	"runtime"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/workload"
)

// lazyBenchMessages encodes n Mugshot messages in the stored schema layout.
func lazyBenchMessages(b *testing.B, n int) (*adm.Serializer, [][]byte) {
	b.Helper()
	gen := workload.New(workload.Config{Users: 200, Messages: n, Seed: 1})
	ser := adm.NewSerializer(workload.MessageType(), adm.SchemaEncoding)
	raw := make([][]byte, n)
	for i := range raw {
		enc, err := ser.Encode(nil, gen.Message(i+1))
		if err != nil {
			b.Fatal(err)
		}
		raw[i] = enc
	}
	return ser, raw
}

// lazySink keeps the compiler from dropping a benchmarked construction.
var lazySink adm.Value

// BenchmarkDecodeLazy times a scan's construction of lazy views over stored
// Mugshot messages: one arena per 5 000 records, as a partition scan uses one.
// walk is DecodeLazy, which validates every byte; view is View, the header a
// scan wraps around bytes the entry check accepted when they were loaded.
// B/op is per record; allocs/5000rec counts heap allocations per arena's
// worth of records, which allocs/op would round to zero.
func BenchmarkDecodeLazy(b *testing.B) {
	const n = 5000
	ser, raw := lazyBenchMessages(b, n)
	for _, row := range []struct {
		name string
		make func(src []byte, arena *adm.Arena) (adm.Value, error)
	}{
		{"walk", func(src []byte, arena *adm.Arena) (adm.Value, error) {
			v, _, err := ser.DecodeLazy(src, arena)
			return v, err
		}},
		{"view", func(src []byte, arena *adm.Arena) (adm.Value, error) {
			return ser.View(src, arena), nil
		}},
	} {
		b.Run(row.name, func(b *testing.B) {
			var arena *adm.Arena
			var before, after runtime.MemStats
			b.ReportAllocs()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%n == 0 {
					arena.Release()
					arena = adm.AcquireArena()
				}
				v, err := row.make(raw[i%n], arena)
				if err != nil {
					b.Fatal(err)
				}
				lazySink = v
			}
			b.StopTimer()
			arena.Release()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)*n/float64(b.N), "allocs/5000rec")
		})
	}
}

// BenchmarkLazyGet times one field read on a lazy Mugshot message, by the
// field's declared position: the first (message-id), the second (author-id)
// and the last (message, a string).
func BenchmarkLazyGet(b *testing.B) {
	const n = 1000
	ser, raw := lazyBenchMessages(b, n)
	recs := make([]*adm.LazyRecord, n)
	for i, r := range raw {
		v, _, err := ser.DecodeLazy(r, nil)
		if err != nil {
			b.Fatal(err)
		}
		recs[i] = v.(*adm.LazyRecord)
	}
	for _, field := range []struct{ pos, name string }{
		{"first", "message-id"}, {"second", "author-id"}, {"last", "message"},
	} {
		b.Run(field.pos, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if recs[i%n].Get(field.name).Tag() == adm.TagMissing {
					b.Fatal("field missing")
				}
			}
		})
	}
}
