package adm_test

import (
	"bytes"
	"testing"

	"asterixdb/internal/adm"
	"asterixdb/internal/workload"
)

// TestAppendJSONFromBytes: AppendJSON writes a Mugshot message's lazy view in
// either stored layout from its bytes. It writes what the eager decode
// writes, leaves the view unmaterialized, and allocates nothing once the
// destination buffer has grown.
func TestAppendJSONFromBytes(t *testing.T) {
	gen := workload.New(workload.DefaultConfig)
	for _, ser := range []*adm.Serializer{
		adm.NewSerializer(workload.MessageType(), adm.SchemaEncoding),
		adm.NewSerializer(workload.KeyOnlyMessageType(), adm.SelfDescribingEncoding),
	} {
		for id := 1; id <= 20; id++ {
			raw, err := ser.Encode(nil, gen.Message(id))
			if err != nil {
				t.Fatal(err)
			}
			v, _, err := ser.DecodeLazy(raw, nil)
			if err != nil {
				t.Fatal(err)
			}
			lr, ok := v.(*adm.LazyRecord)
			if !ok {
				t.Fatalf("DecodeLazy returned %T", v)
			}
			eager, _, err := ser.Decode(raw)
			if err != nil {
				t.Fatal(err)
			}
			buf := adm.AppendJSON(nil, lr)
			if want := adm.AppendJSON(nil, eager); !bytes.Equal(buf, want) {
				t.Fatalf("%s message %d:\n lazy  %s\n eager %s", ser.Encoding, id, buf, want)
			}
			if full, _ := lr.Resident(); full != nil {
				t.Fatalf("%s message %d: AppendJSON materialized the view", ser.Encoding, id)
			}
			if allocs := testing.AllocsPerRun(100, func() { buf = adm.AppendJSON(buf[:0], lr) }); allocs != 0 {
				t.Errorf("%s message %d: AppendJSON allocates %.1f times per row", ser.Encoding, id, allocs)
			}
		}
	}
}
