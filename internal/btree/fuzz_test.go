package btree

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// Key and value lengths the fuzzer picks from: empty, short, around the
// 16-bit key-length field (65 535 marks a long key) and past one arena
// chunk.
var (
	fuzzKeyLens   = [16]int{0, 1, 2, 3, 5, 8, 13, 40, 200, 1000, 4000, 65534, 65535, 65536, 70000, 9}
	fuzzValueLens = [16]int{0, 1, 2, 5, 20, 150, 1000, 16383, 16384, 65533, 65536, 70000, 200000, 3, 7, 64}
)

// Operations of FuzzMemtable, one input byte each.
const (
	opPut    = iota // key byte, value byte: put (a new key or a replacement)
	opDelete        // key byte
	opGet           // key byte
	opSeek          // key byte: seek and walk a few entries
	opBulk          // count byte, seed byte: put 64*(count+1) keys, four bytes behind 0, 4, 8 or 12 seed bytes
	opCheck         // walk the whole tree, Min and Max
	numOps
)

// fuzzKey maps a key byte to a key: a run of one of 16 byte values, of one of
// 16 lengths, so keys are often prefixes of each other.
func fuzzKey(b byte) []byte { return bytes.Repeat([]byte{b & 0x0F}, fuzzKeyLens[b>>4]) }

func fuzzValue(b byte) []byte { return bytes.Repeat([]byte{b}, fuzzValueLens[b>>4]) }

// FuzzMemtable drives the tree with puts, replacements, deletes, point
// reads, seeks with cursor walks, Min and Max against a sorted-map model.
// Every value the tree handed out is checked again at the end: the arena
// never moves or overwrites bytes a view reads.
func FuzzMemtable(f *testing.F) {
	f.Add([]byte{opPut, 0x01, 0x21, opPut, 0x02, 0x31, opPut, 0x01, 0x41, opGet, 0x01, opDelete, 0x02, opSeek, 0x00, opCheck})
	f.Add([]byte{opPut, 0x03, 0xC5, opPut, 0x04, 0x11, opGet, 0x03, opPut, 0x03, 0xB6, opCheck}) // values past one chunk
	f.Add([]byte{opPut, 0xB1, 0x22, opPut, 0xC1, 0x23, opPut, 0xD1, 0x24, opPut, 0xE2, 0x25,
		opSeek, 0xC1, opDelete, 0xC1, opGet, 0xD1, opCheck}) // keys around and past 65 535 bytes
	f.Add([]byte{opBulk, 80, 7, opPut, 0x05, 0x51, opBulk, 40, 9, opDelete, 0x05, opSeek, 0x10, opCheck}) // interior splits
	f.Add([]byte{opBulk, 10, 1, opBulk, 10, 1, opBulk, 255, 2, opCheck})                                  // replacements in bulk
	f.Fuzz(func(t *testing.T, ops []byte) {
		tr := New()
		model := map[string][]byte{}
		type view struct{ got, want []byte }
		var views []view
		check := func(k []byte) {
			got, ok := tr.Get(k)
			want, wok := model[string(k)]
			if ok != wok || !bytes.Equal(got, want) {
				t.Fatalf("Get(%d-byte key %x…) = %d bytes %v, want %d bytes %v", len(k), k[:min(len(k), 4)], len(got), ok, len(want), wok)
			}
			if ok {
				views = append(views, view{got, want})
			}
		}
		sorted := func() []string {
			keys := make([]string, 0, len(model))
			for k := range model {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			return keys
		}
		for p := 0; p < len(ops); p++ {
			arg := func(i int) byte {
				if p+i < len(ops) {
					return ops[p+i]
				}
				return 0
			}
			switch ops[p] % numOps {
			case opPut:
				k, v := fuzzKey(arg(1)), fuzzValue(arg(2))
				_, had := model[string(k)]
				if replaced := tr.Put(k, v[:len(v)/2], v[len(v)/2:]); replaced != had {
					t.Fatalf("Put reported replaced=%v, model had the key: %v", replaced, had)
				}
				model[string(k)] = v
				check(k)
				p += 2
			case opDelete:
				k := fuzzKey(arg(1))
				_, had := model[string(k)]
				if deleted := tr.Delete(k); deleted != had {
					t.Fatalf("Delete = %v, model had the key: %v", deleted, had)
				}
				delete(model, string(k))
				check(k)
				p++
			case opGet:
				check(fuzzKey(arg(1)))
				p++
			case opSeek:
				k := fuzzKey(arg(1))
				keys := sorted()
				i, _ := slices.BinarySearch(keys, string(k))
				c := tr.Seek(k)
				for steps := 0; steps < 70 && i < len(keys); steps, i = steps+1, i+1 {
					if !c.Valid() || string(c.Key()) != keys[i] || !bytes.Equal(c.Value(), model[keys[i]]) {
						t.Fatalf("seek to %d-byte key, step %d: cursor disagrees with the model", len(k), steps)
					}
					c.Next()
				}
				if i == len(keys) && c.Valid() {
					t.Fatalf("seek to %d-byte key: cursor valid past the model's last key", len(k))
				}
				p++
			case opBulk:
				// A shared prefix of 8 bytes or more ties every separator's
				// head in the interior nodes.
				n, seed := 64*(int(arg(1))+1), uint32(arg(2))
				prefix := bytes.Repeat([]byte{arg(2)}, int(seed%4)*4)
				for i := 0; i < n; i++ {
					k := binary.BigEndian.AppendUint32(bytes.Clone(prefix), uint32(i)*2654435761+seed)
					v := k[:i%5]
					_, had := model[string(k)]
					if replaced := tr.Put(k, v); replaced != had {
						t.Fatalf("bulk Put %x reported replaced=%v", k, replaced)
					}
					model[string(k)] = v
				}
				p += 2
			case opCheck:
				keys := sorted()
				i := 0
				tr.Scan(func(e Entry) bool {
					if i >= len(keys) || string(e.Key) != keys[i] || !bytes.Equal(e.Value, model[keys[i]]) {
						t.Fatalf("scan entry %d disagrees with the model", i)
					}
					i++
					return true
				})
				if i != len(keys) {
					t.Fatalf("scan visited %d entries, model has %d", i, len(keys))
				}
				mn, okMin := tr.Min()
				mx, okMax := tr.Max()
				if okMin != (len(keys) > 0) || okMax != okMin {
					t.Fatalf("Min/Max found = %v/%v on %d entries", okMin, okMax, len(keys))
				}
				if okMin && (string(mn.Key) != keys[0] || string(mx.Key) != keys[len(keys)-1] ||
					!bytes.Equal(mn.Value, model[keys[0]]) || !bytes.Equal(mx.Value, model[keys[len(keys)-1]])) {
					t.Fatal("Min/Max disagree with the model")
				}
			}
			if tr.Len() != len(model) {
				t.Fatalf("Len = %d, model has %d", tr.Len(), len(model))
			}
		}
		for i, v := range views {
			if !bytes.Equal(v.got, v.want) || cap(v.got) != len(v.got) {
				t.Fatalf("view %d changed under later writes (len %d cap %d)", i, len(v.got), cap(v.got))
			}
		}
	})
}
