package lsm

import (
	"fmt"
	"maps"
	"slices"
	"testing"
)

// policyFunc is a MergePolicy from a function.
type policyFunc func(sizes []int) []int

func (f policyFunc) PickMerge(sizes []int) []int { return f(sizes) }

// FuzzTreeOps: under any byte-driven sequence of inserts, deletes, flushes,
// full merges, planned merges (with a flush between Execute and
// InstallMerge, as the storage scheduler allows) and reopens, every touched
// key reads back through Get as a map says it should, and one unbounded
// Range yields exactly the map. A reopen loses the memtable, so the model
// keeps the state as of the last flush too.
func FuzzTreeOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 2, 1, 1, 2, 2, 4, 1, 0, 0})
	f.Add([]byte{0, 3, 0, 19, 2, 1, 3, 2, 0, 3, 2, 3, 5, 1, 19, 5})
	f.Add([]byte{0, 1, 2, 0, 2, 2, 0, 3, 2, 0, 4, 2, 4, 0, 3, 0x41, 1, 2, 2, 5, 4, 1, 0xff})
	f.Fuzz(func(t *testing.T, ops []byte) {
		// Every flush and merge fsyncs a file: bound the steps an input runs.
		ops = ops[:min(len(ops), 128)]
		dir := t.TempDir()
		// The planned merge picks a contiguous run from its two operand bytes.
		var from, n int
		opts := Options{Background: true, Policy: policyFunc(func(sizes []int) []int {
			if len(sizes) < 2 {
				return nil
			}
			lo := from % (len(sizes) - 1)
			hi := min(lo+2+n%len(sizes), len(sizes))
			pick := make([]int, 0, hi-lo)
			for i := lo; i < hi; i++ {
				pick = append(pick, i)
			}
			return pick
		})}
		tr, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		live, durable := map[string]string{}, map[string]string{}
		touched := map[string]bool{}
		arg := func(i int) byte {
			if i < len(ops) {
				return ops[i]
			}
			return 0
		}
		for step, i := 0, 0; i < len(ops); step++ {
			op := ops[i] % 6
			// A key is one of 16 letters, optionally followed by "z", so
			// some keys are prefixes of others.
			key := string(rune('a' + arg(i+1)%16))
			if arg(i+1)&16 != 0 {
				key += "z"
			}
			var what string
			switch op {
			case 0:
				value := fmt.Sprintf("v%d", step)
				what = "insert " + key
				if err := tr.Insert([]byte(key), []byte(value)); err != nil {
					t.Fatal(err)
				}
				live[key] = value
				touched[key] = true
				i += 2
			case 1:
				what = "delete " + key
				if err := tr.Delete([]byte(key)); err != nil {
					t.Fatal(err)
				}
				delete(live, key)
				touched[key] = true
				i += 2
			case 2:
				what = "flush"
				if err := tr.Flush(); err != nil {
					t.Fatal(err)
				}
				durable = maps.Clone(live)
				i++
			case 3:
				what = "merge"
				if err := tr.Merge(); err != nil {
					t.Fatal(err)
				}
				i++
			case 4:
				from, n = int(arg(i+1)), int(arg(i+2))
				what = fmt.Sprintf("planned merge %d %d", from, n)
				plan, err := tr.PlanMerge()
				if err != nil {
					t.Fatal(err)
				}
				if plan != nil {
					if err := plan.Execute(); err != nil {
						t.Fatal(err)
					}
					if n&1 != 0 {
						if err := tr.Flush(); err != nil {
							t.Fatal(err)
						}
						durable = maps.Clone(live)
					}
					if err := tr.InstallMerge(plan); err != nil {
						t.Fatal(err)
					}
				}
				i += 3
			case 5:
				what = "reopen"
				if tr, err = Open(dir, opts); err != nil {
					t.Fatal(err)
				}
				live = maps.Clone(durable)
				i++
			}
			for key := range touched {
				got, ok := tr.Get([]byte(key))
				if want, present := live[key]; ok != present || string(got) != want {
					t.Fatalf("step %d (%s): Get(%q) = %q, %v; want %q, %v", step, what, key, got, ok, want, present)
				}
			}
			var keys []string
			tr.Range(nil, nil, func(key, value []byte) bool {
				if want, ok := live[string(key)]; !ok || want != string(value) {
					t.Fatalf("step %d (%s): Range yields %q = %q; want %q, %v", step, what, key, value, want, ok)
				}
				keys = append(keys, string(key))
				return true
			})
			if want := slices.Sorted(maps.Keys(live)); !slices.Equal(keys, want) {
				t.Fatalf("step %d (%s): Range yields %q, want %q", step, what, keys, want)
			}
		}
	})
}
