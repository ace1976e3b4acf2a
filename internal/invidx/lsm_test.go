package invidx

import (
	"bytes"
	"fmt"
	"testing"

	"asterixdb/internal/lsm"
)

func TestTokenKeyRoundTrip(t *testing.T) {
	key := EncodeTokenKey("hello", []byte{1, 2, 3})
	tok, pk, err := DecodeTokenKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if tok != "hello" || !bytes.Equal(pk, []byte{1, 2, 3}) {
		t.Fatalf("round trip = %q %v", tok, pk)
	}
	if _, _, err := DecodeTokenKey([]byte{200}); err == nil {
		t.Fatal("malformed key decoded without error")
	}
}

func TestLSMLookupMatchesInMemoryIndex(t *testing.T) {
	docs := []string{
		"the quick brown fox",
		"the lazy dog",
		"quick dogs and lazy foxes",
		"completely unrelated text",
	}
	mem := New(KeywordTokenizer)
	disk, err := lsm.Open(t.TempDir(), lsm.Options{Background: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range docs {
		pk := []byte(fmt.Sprintf("pk%d", i))
		mem.Insert(pk, d)
		for _, key := range PostingKeys(KeywordTokenizer, pk, d) {
			if err := disk.Insert(key, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Delete one doc and flush so lookups span mem + disk components.
	mem.Delete([]byte("pk1"), docs[1])
	for _, key := range PostingKeys(KeywordTokenizer, []byte("pk1"), docs[1]) {
		if err := disk.Delete(key); err != nil {
			t.Fatal(err)
		}
	}
	if err := disk.Flush(); err != nil {
		t.Fatal(err)
	}

	for _, probe := range []string{"quick", "lazy", "the", "missing", "quick lazy"} {
		want := mem.Lookup(probe)
		got := LookupAll(disk, KeywordTokenizer(probe))
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Errorf("LookupAll(%q): lsm %q, in-memory %q", probe, got, want)
		}
	}
	if w, g := mem.LookupAny([]string{"quick", "lazy", "dog"}, 2), LookupAny(disk, []string{"quick", "lazy", "dog"}, 2); fmt.Sprint(w) != fmt.Sprint(g) {
		t.Errorf("LookupAny: lsm %q, mem %q", g, w)
	}
}
