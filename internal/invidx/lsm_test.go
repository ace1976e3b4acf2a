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

// PostingKeys gives one key per distinct token, each the token's key for the
// document, whatever repeats the text holds.
func TestPostingKeysOnePerDistinctToken(t *testing.T) {
	pk := []byte{7, 8}
	for _, tokenize := range []Tokenizer{KeywordTokenizer, NGramTokenizer(3)} {
		for _, text := range []string{"", "a", "the cat the CAT the", "aaaaaa", "Zebra apple zebra Apple mango", "ÉCOLE école"} {
			want := map[string]bool{}
			for _, tok := range tokenize(text) {
				want[string(EncodeTokenKey(tok, pk))] = true
			}
			keys := PostingKeys(tokenize, pk, text)
			got := map[string]bool{}
			for _, k := range keys {
				got[string(k)] = true
			}
			if len(keys) != len(want) || len(got) != len(want) {
				t.Errorf("%q: %d keys (%d distinct), want %d", text, len(keys), len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Errorf("%q: missing key %q", text, k)
				}
			}
			for i := range keys {
				if cap(keys[i]) != len(keys[i]) {
					t.Errorf("%q: key %d has spare capacity %d, an append would write into the next key", text, i, cap(keys[i])-len(keys[i]))
				}
			}
		}
	}
}
