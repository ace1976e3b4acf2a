// Package invidx holds what is specific to AsterixDB's "keyword" and
// "ngram(k)" secondary indexes (Sections 2.2 and 4.3) and the indexed fuzzy
// joins of Section 3: the tokenizers, the posting key layout, and the
// posting-list algebra over the LSM tree the storage layer owns (lsm.go).
// Index is the in-memory reference implementation tests compare that against.
package invidx

import (
	"sort"

	"asterixdb/internal/fuzzy"
)

// Tokenizer converts a field value into index tokens.
type Tokenizer func(text string) []string

// KeywordTokenizer tokenizes into lower-cased words (the "keyword" index).
func KeywordTokenizer(text string) []string { return fuzzy.WordTokens(text) }

// NGramTokenizer returns a tokenizer producing k-grams (the "ngram(k)" index).
func NGramTokenizer(k int) Tokenizer {
	return func(text string) []string { return fuzzy.NGramTokens(text, k) }
}

// Index is an in-memory inverted index from token to the set of document keys
// (encoded primary keys) that contain it.
type Index struct {
	tokenize Tokenizer
	postings map[string]map[string]struct{}
	docs     int
}

// New returns an empty inverted index using the given tokenizer.
func New(tokenize Tokenizer) *Index {
	return &Index{tokenize: tokenize, postings: map[string]map[string]struct{}{}}
}

// Len returns the number of indexed documents.
func (ix *Index) Len() int { return ix.docs }

// Tokens returns the number of distinct tokens in the index.
func (ix *Index) Tokens() int { return len(ix.postings) }

// Insert indexes text under the given document key.
func (ix *Index) Insert(docKey []byte, text string) {
	key := string(docKey)
	added := false
	for _, tok := range ix.tokenize(text) {
		m, ok := ix.postings[tok]
		if !ok {
			m = map[string]struct{}{}
			ix.postings[tok] = m
		}
		if _, dup := m[key]; !dup {
			m[key] = struct{}{}
			added = true
		}
	}
	if added {
		ix.docs++
	}
}

// Delete removes the document key from every posting list of text's tokens.
func (ix *Index) Delete(docKey []byte, text string) {
	key := string(docKey)
	removed := false
	for _, tok := range ix.tokenize(text) {
		if m, ok := ix.postings[tok]; ok {
			if _, present := m[key]; present {
				delete(m, key)
				removed = true
			}
			if len(m) == 0 {
				delete(ix.postings, tok)
			}
		}
	}
	if removed && ix.docs > 0 {
		ix.docs--
	}
}

// Lookup returns the sorted document keys whose text contained the token.
func (ix *Index) Lookup(token string) [][]byte {
	toks := ix.tokenize(token)
	if len(toks) == 1 {
		return setToKeys(ix.postings[toks[0]])
	}
	// Multi-token probes (e.g. a phrase run through the keyword tokenizer)
	// return the conjunction of their posting lists.
	return ix.LookupAll(toks)
}

// LookupAll returns the sorted document keys that contain every given token.
func (ix *Index) LookupAll(tokens []string) [][]byte {
	if len(tokens) == 0 {
		return nil
	}
	acc := ix.postings[tokens[0]]
	for _, tok := range tokens[1:] {
		next := ix.postings[tok]
		merged := map[string]struct{}{}
		for k := range acc {
			if _, ok := next[k]; ok {
				merged[k] = struct{}{}
			}
		}
		acc = merged
		if len(acc) == 0 {
			return nil
		}
	}
	return setToKeys(acc)
}

// LookupAny returns the sorted document keys that contain at least minMatches
// of the given tokens. This is the candidate-generation step of T-occurrence
// style fuzzy search: callers verify candidates against the real similarity
// predicate afterwards.
func (ix *Index) LookupAny(tokens []string, minMatches int) [][]byte {
	if minMatches <= 0 {
		minMatches = 1
	}
	counts := map[string]int{}
	for _, tok := range tokens {
		for k := range ix.postings[tok] {
			counts[k]++
		}
	}
	set := map[string]struct{}{}
	for k, c := range counts {
		if c >= minMatches {
			set[k] = struct{}{}
		}
	}
	return setToKeys(set)
}

func setToKeys(set map[string]struct{}) [][]byte {
	if len(set) == 0 {
		return nil
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]byte, len(keys))
	for i, k := range keys {
		out[i] = []byte(k)
	}
	return out
}
