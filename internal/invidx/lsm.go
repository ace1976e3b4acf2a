// The inverted secondary index's LSM key layout and posting-list algebra. The
// storage layer owns the lsm.Tree (one per index partition, with the same
// flush/antimatter/merge/recovery lifecycle as every other index); its keys
// are (uvarint token length ‖ token ‖ primary key) with nil values: one entry
// per posting. Lookups are prefix range scans over the token — the length
// prefix makes each token's postings contiguous and un-confusable with tokens
// it prefixes — just as the R-tree kind's are range scans over its Z-ordered
// cells (internal/rtree): the tree is the only structure either kind keeps.

package invidx

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"asterixdb/internal/lsm"
)

// EncodeTokenKey builds the LSM key for one posting.
func EncodeTokenKey(token string, pk []byte) []byte {
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(token)))
	key := make([]byte, 0, n+len(token)+len(pk))
	key = append(key, lenBuf[:n]...)
	key = append(key, token...)
	return append(key, pk...)
}

// DecodeTokenKey splits a posting key into token and primary key.
func DecodeTokenKey(key []byte) (string, []byte, error) {
	tokenLen, n := binary.Uvarint(key)
	if n <= 0 || uint64(len(key)-n) < tokenLen {
		return "", nil, fmt.Errorf("invidx: malformed posting key (%d bytes)", len(key))
	}
	token := string(key[n : n+int(tokenLen)])
	return token, key[n+int(tokenLen):], nil
}

// PostingKeys returns the posting keys a document contributes: one per
// distinct token of text, in token order. The storage layer logs exactly
// these keys to the WAL, so recovery applies postings without re-tokenizing.
// The keys are cut from one buffer. Tokenizers are pure functions, so this is
// safe concurrently.
func PostingKeys(tokenize Tokenizer, docKey []byte, text string) [][]byte {
	toks := tokenize(text)
	slices.Sort(toks)
	toks = slices.Compact(toks)
	size := 0
	for _, tok := range toks {
		size += uvarintLen(len(tok)) + len(tok) + len(docKey)
	}
	buf := make([]byte, 0, size)
	keys := make([][]byte, len(toks))
	for i, tok := range toks {
		start := len(buf)
		buf = binary.AppendUvarint(buf, uint64(len(tok)))
		buf = append(append(buf, tok...), docKey...)
		keys[i] = buf[start:len(buf):len(buf)]
	}
	return keys
}

func uvarintLen(n int) int {
	l := 1
	for ; n >= 0x80; n >>= 7 {
		l++
	}
	return l
}

// scanToken visits the document keys in token's posting range, in key order.
func scanToken(tree *lsm.Tree, token string, visit func(pk []byte) bool) {
	prefix := EncodeTokenKey(token, nil)
	tree.Range(prefix, nil, func(key, _ []byte) bool {
		if !bytes.HasPrefix(key, prefix) {
			return false
		}
		return visit(key[len(prefix):])
	})
}

// LookupAll returns the sorted document keys in tree that contain every given
// token (a multi-token probe, e.g. a phrase run through the keyword
// tokenizer, is the conjunction of its posting lists). Callers must serialize
// it with the tree's mutations, same as any lsm.Tree read.
func LookupAll(tree *lsm.Tree, tokens []string) [][]byte {
	if len(tokens) == 0 {
		return nil
	}
	if len(tokens) == 1 {
		var out [][]byte
		scanToken(tree, tokens[0], func(pk []byte) bool {
			out = append(out, append([]byte(nil), pk...))
			return true
		})
		return out
	}
	acc := postingSet(tree, tokens[0])
	for _, tok := range tokens[1:] {
		if len(acc) == 0 {
			return nil
		}
		next := postingSet(tree, tok)
		for k := range acc {
			if _, ok := next[k]; !ok {
				delete(acc, k)
			}
		}
	}
	return setToKeys(acc)
}

// LookupAny returns the sorted document keys in tree that contain at least
// minMatches of the given tokens. This is the candidate-generation step of
// T-occurrence style fuzzy search: callers verify candidates against the
// real similarity predicate afterwards.
func LookupAny(tree *lsm.Tree, tokens []string, minMatches int) [][]byte {
	if minMatches <= 0 {
		minMatches = 1
	}
	counts := map[string]int{}
	for _, tok := range tokens {
		scanToken(tree, tok, func(pk []byte) bool {
			counts[string(pk)]++
			return true
		})
	}
	set := map[string]struct{}{}
	for k, c := range counts {
		if c >= minMatches {
			set[k] = struct{}{}
		}
	}
	return setToKeys(set)
}

func postingSet(tree *lsm.Tree, token string) map[string]struct{} {
	set := map[string]struct{}{}
	scanToken(tree, token, func(pk []byte) bool {
		set[string(pk)] = struct{}{}
		return true
	})
	return set
}
