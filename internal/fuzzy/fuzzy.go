// Package fuzzy implements AsterixDB's similarity functions (Table 1 of the
// paper): edit distance over strings, Jaccard similarity over bags/lists,
// their *-check variants with early exit, word tokenization, and the n-gram
// tokenizer used by the ngram(k) inverted index.
package fuzzy

import (
	"strings"
	"unicode"
	"unicode/utf8"

	"asterixdb/internal/adm"
)

// EditDistance returns the Levenshtein distance between two strings.
func EditDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	curr := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		curr[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			curr[j] = minInt(prev[j]+1, curr[j-1]+1, prev[j-1]+cost)
		}
		prev, curr = curr, prev
	}
	return prev[len(rb)]
}

// EditDistanceCheck reports whether the edit distance between a and b is at
// most threshold, and returns that distance when it is. It exits early (the
// edit-distance-check function from Table 1) by bailing out as soon as every
// entry of a row exceeds the threshold.
func EditDistanceCheck(a, b string, threshold int) (bool, int) {
	if threshold < 0 {
		return false, 0
	}
	ra, rb := []rune(a), []rune(b)
	if abs(len(ra)-len(rb)) > threshold {
		return false, 0
	}
	prev := make([]int, len(rb)+1)
	curr := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		curr[0] = i
		rowMin := curr[0]
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			curr[j] = minInt(prev[j]+1, curr[j-1]+1, prev[j-1]+cost)
			if curr[j] < rowMin {
				rowMin = curr[j]
			}
		}
		if rowMin > threshold {
			return false, 0
		}
		prev, curr = curr, prev
	}
	d := prev[len(rb)]
	return d <= threshold, d
}

// EditDistanceContains reports whether some word token of text is within the
// given edit distance of the probe (the edit-distance-contains function).
func EditDistanceContains(text, probe string, threshold int) bool {
	for _, w := range WordTokens(text) {
		if ok, _ := EditDistanceCheck(w, probe, threshold); ok {
			return true
		}
	}
	return false
}

// WordTokens splits a string into lower-cased word tokens, the tokenization
// used by AQL's word-tokens() and the inverted keyword index: the maximal runs
// of letters and digits. A token is a substring of s unless it needs
// lower-casing, so ASCII text already in lower case allocates only the slice,
// sized by a first pass.
func WordTokens(s string) []string {
	n := 0
	for _, end := nextWord(s, 0); end >= 0; _, end = nextWord(s, end) {
		n++
	}
	if n == 0 {
		return nil
	}
	tokens := make([]string, 0, n)
	for start, end := nextWord(s, 0); end >= 0; start, end = nextWord(s, end) {
		tokens = append(tokens, strings.ToLower(s[start:end]))
	}
	return tokens
}

// nextWord returns the bounds of the first word of s at or after i, or
// end < 0 when there is none. ASCII bytes are classified by table; a
// non-ASCII rune (or an invalid byte, which decodes to utf8.RuneError) by
// unicode.IsLetter and unicode.IsDigit.
func nextWord(s string, i int) (start, end int) {
	start = -1
	for i < len(s) {
		word, w := asciiWord[s[i]], 1
		if s[i] >= utf8.RuneSelf {
			var r rune
			r, w = utf8.DecodeRuneInString(s[i:])
			word = unicode.IsLetter(r) || unicode.IsDigit(r)
		}
		switch {
		case word && start < 0:
			start = i
		case !word && start >= 0:
			return start, i
		}
		i += w
	}
	if start < 0 {
		return -1, -1
	}
	return start, len(s)
}

// asciiWord marks the ASCII letters and digits, the bytes below
// utf8.RuneSelf that unicode.IsLetter or unicode.IsDigit accept.
var asciiWord = func() (t [256]bool) {
	for c := range utf8.RuneSelf {
		t[c] = unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
	}
	return t
}()

// NGramTokens returns the k-grams of the lower-cased string, padding the ends
// with '#' markers as the AsterixDB ngram(k) tokenizer does.
func NGramTokens(s string, k int) []string {
	if k <= 0 {
		return nil
	}
	padded := strings.Repeat("#", k-1) + strings.ToLower(s) + strings.Repeat("#", k-1)
	runes := []rune(padded)
	if len(runes) < k {
		return nil
	}
	grams := make([]string, 0, len(runes)-k+1)
	for i := 0; i+k <= len(runes); i++ {
		grams = append(grams, string(runes[i:i+k]))
	}
	return grams
}

// Jaccard returns the Jaccard similarity (|A∩B| / |A∪B|) of two token
// multisets, treating them as sets.
func Jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	setA := make(map[string]struct{}, len(a))
	for _, t := range a {
		setA[t] = struct{}{}
	}
	setB := make(map[string]struct{}, len(b))
	for _, t := range b {
		setB[t] = struct{}{}
	}
	inter := 0
	for t := range setA {
		if _, ok := setB[t]; ok {
			inter++
		}
	}
	union := len(setA) + len(setB) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// SimilarityJaccard computes Jaccard similarity over two ADM list values
// (ordered or unordered), comparing elements by their canonical string form.
func SimilarityJaccard(a, b adm.Value) (float64, error) {
	ta, err := listTokens(a)
	if err != nil {
		return 0, err
	}
	tb, err := listTokens(b)
	if err != nil {
		return 0, err
	}
	return Jaccard(ta, tb), nil
}

func listTokens(v adm.Value) ([]string, error) {
	var items []adm.Value
	switch l := v.(type) {
	case *adm.OrderedList:
		items = l.Items
	case *adm.UnorderedList:
		items = l.Items
	case adm.String:
		return WordTokens(string(l)), nil
	default:
		return nil, &TypeError{Got: v.Tag()}
	}
	out := make([]string, len(items))
	for i, it := range items {
		if s, ok := it.(adm.String); ok {
			out[i] = string(s)
		} else {
			out[i] = it.String()
		}
	}
	return out, nil
}

// TypeError reports a similarity function applied to a non-collection value.
type TypeError struct{ Got adm.TypeTag }

// Error implements error.
func (e *TypeError) Error() string {
	return "fuzzy: similarity-jaccard expects a list or string, got " + e.Got.String()
}

// Contains reports whether s contains substr (the AQL contains() function).
func Contains(s, substr string) bool { return strings.Contains(s, substr) }

// Like evaluates a SQL LIKE pattern with % and _ wildcards against s.
func Like(s, pattern string) bool {
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Dynamic-programming LIKE matcher over runes.
	rs, rp := []rune(s), []rune(p)
	dp := make([][]bool, len(rs)+1)
	for i := range dp {
		dp[i] = make([]bool, len(rp)+1)
	}
	dp[0][0] = true
	for j := 1; j <= len(rp); j++ {
		if rp[j-1] == '%' {
			dp[0][j] = dp[0][j-1]
		}
	}
	for i := 1; i <= len(rs); i++ {
		for j := 1; j <= len(rp); j++ {
			switch rp[j-1] {
			case '%':
				dp[i][j] = dp[i][j-1] || dp[i-1][j]
			case '_':
				dp[i][j] = dp[i-1][j-1]
			default:
				dp[i][j] = dp[i-1][j-1] && rs[i-1] == rp[j-1]
			}
		}
	}
	return dp[len(rs)][len(rp)]
}

// Matches reports whether s matches the simplified regular expression pattern
// supported by AQL's matches() (we accept the LIKE dialect plus '.' as a
// single-character wildcard and '.*' as any run).
func Matches(s, pattern string) bool {
	pattern = strings.ReplaceAll(pattern, ".*", "%")
	pattern = strings.ReplaceAll(pattern, ".", "_")
	return likeMatch(s, pattern)
}

// Replace replaces every occurrence of old in s with new (AQL replace()).
func Replace(s, old, new string) string {
	if old == "" {
		return s
	}
	return strings.ReplaceAll(s, old, new)
}

func minInt(vals ...int) int {
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
