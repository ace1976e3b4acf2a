package fuzzy

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"

	"asterixdb/internal/adm"
)

func TestEditDistance(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"tonight", "tonite", 3},
		{"same", "same", 0},
		{"flaw", "lawn", 2},
	}
	for _, c := range cases {
		if got := EditDistance(c.a, c.b); got != c.want {
			t.Errorf("EditDistance(%q, %q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEditDistanceProperties(t *testing.T) {
	symmetric := func(a, b string) bool {
		return EditDistance(a, b) == EditDistance(b, a)
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error(err)
	}
	identity := func(a string) bool { return EditDistance(a, a) == 0 }
	if err := quick.Check(identity, nil); err != nil {
		t.Error(err)
	}
	triangle := func(a, b, c string) bool {
		if len(a) > 30 || len(b) > 30 || len(c) > 30 {
			return true
		}
		return EditDistance(a, c) <= EditDistance(a, b)+EditDistance(b, c)
	}
	if err := quick.Check(triangle, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEditDistanceCheck(t *testing.T) {
	ok, d := EditDistanceCheck("tonight", "tonite", 3)
	if !ok || d != 3 {
		t.Errorf("EditDistanceCheck = %v, %d", ok, d)
	}
	if ok, _ := EditDistanceCheck("completely", "different!", 3); ok {
		t.Error("distant strings should fail the check")
	}
	if ok, _ := EditDistanceCheck("abcdefgh", "abc", 2); ok {
		t.Error("length difference beyond threshold should fail fast")
	}
	if ok, _ := EditDistanceCheck("a", "b", -1); ok {
		t.Error("negative threshold should fail")
	}
	// Consistency with the full computation.
	f := func(a, b string) bool {
		if len(a) > 20 || len(b) > 20 {
			return true
		}
		d := EditDistance(a, b)
		ok, got := EditDistanceCheck(a, b, d)
		return ok && got == d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEditDistanceContains(t *testing.T) {
	msg := "going out tonite with friends"
	if !EditDistanceContains(msg, "tonight", 3) {
		t.Error("should find fuzzy word match")
	}
	if EditDistanceContains(msg, "zzzzzzzz", 1) {
		t.Error("should not match unrelated probe")
	}
}

func TestWordTokens(t *testing.T) {
	got := WordTokens("Hello, World! AsterixDB-2014 rocks")
	want := []string{"hello", "world", "asterixdb", "2014", "rocks"}
	if len(got) != len(want) {
		t.Fatalf("WordTokens = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, got[i], want[i])
		}
	}
	if len(WordTokens("")) != 0 {
		t.Error("empty string should have no tokens")
	}
}

func TestNGramTokens(t *testing.T) {
	grams := NGramTokens("ab", 3)
	want := []string{"##a", "#ab", "ab#", "b##"}
	if len(grams) != len(want) {
		t.Fatalf("NGramTokens = %v", grams)
	}
	for i := range want {
		if grams[i] != want[i] {
			t.Errorf("gram %d = %q, want %q", i, grams[i], want[i])
		}
	}
	if NGramTokens("abc", 0) != nil {
		t.Error("k=0 should produce no grams")
	}
}

func TestJaccard(t *testing.T) {
	if sim := Jaccard([]string{"a", "b", "c"}, []string{"b", "c", "d"}); sim != 0.5 {
		t.Errorf("Jaccard = %v", sim)
	}
	if sim := Jaccard(nil, nil); sim != 1 {
		t.Errorf("Jaccard of empties = %v", sim)
	}
	if sim := Jaccard([]string{"a"}, nil); sim != 0 {
		t.Errorf("Jaccard with one empty = %v", sim)
	}
}

func TestJaccardProperties(t *testing.T) {
	symmetric := func(a, b []string) bool {
		return Jaccard(a, b) == Jaccard(b, a)
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error(err)
	}
	bounded := func(a, b []string) bool {
		s := Jaccard(a, b)
		return s >= 0 && s <= 1
	}
	if err := quick.Check(bounded, nil); err != nil {
		t.Error(err)
	}
}

func TestSimilarityJaccardOverADM(t *testing.T) {
	a := &adm.UnorderedList{Items: []adm.Value{adm.String("x"), adm.String("y")}}
	b := &adm.OrderedList{Items: []adm.Value{adm.String("y"), adm.String("z")}}
	sim, err := SimilarityJaccard(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if sim < 0.33 || sim > 0.34 {
		t.Errorf("SimilarityJaccard = %v", sim)
	}
	// Strings are tokenized into words.
	sim, err = SimilarityJaccard(adm.String("big data systems"), adm.String("data systems rock"))
	if err != nil {
		t.Fatal(err)
	}
	if sim != 0.5 {
		t.Errorf("string SimilarityJaccard = %v", sim)
	}
	if _, err := SimilarityJaccard(adm.Int32(1), a); err == nil {
		t.Error("non-collection argument should fail")
	}
}

func TestStringPredicates(t *testing.T) {
	if !Contains("asterixdb", "rix") || Contains("asterixdb", "xyz") {
		t.Error("Contains misreports")
	}
	if !Like("JohnDoe", "John%") || !Like("JohnDoe", "%Doe") || !Like("JohnDoe", "J_hnDoe") {
		t.Error("Like should match")
	}
	if Like("JohnDoe", "Jane%") || Like("abc", "a_") {
		t.Error("Like should not match")
	}
	if !Matches("hello world", "hello.*") || !Matches("cat", "c.t") {
		t.Error("Matches should match")
	}
	if Matches("cat", "d.g") {
		t.Error("Matches should not match")
	}
	if Replace("a-b-c", "-", "+") != "a+b+c" {
		t.Error("Replace failed")
	}
	if Replace("abc", "", "x") != "abc" {
		t.Error("Replace with empty old should be a no-op")
	}
}

// runeWordTokens is the rune-at-a-time tokenizer WordTokens replaced: each
// token built through a strings.Builder from unicode.ToLower of its runes.
func runeWordTokens(s string) []string {
	var tokens []string
	var sb strings.Builder
	flush := func() {
		if sb.Len() > 0 {
			tokens = append(tokens, sb.String())
			sb.Reset()
		}
	}
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			sb.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return tokens
}

// FuzzWordTokens holds WordTokens to the rune-at-a-time tokenizer: the same
// tokens in the same order, nil for none, on ASCII, non-ASCII and invalid
// UTF-8 text alike.
func FuzzWordTokens(f *testing.F) {
	for _, s := range []string{
		"", " ", "Hello, World!", "the quick brown fox", "a1b2 C3D4", "x", "--",
		"ÉCOLE élève", "straße İstanbul", "日本語 テキスト", "mixed Ünïcode and ASCII",
		"\xff\xfeabc\x80DEF", "tab\tnew\nline", "ǅungla ΣΊΣΥΦΟΣ", "a b", "٣٤ digits",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, want := WordTokens(s), runeWordTokens(s)
		if (got == nil) != (want == nil) || !slices.Equal(got, want) {
			t.Fatalf("WordTokens(%q) = %q, want %q", s, got, want)
		}
	})
}
