package textnorm

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

// The reference implementations below are Fold, Skeleton and
// StripSpacingTricks as first written: three map lookups per rune, one
// FieldsFunc/Join pass and a Split per separator. The production versions
// take fast paths and must return the same strings.

func referenceFold(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if zeroWidth[r] {
			continue
		}
		r = unicode.ToLower(r)
		if m, ok := homoglyphs[r]; ok {
			r = m
		}
		if m, ok := diacritics[r]; ok {
			r = m
		}
		b.WriteRune(r)
	}
	return b.String()
}

func referenceSkeleton(s string) string {
	words := strings.FieldsFunc(referenceFold(s), unicode.IsSpace)
	for i, w := range words {
		if hasLetter(w) {
			var b strings.Builder
			for _, r := range w {
				if m, ok := leet[r]; ok {
					r = m
				}
				b.WriteRune(r)
			}
			words[i] = b.String()
		}
	}
	return strings.Join(words, " ")
}

func referenceStripSpacingTricks(s string) string {
	for _, sep := range []string{"-", ".", " ", "_", "*"} {
		parts := strings.Split(s, sep)
		if len(parts) < 4 {
			continue
		}
		allSingle := true
		for _, p := range parts {
			if len([]rune(p)) != 1 {
				allSingle = false
				break
			}
		}
		if allSingle {
			return strings.Join(parts, "")
		}
	}
	return s
}

// adversarialString draws from the runes the normalizers treat specially:
// ASCII case, every separator and whitespace kind, leet symbols, homoglyphs,
// diacritics, zero-width runes and invalid UTF-8.
func adversarialString(rng *rand.Rand) string {
	alphabet := []string{
		"a", "B", "z", "0", "1", "3", "4", "5", "7", "@", "$", "!", "€", "£",
		" ", "  ", "\t", "\n", "\u00a0", "\u3000", "-", ".", "_", "*", ":",
		"Р", "а", "В", "Н", "α", "Ν", "Ｐ", "ｐ", "é", "Ö", "č", "ł", "ı", "İ",
		"\u200b", "\u00ad", "\ufeff", "\xff", "\xe2\x82", "\ufffd", "日", "ß",
	}
	n := rng.Intn(24)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

func TestNormalizersMatchReference(t *testing.T) {
	check := func(s string) {
		if got, want := Fold(s), referenceFold(s); got != want {
			t.Fatalf("Fold(%q) = %q, want %q", s, got, want)
		}
		if got, want := Skeleton(s), referenceSkeleton(s); got != want {
			t.Fatalf("Skeleton(%q) = %q, want %q", s, got, want)
		}
		if got, want := StripSpacingTricks(s), referenceStripSpacingTricks(s); got != want {
			t.Fatalf("StripSpacingTricks(%q) = %q, want %q", s, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		check(adversarialString(rng))
	}
	for _, s := range []string{"", " ", "P-a-y-P-a-l", "A m a z o n", "N3tfl!x", "x\u200b-y-z-w", "a.b.c", "a-b-c-d-"} {
		check(s)
	}
	if err := quick.Check(func(s string) bool { check(s); return true }, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
