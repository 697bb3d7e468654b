// Package textnorm normalizes the adversarial text found in smishing
// messages. Scammers evade keyword filters with leetspeak ("N3tfl!x"),
// confusable Unicode homoglyphs ("РayРal" with Cyrillic Р), zero-width
// characters, and spacing tricks; the paper's §3.3.6 notes off-the-shelf NER
// fails on exactly these. This package provides the canonicalization layer
// the brand and scam-type annotators are built on.
package textnorm

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// homoglyphs maps visually confusable runes to their ASCII skeleton.
// Sources: Unicode confusables (the subset attackers actually use in SMS),
// plus common Cyrillic/Greek lookalikes.
var homoglyphs = map[rune]rune{
	// Cyrillic lookalikes
	'а': 'a', 'е': 'e', 'о': 'o', 'р': 'p', 'с': 'c', 'х': 'x', 'у': 'y',
	'А': 'a', 'В': 'b', 'Е': 'e', 'К': 'k', 'М': 'm', 'Н': 'h', 'О': 'o',
	'Р': 'p', 'С': 'c', 'Т': 't', 'Х': 'x', 'і': 'i', 'ѕ': 's', 'ј': 'j',
	// Greek lookalikes
	'α': 'a', 'β': 'b', 'ε': 'e', 'ι': 'i', 'κ': 'k', 'ν': 'v', 'ο': 'o',
	'ρ': 'p', 'τ': 't', 'υ': 'u', 'Α': 'a', 'Β': 'b', 'Ε': 'e', 'Ζ': 'z',
	'Η': 'h', 'Ι': 'i', 'Κ': 'k', 'Μ': 'm', 'Ν': 'n', 'Ο': 'o', 'Ρ': 'p',
	'Τ': 't', 'Υ': 'y', 'Χ': 'x',
	// Fullwidth forms
	'ａ': 'a', 'ｂ': 'b', 'ｃ': 'c', 'ｄ': 'd', 'ｅ': 'e', 'ｆ': 'f',
	'ｇ': 'g', 'ｈ': 'h', 'ｉ': 'i', 'ｊ': 'j', 'ｋ': 'k', 'ｌ': 'l',
	'ｍ': 'm', 'ｎ': 'n', 'ｏ': 'o', 'ｐ': 'p', 'ｑ': 'q', 'ｒ': 'r',
	'ｓ': 's', 'ｔ': 't', 'ｕ': 'u', 'ｖ': 'v', 'ｗ': 'w', 'ｘ': 'x',
	'ｙ': 'y', 'ｚ': 'z',
}

// leet maps digit/symbol substitutions back to letters. Applied only inside
// words that already contain letters, so "7726" stays numeric.
var leet = map[rune]rune{
	'0': 'o', '1': 'l', '3': 'e', '4': 'a', '5': 's', '7': 't',
	'@': 'a', '$': 's', '!': 'i', '€': 'e', '£': 'l',
}

// diacritics strips accents from common Latin letters (enough for the
// languages in the corpus; full NFD decomposition is overkill offline).
var diacritics = map[rune]rune{
	'á': 'a', 'à': 'a', 'â': 'a', 'ä': 'a', 'ã': 'a', 'å': 'a', 'ā': 'a',
	'é': 'e', 'è': 'e', 'ê': 'e', 'ë': 'e', 'ē': 'e',
	'í': 'i', 'ì': 'i', 'î': 'i', 'ï': 'i', 'ī': 'i',
	'ó': 'o', 'ò': 'o', 'ô': 'o', 'ö': 'o', 'õ': 'o', 'ø': 'o', 'ō': 'o',
	'ú': 'u', 'ù': 'u', 'û': 'u', 'ü': 'u', 'ū': 'u',
	'ç': 'c', 'ñ': 'n', 'ß': 's', 'ý': 'y', 'ÿ': 'y',
	'Á': 'a', 'À': 'a', 'Â': 'a', 'Ä': 'a', 'Ã': 'a', 'Å': 'a',
	'É': 'e', 'È': 'e', 'Ê': 'e', 'Ë': 'e',
	'Í': 'i', 'Ì': 'i', 'Î': 'i', 'Ï': 'i',
	'Ó': 'o', 'Ò': 'o', 'Ô': 'o', 'Ö': 'o', 'Õ': 'o', 'Ø': 'o',
	'Ú': 'u', 'Ù': 'u', 'Û': 'u', 'Ü': 'u',
	'Ç': 'c', 'Ñ': 'n',
}

// zeroWidth contains invisible characters attackers splice into brand names.
var zeroWidth = map[rune]bool{
	'\u200b': true, // zero width space
	'\u200c': true, // zero width non-joiner
	'\u200d': true, // zero width joiner
	'\ufeff': true, // byte order mark
	'\u00ad': true, // soft hyphen
	'\u2060': true, // word joiner
}

// foldMap sends a lowercased non-ASCII rune to its Fold output, or to -1
// when Fold drops it. Homoglyphs win over diacritics (their outputs are
// ASCII, which the diacritics table never rewrites), and zero-width runes
// have no case, so one lookup after unicode.ToLower does all three tables'
// work.
var foldMap = func() map[rune]rune {
	m := make(map[rune]rune, len(homoglyphs)+len(diacritics)+len(zeroWidth))
	for r, to := range diacritics {
		m[r] = to
	}
	for r, to := range homoglyphs {
		m[r] = to
	}
	for r := range zeroWidth {
		m[r] = -1
	}
	return m
}()

// foldRune is Fold for one rune; ok is false when Fold drops it.
func foldRune(r rune) (out rune, ok bool) {
	if r < utf8.RuneSelf {
		if 'A' <= r && r <= 'Z' {
			r += 'a' - 'A'
		}
		return r, true
	}
	// Lowercase first so fullwidth/Cyrillic/Greek capitals land on the
	// lowercase keys of the confusable tables; the tables emit ASCII,
	// which makes Fold idempotent.
	r = unicode.ToLower(r)
	if m, found := foldMap[r]; found {
		return m, m >= 0
	}
	return r, true
}

// Fold lowercases s and collapses homoglyphs, diacritics, and zero-width
// characters into an ASCII-leaning skeleton. It does NOT apply leetspeak
// substitution; see Skeleton for the aggressive form used in brand matching.
// A string Fold leaves unchanged is returned as is.
func Fold(s string) string {
	// Find the first rune Fold rewrites; an invalid byte counts, since it
	// comes out as the three-byte U+FFFD.
	i := 0
	for i < len(s) {
		r, size := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
		}
		if out, ok := foldRune(r); !ok || out != r || size == 1 && r == utf8.RuneError {
			break
		}
		i += size
	}
	if i == len(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	b.WriteString(s[:i])
	for _, r := range s[i:] {
		if out, ok := foldRune(r); ok {
			b.WriteRune(out)
		}
	}
	return b.String()
}

// Skeleton applies Fold and then leetspeak de-substitution to letter-bearing
// words, producing the canonical form used for brand matching: both
// "N3tfl!x" and "netflix" skeletonize to "netflix". Words are the runs
// between Unicode spaces, joined by one ASCII space.
func Skeleton(s string) string {
	folded := Fold(s)
	if isSkeleton(folded) {
		return folded
	}
	var b strings.Builder
	b.Grow(len(folded))
	for rest := folded; ; {
		var w string
		if w, rest = nextWord(rest); w == "" {
			break
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if !hasLetter(w) {
			b.WriteString(w)
			continue
		}
		for _, r := range w {
			if m, ok := leet[r]; ok {
				r = m
			}
			b.WriteRune(r)
		}
	}
	return b.String()
}

// nextWord returns the first run of non-space runes in s and what follows it.
func nextWord(s string) (word, rest string) {
	start := strings.IndexFunc(s, func(r rune) bool { return !unicode.IsSpace(r) })
	if start < 0 {
		return "", ""
	}
	s = s[start:]
	end := strings.IndexFunc(s, unicode.IsSpace)
	if end < 0 {
		return s, ""
	}
	return s[:end], s[end:]
}

// isSkeleton reports whether Skeleton would return the folded string s
// unchanged: single ASCII spaces between words, none at either end, and no
// leet rune inside a letter-bearing word.
func isSkeleton(s string) bool {
	letter, leetRune, afterSpace := false, false, true
	for _, r := range s {
		if r == ' ' {
			if afterSpace || letter && leetRune {
				return false
			}
			letter, leetRune, afterSpace = false, false, true
			continue
		}
		if unicode.IsSpace(r) {
			return false
		}
		afterSpace = false
		if unicode.IsLetter(r) {
			letter = true
		} else if isLeet(r) {
			leetRune = true
		}
	}
	return (s == "" || !afterSpace) && !(letter && leetRune)
}

// leetASCII is the ASCII part of leet as a table.
var leetASCII = func() (t [utf8.RuneSelf]bool) {
	for r := range leet {
		if r < utf8.RuneSelf {
			t[r] = true
		}
	}
	return t
}()

func isLeet(r rune) bool {
	if r < utf8.RuneSelf {
		return leetASCII[r]
	}
	_, ok := leet[r]
	return ok
}

func hasLetter(w string) bool {
	for _, r := range w {
		if unicode.IsLetter(r) {
			return true
		}
	}
	return false
}

// Tokenize splits s into lowercase word tokens after folding. Punctuation is
// dropped; digits are kept (amounts and short codes carry signal).
func Tokenize(s string) []string {
	folded := Fold(s)
	return strings.FieldsFunc(folded, func(r rune) bool {
		return !unicode.IsLetter(r) && !unicode.IsDigit(r)
	})
}

// CollapseRepeats squeezes runs of 3+ identical letters to 2 ("heeeelp" ->
// "heelp"), a cheap tactic-resistant canonicalization for keyword matching.
func CollapseRepeats(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	var prev rune
	run := 0
	for _, r := range s {
		if r == prev {
			run++
			if run >= 3 {
				continue
			}
		} else {
			prev, run = r, 1
		}
		b.WriteRune(r)
	}
	return b.String()
}

// StripSpacingTricks removes the separator characters scammers insert inside
// brand names ("P-a-y-P-a-l", "A m a z o n") when every fragment is short.
// It conservatively rejoins only single-rune fragments so normal hyphenated
// words survive.
func StripSpacingTricks(s string) string {
	for _, sep := range []string{"-", ".", " ", "_", "*"} {
		if strings.Count(s, sep) < 3 {
			continue // fewer than four fragments
		}
		parts := strings.Split(s, sep)
		allSingle := true
		for _, p := range parts {
			if utf8.RuneCountInString(p) != 1 {
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
