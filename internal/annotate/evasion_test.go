package annotate

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"github.com/smishkit/smishkit/internal/corpus"
)

// An evasion transform rewrites message text the way smishers dodge
// keyword filters. Each rewrites every eligible rune or word with
// probability one half, drawn from rng.
type evasion struct {
	name string
	// maxFailRate is the share of messages whose scam type, brand or lures
	// may change; above 0 only for transforms the normalization does not
	// undo (EXPERIMENTS.md names each one and why).
	maxFailRate float64
	apply       func(rng *rand.Rand, s string) string
}

var (
	cyrillicLookalikes = map[rune]rune{
		'a': 'а', 'e': 'е', 'o': 'о', 'p': 'р', 'c': 'с', 'x': 'х', 'y': 'у', 'i': 'і', 's': 'ѕ', 'j': 'ј',
		'A': 'А', 'B': 'В', 'E': 'Е', 'K': 'К', 'M': 'М', 'H': 'Н', 'O': 'О', 'P': 'Р', 'C': 'С', 'T': 'Т', 'X': 'Х',
	}
	greekLookalikes = map[rune]rune{
		'a': 'α', 'i': 'ι', 'k': 'κ', 'o': 'ο', 'v': 'ν', 'u': 'υ',
		'A': 'Α', 'B': 'Β', 'E': 'Ε', 'Z': 'Ζ', 'H': 'Η', 'I': 'Ι', 'K': 'Κ', 'M': 'Μ', 'N': 'Ν', 'O': 'Ο', 'P': 'Ρ', 'T': 'Τ', 'Y': 'Υ', 'X': 'Χ',
	}
	leetSubstitutes = map[rune]rune{'a': '4', 'e': '3', 'o': '0', 's': '5', 't': '7', 'l': '1', 'i': '!'}
)

// perRune rewrites each rune f accepts with probability one half.
func perRune(f func(r rune) (rune, bool)) func(*rand.Rand, string) string {
	return func(rng *rand.Rand, s string) string {
		var b strings.Builder
		for _, r := range s {
			if to, ok := f(r); ok && rng.Intn(2) == 0 {
				r = to
			}
			b.WriteRune(r)
		}
		return b.String()
	}
}

func lookup(table map[rune]rune) func(rune) (rune, bool) {
	return func(r rune) (rune, bool) {
		to, ok := table[r]
		return to, ok
	}
}

var evasions = []evasion{
	{"cyrillic-homoglyphs", 0.08, perRune(lookup(cyrillicLookalikes))},
	{"greek-homoglyphs", 0.04, perRune(lookup(greekLookalikes))},
	{"fullwidth", 0, perRune(func(r rune) (rune, bool) {
		switch {
		case 'a' <= r && r <= 'z':
			return r - 'a' + 'ａ', true
		case 'A' <= r && r <= 'Z':
			return r - 'A' + 'Ａ', true
		}
		return r, false
	})},
	{"zero-width", 0, func(rng *rand.Rand, s string) string {
		var b strings.Builder
		prevLetter := false
		for _, r := range s {
			letter := unicode.IsLetter(r)
			if letter && prevLetter && rng.Intn(2) == 0 {
				b.WriteRune('\u200b')
			}
			b.WriteRune(r)
			prevLetter = letter
		}
		return b.String()
	}},
	{"intra-word-spacing", 0.25, func(rng *rand.Rand, s string) string {
		// "PayPal" -> "P-a-y-P-a-l" for words of four or more letters.
		words := strings.Split(s, " ")
		for i, w := range words {
			if len([]rune(w)) >= 4 && strings.IndexFunc(w, func(r rune) bool { return !unicode.IsLetter(r) }) < 0 && rng.Intn(2) == 0 {
				words[i] = strings.Join(strings.Split(w, ""), "-")
			}
		}
		return strings.Join(words, " ")
	}},
	{"leet", 0.70, perRune(lookup(leetSubstitutes))},
	{"case-games", 0, perRune(func(r rune) (rune, bool) {
		if unicode.IsLower(r) {
			return unicode.ToUpper(r), true
		}
		return unicode.ToLower(r), unicode.IsUpper(r)
	})},
}

// outsideURL applies f to the parts of text around url, which has to stay
// resolvable and so is left as sent.
func outsideURL(text, url string, f func(string) string) string {
	if url == "" {
		return f(text)
	}
	parts := strings.Split(text, url)
	for i, p := range parts {
		parts[i] = f(p)
	}
	return strings.Join(parts, url)
}

// TestEvasionTransforms is the metamorphic test: an evasion transform of a
// message must leave its scam type, brand and lures unchanged, except for
// the pinned share of messages a transform the normalization does not undo
// may break.
func TestEvasionTransforms(t *testing.T) {
	msgs := corpus.Generate(corpus.Config{Seed: 4242, Messages: 1000}).Messages
	type label struct {
		scam  corpus.ScamType
		brand string
		lures []corpus.Lure
	}
	labelOf := func(a Annotation) label { return label{a.ScamType, a.Brand, a.Lures} }
	for _, ev := range evasions {
		rng := rand.New(rand.NewSource(1))
		failed := 0
		var example string
		for _, m := range msgs {
			evaded := outsideURL(m.Text, m.URL, func(s string) string { return ev.apply(rng, s) })
			if !reflect.DeepEqual(labelOf(Annotate(m.Text, m.URL)), labelOf(Annotate(evaded, m.URL))) {
				failed++
				if example == "" {
					example = evaded
				}
			}
		}
		rate := float64(failed) / float64(len(msgs))
		t.Logf("%-20s %4d/%d changed (%.3f, ceiling %.3f) e.g. %.60q", ev.name, failed, len(msgs), rate, ev.maxFailRate, example)
		if rate > ev.maxFailRate {
			t.Errorf("%s: %d/%d messages changed label (%.3f), ceiling %.3f; first: %q",
				ev.name, failed, len(msgs), rate, ev.maxFailRate, example)
		}
	}
}
