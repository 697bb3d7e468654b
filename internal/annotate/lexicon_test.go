package annotate

import (
	"strings"
	"testing"

	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/textnorm"
)

// Every compiled entry must be a fixed point of the normalization its text
// gets; otherwise the normalized text can never contain it.
func TestLexiconEntriesAreNormalized(t *testing.T) {
	check := func(where, entry, normalized string) {
		t.Helper()
		if entry != normalized {
			t.Errorf("%s entry %q normalizes to %q: it can never match", where, entry, normalized)
		}
	}
	for scam, kws := range scamLexicons {
		for _, kw := range kws {
			check("scam "+string(scam), kw, textnorm.Fold(kw))
		}
	}
	for lure, ps := range lureLexicons {
		for _, p := range ps {
			check("lure "+string(lure), p, textnorm.Fold(p))
		}
	}
	for sub, kws := range othersLexicons {
		for _, kw := range kws {
			check("others "+string(sub), kw, textnorm.Fold(kw))
		}
	}
	for lang, words := range languageProfiles {
		for _, w := range words {
			// A profile word is looked up among tokens, so it must be one.
			check("profile "+lang, w, strings.Join(textnorm.Tokenize(w), " "))
		}
	}
	for _, e := range brandRegistry {
		for _, alias := range e.Aliases {
			check("brand "+e.Name, alias, normalizeAlias(alias))
		}
		for _, slug := range e.Slugs {
			check("slug "+e.Name, slug, strings.ToLower(slug))
		}
	}
}

// Entries written with capitals, accents or homoglyphs used to be stored
// unnormalized and never matched.
func TestNormalizedLexiconRegressions(t *testing.T) {
	cases := []struct {
		text  string
		scam  corpus.ScamType
		lang  string
		brand string
	}{
		{"Поздравляем! Вы выиграли приз", corpus.ScamSpam, "ru", ""},
		{"Ваш рахунок заблоковано через підозрілу активність", corpus.ScamBanking, "uk", ""},
		{"myGov: you have a new message. View it at https://mygov-au.top/inbox", corpus.ScamGovernment, "en", "myGov"},
		{"Česká pošta: zásilka čeká na doručení", corpus.ScamDelivery, "cs", "Česká pošta"},
	}
	for _, c := range cases {
		a := Annotate(c.text, "")
		if a.ScamType != c.scam || a.Language != c.lang || a.Brand != c.brand {
			t.Errorf("Annotate(%.30q) = %s/%s/%q, want %s/%s/%q",
				c.text, a.ScamType, a.Language, a.Brand, c.scam, c.lang, c.brand)
		}
	}
}
