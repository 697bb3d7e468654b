package annotate

import (
	"strings"

	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/textnorm"
)

// Every lexicon entry is normalized the way the text it is matched against
// is normalized, so an entry written with capitals, accents or homoglyphs
// ("myGov", "účet", "поздравляем") still matches: Fold for the scam, lure,
// Others and language lexicons, Skeleton for brand aliases. Entries that
// normalize to the same string are kept once.

// foldLexicon folds every entry of lex and drops repeats within a group.
func foldLexicon[K comparable](lex map[K][]string) map[K][]string {
	out := make(map[K][]string, len(lex))
	for k, entries := range lex {
		out[k] = dedup(entries, textnorm.Fold)
	}
	return out
}

// skeletonAliases normalizes every brand alias to the form it is matched
// in (see normalizeAlias) and drops repeats within an entry.
func skeletonAliases(registry []brandEntry) []brandEntry {
	for i := range registry {
		registry[i].Aliases = dedup(registry[i].Aliases, normalizeAlias)
	}
	return registry
}

// normalizeAlias skeletonizes a raw alias, keeping the spaces that anchor
// it (" ing "), and reduces a word alias to the skeleton's word form
// ("t-mobile" -> "t mobile").
func normalizeAlias(alias string) string {
	if isRawAlias(alias) {
		lead := alias[:len(alias)-len(strings.TrimLeft(alias, " "))]
		trail := alias[len(strings.TrimRight(alias, " ")):]
		return lead + textnorm.Skeleton(alias) + trail
	}
	return string(appendWordForm(nil, textnorm.Skeleton(alias)))
}

func dedup(entries []string, normalize func(string) string) []string {
	out := make([]string, 0, len(entries))
	seen := make(map[string]bool, len(entries))
	for _, e := range entries {
		if n := normalize(e); !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// lexicon is every annotator's lexicon compiled into one automaton.
var lexicon = compileLexicon()

// maxSubTypes bounds corpus.OtherSubTypes for the tally's fixed array.
const maxSubTypes = 8

func compileLexicon() *matcher {
	if len(corpus.Lures) > 16 || len(corpus.OtherSubTypes) > maxSubTypes {
		panic("annotate: tally too small for the corpus taxonomy")
	}
	var b matcherBuilder
	for i, scam := range scamPriority {
		for _, kw := range scamLexicons[scam] {
			// Multiword hits weigh more.
			b.add(kw, chFolded, payload{detScam, uint16(i), int16(1 + strings.Count(kw, " "))})
		}
	}
	for i, lure := range corpus.Lures {
		for _, p := range lureLexicons[lure] {
			b.add(p, chFolded, payload{detLure, uint16(i), 1})
		}
	}
	for i, sub := range corpus.OtherSubTypes {
		for _, kw := range othersLexicons[sub] {
			b.add(kw, chFolded, payload{detSub, uint16(i), 1})
		}
	}
	for i, e := range brandRegistry {
		for _, alias := range e.Aliases {
			if isRawAlias(alias) {
				b.add(alias, chRaw, payload{detBrand, uint16(i), 1})
			} else {
				b.add(" "+alias+" ", chWord, payload{detBrand, uint16(i), 1})
			}
		}
	}
	for i, lang := range profileOrder {
		for _, w := range languageProfiles[lang] {
			b.add(" "+w+" ", chTokens, payload{detLang, uint16(i), 1})
		}
	}
	for rank, slug := range sortedSlugs {
		if len(slug) < 3 {
			// Short slugs only match as a full hyphen-separated part.
			slug = "-" + slug + "-"
		}
		b.add(slug, chHost, payload{detSlug, uint16(rank), 1})
	}
	return b.build()
}
