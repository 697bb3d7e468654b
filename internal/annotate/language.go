// Package annotate reproduces the paper's GPT-4o text annotation (§3.3.6)
// with deterministic, lexicon-driven classifiers: language identification
// over scripts and stopword profiles, scam-type classification against the
// eight-category taxonomy, impersonated-brand NER hardened against
// leetspeak/homoglyph evasion, and Stajano–Wilson lure detection. A kappa
// evaluation harness (§3.4) scores the annotators against golden labels.
package annotate

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// languageProfiles hold high-frequency function words per Latin-script
// language. Scores count profile hits among tokens.
var languageProfiles = foldLexicon(map[string][]string{
	"en": {"the", "your", "you", "has", "been", "is", "at", "to", "was", "please", "account", "we", "of", "and", "now", "or", "if", "this"},
	"es": {"su", "ha", "sido", "por", "en", "los", "las", "usted", "para", "con", "del", "una", "cuenta", "pague", "antes", "nuestro", "gane"},
	"nl": {"uw", "is", "een", "het", "van", "wegens", "via", "wij", "niet", "de", "voor", "nieuwe", "vandaag", "verloopt", "mijn"},
	"fr": {"votre", "vous", "une", "les", "des", "sur", "est", "suite", "cher", "pour", "sous", "nous", "avez", "frais"},
	"de": {"ihr", "ihre", "sie", "wurde", "unter", "der", "die", "das", "wegen", "bitte", "und", "ist", "mein", "eine", "sehr"},
	"it": {"il", "suo", "sua", "per", "stato", "stata", "della", "conferma", "gentile", "su", "non", "vinto", "alla"},
	"id": {"anda", "yang", "dari", "untuk", "akan", "kami", "di", "ini", "dengan", "dapatkan", "karena", "biaya"},
	"pt": {"sua", "foi", "por", "para", "uma", "não", "nao", "em", "dos", "meu", "você", "voce", "ganhou", "taxa"},
	"tl": {"ang", "mo", "mga", "iyong", "kumita", "kada", "gamit", "dito", "nanalo", "namin"},
	"cs": {"vaše", "vase", "byl", "pozastaven", "údaje", "udaje", "čeká", "ceka", "poplatek", "uhraďte", "uhradte", "zásilka", "nezdařila"},
	"tr": {"bir", "için", "icin", "hesabınız", "hesabiniz", "bilgilerinizi", "ücreti", "ucreti", "kargonuz"},
	"pl": {"twoja", "twoje", "została", "zostala", "paczka", "dane", "konto", "oczekuje"},
	"sv": {"ditt", "din", "har", "på", "pa", "paket", "avgiften", "konto", "väntar", "vantar"},
	"sw": {"yako", "kwa", "imesimamishwa", "taarifa", "akaunti", "thibitisha"},
	"af": {"jou", "is", "weens", "verdagte", "rekening", "opgeskort"},
	"hu": {"az", "ön", "on", "csomagja", "díjat", "dijat", "itt", "fizesse"},
	"ro": {"dvs", "a", "fost", "contul", "datele", "la", "suspendat"},
	"vi": {"cua", "ban", "da", "tai", "khoan", "xac", "minh", "thong", "tin", "bi", "tam", "khoa"},
	"da": {"din", "pakke", "afventer", "levering", "betal", "gebyret", "pa"},
	"no": {"kontoen", "din", "er", "sperret", "grunn", "av", "mistenkelig", "bekreft"},
	"fi": {"pakettisi", "odottaa", "toimitusta", "maksa", "maksu", "osoitteessa"},
	"ms": {"akaun", "anda", "telah", "digantung", "sahkan", "maklumat", "di"},
})

// scriptRanges identify languages by their writing system; these win over
// stopword profiles when non-Latin characters dominate.
var scriptRanges = [...]struct {
	lang  string
	table *unicode.RangeTable
}{
	{"ja", unicode.Hiragana},
	{"ja", unicode.Katakana},
	{"ko", unicode.Hangul},
	{"hi", unicode.Devanagari},
	{"ar", unicode.Arabic}, // Urdu also uses Arabic script; see below
	{"si", unicode.Sinhala},
	{"th", unicode.Thai},
	{"he", unicode.Hebrew},
	{"el", unicode.Greek},
	{"bn", unicode.Bengali},
	{"ta", unicode.Tamil},
	{"te", unicode.Telugu},
	{"am", unicode.Ethiopic},
	{"ka", unicode.Georgian},
	{"uk", unicode.Cyrillic}, // disambiguated from ru by letters
	{"zh", unicode.Han},
}

// scriptSlot maps each scriptRanges entry to the first entry of its
// language, so the two Japanese kana tables count together.
var scriptSlot = func() [len(scriptRanges)]int {
	var slot [len(scriptRanges)]int
	for i, sr := range scriptRanges {
		slot[i] = i
		for j := 0; j < i; j++ {
			if scriptRanges[j].lang == sr.lang {
				slot[i] = slot[j]
				break
			}
		}
	}
	return slot
}()

// farsiMarkers distinguish Persian from Arabic/Urdu within Arabic script.
var farsiMarkers = []rune{'ژ', 'گ', 'چ', 'پ', 'ک', 'ی'} // Keheh/Farsi-Yeh: Perso-Arabic, not Arabic

// urduMarkers distinguish Urdu from Arabic within the Arabic script.
var urduMarkers = []rune{'ے', 'ڈ', 'ٹ', 'ں'} // Keheh/Gaf excluded: shared with Persian

// ukrainianMarkers distinguish Ukrainian from Russian within Cyrillic.
var ukrainianMarkers = []rune{'ї', 'є', 'і', 'ґ'}

// DetectLanguage identifies the language of an SMS text, returning an
// ISO 639-1 code. Unknown or empty inputs return "en" (the corpus default),
// matching the annotation prompt's behavior of always returning a code.
func DetectLanguage(text string) string {
	v := newView(text)
	defer v.release()
	return v.language()
}

func (v *view) language() string {
	if strings.TrimSpace(v.text) == "" {
		return "en"
	}
	if lang := detectScript(v.text); lang != "" {
		return lang
	}
	if !v.scanTokens() {
		return "en"
	}
	// Each profile scores its words present among the tokens.
	best, bestScore := "en", 0
	for i, lang := range profileOrder {
		if score := v.hits.lang[i]; score > bestScore {
			best, bestScore = lang, score
		}
	}
	return best
}

// profileOrder fixes iteration order for deterministic ties ("en" first so
// English wins draws).
var profileOrder = [...]string{
	"en", "es", "nl", "fr", "de", "it", "id", "pt", "tl", "cs", "tr",
	"pl", "sv", "sw", "af", "hu", "ro", "vi", "da", "no", "fi", "ms",
}

// scriptFloor is the lowest rune any script range covers; letters below it
// (ASCII and the Latin blocks) skip the per-script lookups.
var scriptFloor = func() rune {
	floor := unicode.MaxRune
	for _, sr := range scriptRanges {
		if len(sr.table.R16) > 0 {
			floor = min(floor, rune(sr.table.R16[0].Lo))
		} else if len(sr.table.R32) > 0 {
			floor = min(floor, rune(sr.table.R32[0].Lo))
		}
	}
	return floor
}()

func detectScript(text string) string {
	// counts is indexed by the first scriptRanges entry of each language.
	var counts [len(scriptRanges)]int
	total := 0
	for _, r := range text {
		if r < utf8.RuneSelf {
			if 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' {
				total++
			}
			continue
		}
		if !unicode.IsLetter(r) {
			continue
		}
		total++
		if r < scriptFloor {
			continue
		}
		for i, sr := range scriptRanges {
			if unicode.Is(sr.table, r) {
				counts[scriptSlot[i]]++
				break
			}
		}
	}
	if total == 0 {
		return ""
	}
	best, bestN := "", 0
	for i, sr := range scriptRanges {
		if n := counts[scriptSlot[i]]; n > bestN {
			best, bestN = sr.lang, n
		}
	}
	// Require the script to dominate the letters.
	if best == "" || bestN*3 < total {
		return ""
	}
	switch best {
	case "ar":
		for _, m := range urduMarkers {
			if strings.ContainsRune(text, m) {
				return "ur"
			}
		}
		for _, m := range farsiMarkers {
			if strings.ContainsRune(text, m) {
				return "fa"
			}
		}
		return "ar"
	case "uk":
		for _, m := range ukrainianMarkers {
			if strings.ContainsRune(text, m) {
				return "uk"
			}
		}
		return "ru"
	}
	return best
}
