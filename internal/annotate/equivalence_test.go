package annotate

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"unicode"

	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/textnorm"
)

// The reference annotator below is the detector set as first written: each
// detector normalizes the text itself and rescans it with one
// strings.Contains per lexicon entry. It reads the same lexicon tables as
// the compiled automaton, so any difference is in the matching.

func referenceAnnotate(text, url string) Annotation {
	scam := referenceClassifyScamType(text)
	brand := referenceDetectBrand(text, url)
	a := Annotation{
		ScamType: scam,
		Language: referenceDetectLanguage(text),
		Brand:    brand,
		Lures:    referenceDetectLures(text, scam, brand),
	}
	if scam == corpus.ScamOthers {
		a.SubType = referenceClassifyOthersSubType(text, brand)
	}
	return a
}

func referenceClassifyScamType(text string) corpus.ScamType {
	folded := textnorm.Fold(text)
	bestType := corpus.ScamOthers
	bestScore := 0
	for _, scam := range scamPriority {
		score := 0
		for _, kw := range scamLexicons[scam] {
			if strings.Contains(folded, kw) {
				score += 1 + strings.Count(kw, " ")
			}
		}
		if (scam == corpus.ScamHeyMumDad || scam == corpus.ScamWrongNumber) && score > 0 {
			score += 2
		}
		if score > bestScore {
			bestType, bestScore = scam, score
		}
	}
	return bestType
}

func referenceDetectLures(text string, scam corpus.ScamType, brand string) []corpus.Lure {
	folded := textnorm.Fold(text)
	set := make(map[corpus.Lure]bool)
	for lure, phrases := range lureLexicons {
		for _, p := range phrases {
			if strings.Contains(folded, p) {
				set[lure] = true
				break
			}
		}
	}
	if authorityScams[scam] && brand != "" {
		set[corpus.LureAuthority] = true
	}
	if scam == corpus.ScamHeyMumDad || scam == corpus.ScamWrongNumber {
		set[corpus.LureDistraction] = true
	}
	out := make([]corpus.Lure, 0, len(set))
	for _, l := range corpus.Lures {
		if set[l] {
			out = append(out, l)
		}
	}
	return out
}

func referenceClassifyOthersSubType(text, brand string) corpus.OtherSubType {
	if techBrands[brand] {
		return corpus.SubTech
	}
	folded := textnorm.Fold(text)
	best := corpus.OtherSubType("")
	bestScore := 0
	for _, sub := range corpus.OtherSubTypes {
		score := 0
		for _, kw := range othersLexicons[sub] {
			if strings.Contains(folded, kw) {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = sub, score
		}
	}
	if best == "" && brand != "" {
		return corpus.SubTech
	}
	return best
}

func referenceDetectBrand(text, urlStr string) string {
	fields := strings.Fields(text)
	for i, f := range fields {
		fields[i] = textnorm.StripSpacingTricks(f)
	}
	skeleton := textnorm.Skeleton(strings.Join(fields, " "))
	wordForm := " " + referenceStripPunct(skeleton) + " "
	rawForm := " " + skeleton + " "
	for _, e := range brandRegistry {
		for _, alias := range e.Aliases {
			if strings.ContainsAny(alias, ":.&") || strings.HasPrefix(alias, " ") {
				if strings.Contains(rawForm, alias) {
					return e.Name
				}
				continue
			}
			if strings.Contains(wordForm, " "+alias+" ") {
				return e.Name
			}
		}
	}
	if urlStr != "" {
		host := hostPart(urlStr)
		hostCore := strings.NewReplacer(".", "-").Replace(host)
		for _, slug := range sortedSlugs {
			if len(slug) < 3 {
				for _, part := range strings.Split(hostCore, "-") {
					if part == slug {
						return slugIndex[slug]
					}
				}
				continue
			}
			if strings.Contains(hostCore, slug) {
				return slugIndex[slug]
			}
		}
	}
	return ""
}

func referenceStripPunct(s string) string {
	mapped := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == ' ':
			return r
		case r > 127:
			return r
		default:
			return ' '
		}
	}, s)
	return strings.Join(strings.Fields(mapped), " ")
}

func referenceDetectLanguage(text string) string {
	if strings.TrimSpace(text) == "" {
		return "en"
	}
	if lang := referenceDetectScript(text); lang != "" {
		return lang
	}
	tokens := textnorm.Tokenize(text)
	if len(tokens) == 0 {
		return "en"
	}
	tokenSet := make(map[string]bool, len(tokens))
	for _, tok := range tokens {
		tokenSet[tok] = true
	}
	best, bestScore := "en", 0
	for _, lang := range profileOrder {
		score := 0
		for _, w := range languageProfiles[lang] {
			if tokenSet[w] {
				score++
			}
		}
		if score > bestScore {
			best, bestScore = lang, score
		}
	}
	return best
}

func referenceDetectScript(text string) string {
	counts := map[string]int{}
	total := 0
	for _, r := range text {
		if !unicode.IsLetter(r) {
			continue
		}
		total++
		for _, sr := range scriptRanges {
			if unicode.Is(sr.table, r) {
				counts[sr.lang]++
				break
			}
		}
	}
	if total == 0 {
		return ""
	}
	best, bestN := "", 0
	for _, sr := range scriptRanges {
		if n := counts[sr.lang]; n > bestN {
			best, bestN = sr.lang, n
		}
	}
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

// equivalent fails t unless Annotate and the reference marshal to the same
// bytes for text with and without url.
func equivalent(t *testing.T, text, url string) {
	t.Helper()
	for _, u := range []string{url, ""} {
		got, err := json.Marshal(Annotate(text, u))
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(referenceAnnotate(text, u))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("Annotate(%q, %q)\n got %s\nwant %s", text, u, got, want)
		}
	}
}

// The compiled annotator must reproduce the reference byte for byte over
// corpus messages, each with and without its URL.
func TestAnnotateMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 77, 314, 2024, 9001} {
		w := corpus.Generate(corpus.Config{Seed: seed, Messages: 2000})
		for _, m := range w.Messages {
			equivalent(t, m.Text, m.URL)
		}
	}
}

// Hand-written edge cases: empty and blank texts, spacing tricks,
// zero-width runes, invalid UTF-8, short URL slugs and scripts.
func TestAnnotateMatchesReferenceEdgeCases(t *testing.T) {
	cases := []struct{ text, url string }{
		{"", ""},
		{"   \t\n", "https://x.top"},
		{"P-a-y-P-a-l account limited", ""},
		{"A m a z o n", ""},
		{"P\u200b-a-y-P-a-l", ""},
		{"N3tfl!x: your subscription failed", "http://EE.Example-O2.com/x?y"},
		{"Ａｍａｚｏｎ: unusual sign-in", "https://ups-ee.tim.vi/track"},
		{"\xff\xfe broken \xe2\x82 bytes 24h", "https://\xffhost/"},
		{"AT&T: bill", "hxxp://att--x..y/"},
		{"  o2: ee: three: vi: tim: telekom: ", ""},
		{"Ваш рахунок заблоковано через підозрілу активність", ""},
		{"Поздравляем! Вы выиграли приз", ""},
		{"myGov: your refund is ready", "https://my.gov.au.example"},
		{"Česká pošta: zásilka čeká na doručení", ""},
		{"【ゆうちょ銀行】お客様の口座で不審な取引を確認しました", ""},
		{"hi mum, it's me. new number", "https://a.b/c"},
	}
	for _, c := range cases {
		equivalent(t, c.text, c.url)
	}
}

// Annotate shares the compiled automaton and a pool of views across
// goroutines; concurrent calls must give the sequential results.
func TestAnnotateConcurrent(t *testing.T) {
	msgs := corpus.Generate(corpus.Config{Seed: 5, Messages: 400}).Messages
	want := make([]string, len(msgs))
	for i, m := range msgs {
		b, _ := json.Marshal(Annotate(m.Text, m.URL))
		want[i] = string(b)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range msgs {
				i := (k + g*len(msgs)/4) % len(msgs)
				b, _ := json.Marshal(Annotate(msgs[i].Text, msgs[i].URL))
				if string(b) != want[i] {
					t.Errorf("message %d: got %s, want %s", i, b, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
