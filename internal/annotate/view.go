package annotate

import (
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"

	"github.com/smishkit/smishkit/internal/textnorm"
)

// tally accumulates one message's lexicon hits per detector.
type tally struct {
	seen  [maxPatterns / 64]uint64 // patterns already counted
	scam  [len(scamPriority)]int   // by scamPriority index
	lures uint16                   // bit i: corpus.Lures[i]
	sub   [maxSubTypes]int         // by corpus.OtherSubTypes index
	lang  [len(profileOrder)]int   // by profileOrder index
	brand int                      // lowest brandRegistry index hit, or -1
	slug  int                      // lowest sortedSlugs rank hit, or -1
}

func (t *tally) reset() {
	*t = tally{brand: -1, slug: -1}
}

// scan runs the automaton over text, counting each pattern of channel ch
// once, as strings.Contains would.
func (t *tally) scan(text []byte, ch channel) {
	m := lexicon
	var s uint16
	for _, c := range text {
		s = m.next(s, c)
		for _, id := range m.outs[m.outStart[s]:m.outStart[s+1]] {
			p := &m.patterns[id]
			if p.ch != ch || t.seen[id/64]&(1<<(id%64)) != 0 {
				continue
			}
			t.seen[id/64] |= 1 << (id % 64)
			for _, pl := range m.payloads[p.payloadLo:p.payloadHi] {
				t.add(pl)
			}
		}
	}
}

func (t *tally) add(pl payload) {
	g := int(pl.group)
	switch pl.det {
	case detScam:
		t.scam[g] += int(pl.weight)
	case detLure:
		t.lures |= 1 << g
	case detSub:
		t.sub[g] += int(pl.weight)
	case detLang:
		t.lang[g] += int(pl.weight)
	case detBrand:
		if t.brand < 0 || g < t.brand {
			t.brand = g
		}
	case detSlug:
		if t.slug < 0 || g < t.slug {
			t.slug = g
		}
	}
}

// view is one message normalized once: every form the detectors read,
// built into one reusable buffer, and the lexicon hits over those forms.
type view struct {
	text   string
	buf    []byte // the forms, one after another
	folded []byte // Fold(text), the first form in buf
	hits   tally
}

var viewPool = sync.Pool{New: func() any { return new(view) }}

// newView normalizes text and scans its folded form, its skeleton with
// punctuation (" " + skeleton + " ") and its skeleton's word form; the
// token and host forms are scanned on demand. release returns the view.
func newView(text string) *view {
	v := viewPool.Get().(*view)
	v.text = text
	v.hits.reset()
	folded := textnorm.Fold(text)
	skeleton := textnorm.Skeleton(folded) // Fold is idempotent: same as Skeleton(text)
	if hasSpacingTricks(text) {
		// Undo spacing tricks per token so "P-a-y-P-a-l" folds before
		// matching; the tricks are judged on the raw runes.
		fields := strings.Fields(text)
		for i, f := range fields {
			fields[i] = textnorm.StripSpacingTricks(f)
		}
		skeleton = textnorm.Skeleton(strings.Join(fields, " "))
	}
	b := append(v.buf[:0], folded...)
	nf := len(b)
	b = append(b, ' ')
	b = append(b, skeleton...)
	b = append(b, ' ')
	nr := len(b)
	b = append(b, ' ')
	b = appendWordForm(b, skeleton)
	b = append(b, ' ')
	v.buf, v.folded = b, b[:nf]
	v.hits.scan(b[:nf], chFolded)
	v.hits.scan(b[nf:nr], chRaw)
	v.hits.scan(b[nr:], chWord)
	return v
}

func (v *view) release() {
	v.text, v.folded = "", nil
	viewPool.Put(v)
}

// hasSpacingTricks reports whether StripSpacingTricks rewrites any
// whitespace-separated field of text. Only a field holding at least three
// of one separator can be rewritten, so only those are tried.
func hasSpacingTricks(text string) bool {
	start := 0
	var seps [4]int // '-', '.', '_', '*' in the current field
	tricks := func(end int) bool {
		candidate := max(seps[0], seps[1], seps[2], seps[3]) >= 3
		seps = [4]int{}
		f := text[start:end]
		return candidate && textnorm.StripSpacingTricks(f) != f
	}
	for i, r := range text {
		switch r {
		case '-':
			seps[0]++
		case '.':
			seps[1]++
		case '_':
			seps[2]++
		case '*':
			seps[3]++
		default:
			if unicode.IsSpace(r) {
				if tricks(i) {
					return true
				}
				start = i + utf8.RuneLen(r)
			}
		}
	}
	return tricks(len(text))
}

// appendWordForm appends the word form of a skeleton: ASCII letters,
// digits and every non-ASCII rune kept, everything else a separator, runs
// of separators collapsed to one space and none at either end. The
// skeleton is valid UTF-8, so the test is per byte.
func appendWordForm(b []byte, skeleton string) []byte {
	start, sep := len(b), false
	for i := 0; i < len(skeleton); i++ {
		c := skeleton[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c >= utf8.RuneSelf {
			if sep && len(b) > start {
				b = append(b, ' ')
			}
			sep = false
			b = append(b, c)
			continue
		}
		sep = true
	}
	return b
}

// scanTokens appends " " + strings.Join(textnorm.Tokenize(text), " ") + " "
// after the view's forms, built from the folded text, scans it against the
// language profiles and reports whether there was any token.
func (v *view) scanTokens() bool {
	b := append(v.buf, ' ')
	start, n := len(v.buf), 0
	inToken := false
	for i := 0; i < len(v.folded); {
		r, size := rune(v.folded[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(v.folded[i:])
		}
		if isTokenRune(r) {
			if !inToken {
				n++
			}
			inToken = true
			b = append(b, v.folded[i:i+size]...)
		} else if inToken {
			inToken = false
			b = append(b, ' ')
		}
		i += size
	}
	if inToken {
		b = append(b, ' ')
	}
	v.buf = b
	if n > 0 {
		v.hits.scan(b[start:], chTokens)
	}
	return n > 0
}

func isTokenRune(r rune) bool {
	if r < utf8.RuneSelf {
		return 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9'
	}
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

// scanHost appends "-" + the URL's lowercased host with dots as hyphens +
// "-" after the view's forms and scans it against the brand slugs.
func (v *view) scanHost(urlStr string) {
	host := hostPart(urlStr)
	b := append(v.buf, '-')
	start := len(v.buf)
	for i := 0; i < len(host); i++ {
		c := host[i]
		if c == '.' {
			c = '-'
		}
		b = append(b, c)
	}
	b = append(b, '-')
	v.buf = b
	v.hits.scan(b[start:], chHost)
}
