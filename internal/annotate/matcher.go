package annotate

import "sort"

// channel names the view form a pattern is matched against: one automaton
// holds every lexicon, and a hit counts only while scanning its own form.
type channel uint8

const (
	chFolded channel = iota // Fold(text): scam, lure and Others lexicons
	chRaw                   // " "+skeleton+" ": punctuation-bearing brand aliases
	chWord                  // " "+word form of the skeleton+" ": word brand aliases
	chTokens                // " "+tokens+" ": language stopword profiles
	chHost                  // "-"+host with dots as hyphens+"-": brand URL slugs
)

// detector names the annotator a payload feeds.
type detector uint8

const (
	detScam  detector = iota // group: index in scamPriority
	detLure                  // group: index in corpus.Lures
	detSub                   // group: index in corpus.OtherSubTypes
	detBrand                 // group: index in brandRegistry
	detLang                  // group: index in profileOrder
	detSlug                  // group: rank in sortedSlugs
)

// payload is what one lexicon entry contributes when its pattern is found.
type payload struct {
	det    detector
	group  uint16
	weight int16
}

// maxPatterns bounds the distinct (pattern, channel) pairs so a message's
// seen-set is a fixed-size bitset.
const maxPatterns = 2048

// pattern is one distinct byte string on one channel. An entry listed twice
// in a lexicon adds its payload twice, as a second strings.Contains would.
type pattern struct {
	ch                   channel
	payloadLo, payloadHi uint32
}

// matcher is an Aho–Corasick automaton over bytes, stored in two parts to
// keep its tables small. The shallow states (depth <= denseDepth, where a
// scan spends most of its time) form a full DFA over byte classes: one
// lookup per byte. Deeper states keep their goto edges sparse (most have
// one) and fall back along failure links, which always end in a dense
// state. States are numbered breadth-first, so the dense ones come first;
// state 0 is the root.
type matcher struct {
	class     [256]uint8 // byte -> class; class 0 is every byte no pattern uses
	nClasses  int
	nDense    uint16
	dense     []uint16 // dense[s*nClasses+class]: next state from dense state s
	edgeStart []uint32 // sparse state s's edges are edgeByte/edgeNext[edgeStart[s-nDense]:edgeStart[s-nDense+1]]
	edgeByte  []byte
	edgeNext  []uint16
	fail      []uint16 // failure link of every state
	outStart  []uint32 // state s's matches are outs[outStart[s]:outStart[s+1]]
	outs      []uint16 // pattern IDs ending at a state, own and via failure links
	patterns  []pattern
	payloads  []payload
}

// denseDepth is the deepest trie level stored as full DFA rows.
const denseDepth = 4

// next returns the state after reading c in state s.
func (m *matcher) next(s uint16, c byte) uint16 {
	for s >= m.nDense {
		i := s - m.nDense
		for e, end := m.edgeStart[i], m.edgeStart[i+1]; e < end; e++ {
			if m.edgeByte[e] == c {
				return m.edgeNext[e]
			}
		}
		s = m.fail[s]
	}
	return m.dense[int(s)*m.nClasses+int(m.class[c])]
}

// footprint is the bytes the compiled tables occupy.
func (m *matcher) footprint() int {
	return len(m.class) + len(m.dense)*2 + len(m.edgeStart)*4 + len(m.edgeByte) + len(m.edgeNext)*2 +
		len(m.fail)*2 + len(m.outStart)*4 + len(m.outs)*2 + len(m.patterns)*12 + len(m.payloads)*6
}

// matcherBuilder collects patterns before compiling them into a matcher.
type matcherBuilder struct {
	ids      map[patternKey]int
	pats     []string
	chans    []channel
	payloads [][]payload
}

type patternKey struct {
	text string
	ch   channel
}

// add registers p on channel ch with payload pl.
func (b *matcherBuilder) add(p string, ch channel, pl payload) {
	if p == "" {
		panic("annotate: empty lexicon pattern")
	}
	if b.ids == nil {
		b.ids = make(map[patternKey]int)
	}
	k := patternKey{p, ch}
	id, ok := b.ids[k]
	if !ok {
		id = len(b.pats)
		b.ids[k] = id
		b.pats = append(b.pats, p)
		b.chans = append(b.chans, ch)
		b.payloads = append(b.payloads, nil)
	}
	b.payloads[id] = append(b.payloads[id], pl)
}

// build compiles the registered patterns. It panics when the lexicons
// outgrow the fixed-width tables, which only a lexicon edit can cause.
func (b *matcherBuilder) build() *matcher {
	if len(b.pats) > maxPatterns {
		panic("annotate: more lexicon patterns than maxPatterns")
	}
	m := &matcher{nClasses: 1}
	// Trie with map edges, in insertion order; node 0 is the root.
	children := []map[byte]int{{}}
	own := [][]uint16{nil}
	for id, p := range b.pats {
		s := 0
		for i := 0; i < len(p); i++ {
			c := p[i]
			if m.class[c] == 0 {
				m.class[c] = uint8(m.nClasses)
				m.nClasses++
			}
			n, ok := children[s][c]
			if !ok {
				n = len(children)
				children = append(children, map[byte]int{})
				own = append(own, nil)
				children[s][c] = n
			}
			s = n
		}
		own[s] = append(own[s], uint16(id))
	}
	n := len(children)
	if n > 1<<16 {
		panic("annotate: lexicon automaton exceeds 16-bit states")
	}
	// Breadth-first numbering: order[state] is the trie node, and a
	// state's failure target is shallower, so it is final first.
	order := []int{0}
	state := make([]uint16, n)
	depth := make([]int, n)
	for qi := 0; qi < len(order); qi++ {
		node := order[qi]
		if depth[node] <= denseDepth {
			m.nDense = uint16(qi + 1)
		}
		for _, c := range sortedBytes(children[node]) {
			child := children[node][c]
			state[child] = uint16(len(order))
			depth[child] = depth[node] + 1
			order = append(order, child)
		}
	}
	m.fail = make([]uint16, n)
	m.dense = make([]uint16, int(m.nDense)*m.nClasses)
	outs := make([][]uint16, n)
	// delta is the full DFA transition, known for every state already
	// numbered below the one being filled.
	delta := func(s uint16, c byte) uint16 {
		for {
			if s < m.nDense {
				return m.dense[int(s)*m.nClasses+int(m.class[c])]
			}
			if t, ok := children[order[s]][c]; ok {
				return state[t]
			}
			s = m.fail[s]
		}
	}
	for s, node := range order {
		if s > 0 {
			outs[s] = append(append([]uint16(nil), own[node]...), outs[m.fail[s]]...)
		}
		if s < int(m.nDense) {
			row := m.dense[s*m.nClasses : (s+1)*m.nClasses]
			for c := 0; c < 256; c++ {
				cl := m.class[c]
				if cl == 0 {
					continue
				}
				if t, ok := children[node][byte(c)]; ok {
					row[cl] = state[t]
				} else if s > 0 {
					row[cl] = delta(m.fail[s], byte(c))
				}
			}
		}
		for c, child := range children[node] {
			if s > 0 {
				m.fail[state[child]] = delta(m.fail[s], c)
			}
		}
	}
	m.edgeStart = make([]uint32, 0, n-int(m.nDense)+1)
	for s := int(m.nDense); s < n; s++ {
		m.edgeStart = append(m.edgeStart, uint32(len(m.edgeByte)))
		node := order[s]
		for _, c := range sortedBytes(children[node]) {
			m.edgeByte = append(m.edgeByte, c)
			m.edgeNext = append(m.edgeNext, state[children[node][c]])
		}
	}
	m.edgeStart = append(m.edgeStart, uint32(len(m.edgeByte)))
	m.outStart = make([]uint32, 0, n+1)
	for s := 0; s < n; s++ {
		m.outStart = append(m.outStart, uint32(len(m.outs)))
		m.outs = append(m.outs, outs[s]...)
	}
	m.outStart = append(m.outStart, uint32(len(m.outs)))
	for id := range b.pats {
		lo := uint32(len(m.payloads))
		m.payloads = append(m.payloads, b.payloads[id]...)
		m.patterns = append(m.patterns, pattern{ch: b.chans[id], payloadLo: lo, payloadHi: uint32(len(m.payloads))})
	}
	return m
}

func sortedBytes(edges map[byte]int) []byte {
	keys := make([]byte, 0, len(edges))
	for c := range edges {
		keys = append(keys, c)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
