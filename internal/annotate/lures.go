package annotate

import (
	"math/bits"

	"github.com/smishkit/smishkit/internal/corpus"
)

// lureLexicons hold multilingual trigger phrases per Stajano–Wilson
// principle (Table 13). Matched against folded text.
var lureLexicons = foldLexicon(map[corpus.Lure][]string{
	corpus.LureUrgency: {
		"24 hours", "today", "immediately", "now", "expires", "final reminder",
		"within", "avoid disconnection", "temporarily", "urgent", "asap",
		"24 horas", "caduca", "hoy", "ahora",
		"24 uur", "vandaag", "verloopt",
		"24 heures", "sous 24h", "aujourd'hui", "expire",
		"24 stunden", "heute", "läuft heute ab", "lauft heute ab",
		"24 ore", "oggi", "scade",
		"24 jam", "segera",
		"24 horas", "aja dentro",
		"आज", "तुरंत", "24 घंटे",
		"本日中", "至急",
	},
	corpus.LureNeedGreed: {
		"refund", "reward", "prize", "bonus", "win", "won", "earn", "free",
		"loyalty points", "claim", "owed",
		"devolución", "devolucion", "gane", "ganado", "bono",
		"teruggave", "gewonnen",
		"remboursement", "gagné", "gagne",
		"erstattung", "gewonnen", "steuererstattung",
		"rimborso", "vinto",
		"dapatkan", "memenangkan",
		"reembolso", "ganhou",
		"रिफंड", "कमाएं", "जीते",
		"当選",
	},
	corpus.LureKindness: {
		"hi mum", "hey mum", "hi mom", "hi dad", "hey dad", "can you help",
		"help me", "need your help",
		"hola mamá", "hola mama",
		"hoi mam",
		"coucou maman",
		"hallo mama",
		"ciao mamma",
		"oi mãe", "oi mae",
	},
	corpus.LureDistraction: {
		"wrong number", "is this", "are we still", "long time no see",
		"got your number", "about the apartment", "from the tennis",
		"no one was home", "incomplete address", "sorry to bother",
		"eres", "quedando",
		"ben jij",
		"c'est bien",
		"bist du",
		"apakah ini",
		"さんですか", "予定はまだ",
		"请问是",
	},
	corpus.LureHerd: {
		"thousands have", "join 10,000", "everyone is", "others who already",
		"winners", "miles ya lo han",
		"join the winners",
	},
	corpus.LureDishonesty: {
		"off the books", "no questions asked", "between us", "don't tell",
	},
})

// authorityScams presume a trusted-entity framing: when such a message
// names a brand (or claims official standing), the authority principle
// applies — the annotation prompt's "references to legitimate entities".
var authorityScams = map[corpus.ScamType]bool{
	corpus.ScamBanking:    true,
	corpus.ScamDelivery:   true,
	corpus.ScamGovernment: true,
	corpus.ScamTelecom:    true,
}

// DetectLures labels a message with its persuasion principles, given the
// already-detected scam type and brand.
func DetectLures(text string, scam corpus.ScamType, brand string) []corpus.Lure {
	v := newView(text)
	defer v.release()
	return v.lures(scam, brand)
}

func (v *view) lures(scam corpus.ScamType, brand string) []corpus.Lure {
	set := v.hits.lures
	if authorityScams[scam] && brand != "" {
		set |= 1 << lureIndex[corpus.LureAuthority]
	}
	// "Hey mum/dad" and wrong-number scams distract by construction: the
	// scenario itself is the unrelated detail.
	if scam == corpus.ScamHeyMumDad || scam == corpus.ScamWrongNumber {
		set |= 1 << lureIndex[corpus.LureDistraction]
	}
	// Sized exactly: every record retains its slice.
	out := make([]corpus.Lure, 0, bits.OnesCount16(set))
	for i, l := range corpus.Lures { // fixed order for determinism
		if set&(1<<i) != 0 {
			out = append(out, l)
		}
	}
	return out
}

// lureIndex is each lure's bit in a tally's lure set.
var lureIndex = func() map[corpus.Lure]int {
	idx := make(map[corpus.Lure]int, len(corpus.Lures))
	for i, l := range corpus.Lures {
		idx[l] = i
	}
	return idx
}()
