package annotate

import "github.com/smishkit/smishkit/internal/corpus"

// othersLexicons differentiate the "Others" category into the clusters the
// paper's manual sampling identified (§5.2): job-related conversation
// scams, investment conversations, cryptocurrency scams, OTP call-backs,
// and tech-company impersonation.
var othersLexicons = foldLexicon(map[corpus.OtherSubType][]string{
	corpus.SubJob: {
		"part-time", "job offer", "per day", "remote work", "resume",
		"openings", "recruiters", "hr here", "reviewers", "apply",
		"oferta de trabajo", "al dia", "al día",
		"lowongan kerja", "paruh waktu",
		"kumita", "trabaho",
	},
	corpus.SubCrypto: {
		"crypto", "wallet", "btc", "bitcoin", "withdrawal", "seed",
		"mining rewards", "billetera", "retiro", "usdt", "token",
	},
	corpus.SubInvestment: {
		"trading group", "returns", "investment plan", "guaranteed returns",
		"trading", "profit", "grup trading", "modal minimal",
	},
	corpus.SubOTPCallback: {
		"verification code", "security code", "did not request",
		"call us immediately", "call support",
	},
})

// techBrands are the organizations whose impersonation defines the tech
// cluster.
var techBrands = map[string]bool{
	"Netflix": true, "Amazon": true, "Facebook": true, "Telegram": true,
	"WhatsApp": true, "Apple": true, "Coinbase": true,
}

// ClassifyOthersSubType labels an Others-category message. brand is the
// already-detected impersonated entity; a tech brand decides immediately.
// Returns "" when no cluster matches (the residue the paper leaves
// undifferentiated).
func ClassifyOthersSubType(text, brand string) corpus.OtherSubType {
	v := newView(text)
	defer v.release()
	return v.othersSubType(brand)
}

func (v *view) othersSubType(brand string) corpus.OtherSubType {
	if techBrands[brand] {
		return corpus.SubTech
	}
	best := corpus.OtherSubType("")
	bestScore := 0
	for i, sub := range corpus.OtherSubTypes {
		if score := v.hits.sub[i]; score > bestScore {
			best, bestScore = sub, score
		}
	}
	if best == "" && brand != "" {
		// Branded Others messages without conversation markers read as
		// impersonation of the (non-financial) organization.
		return corpus.SubTech
	}
	return best
}
