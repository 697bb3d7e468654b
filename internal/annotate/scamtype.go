package annotate

import "github.com/smishkit/smishkit/internal/corpus"

// Multilingual keyword lexicons per scam category. Matching happens on
// folded text (homoglyphs collapsed, lowercased); each keyword present adds
// 1 plus its number of spaces to its category's score.
var scamLexicons = foldLexicon(map[corpus.ScamType][]string{
	corpus.ScamBanking: {
		// en
		"account", "bank", "banking", "kyc", "card", "net banking", "signed in",
		"suspended", "locked", "login attempt", "netbank",
		// es
		"cuenta", "tarjeta", "bloqueada", "dispositivo",
		// nl
		"rekening", "bankpas",
		// fr
		"compte", "carte",
		// de
		"konto", "karte", "gesperrt",
		// it
		"conto", "carta",
		// id
		"rekening anda", "diblokir",
		// pt
		"conta", "cartão", "cartao",
		// hi (devanagari keywords kept verbatim)
		"खाता", "बैंक",
		// ja
		"口座", "取引",
		// cs/tr/pl/sv/ro/uk/ru generic "account"
		"účet", "ucet", "hesabınız", "hesabiniz", "konto suspendowane", "rachunek",
		"contul", "рахунок", "аккаунт",
	},
	corpus.ScamDelivery: {
		"parcel", "package", "delivery", "depot", "redelivery", "customs", "shipment", "courier", "tracking",
		"paquete", "entrega", "almacén", "almacen", "pedido",
		"pakket", "bezorgen", "bezorging", "douane",
		"colis", "livraison",
		"paket", "zustellung", "sendung",
		"pacco", "giacenza",
		"paket anda", "tertahan", "gudang",
		"encomenda",
		"पार्सल",
		"お荷物", "お届け", "不在",
		"zásilka", "zasilka", "doručení", "doruceni",
		"kargonuz", "paczka", "csomagja", "paket väntar",
	},
	corpus.ScamGovernment: {
		"tax refund", "tax", "hmrc", "irs", "penalty", "prosecution", "benefit", "vehicle tax", "fine", "rebate",
		"devolución", "devolucion", "multa", "tributaria", "seguridad social",
		"teruggave", "boete", "belastingdienst", "digid",
		"remboursement", "amende", "impots", "impôts",
		"steuererstattung", "steuer",
		"rimborso",
		"reembolso",
		"रिफंड",
		"myGov", "ato", "dvla", "nhs",
	},
	corpus.ScamTelecom: {
		"bill payment", "sim card", "sim", "disconnection", "loyalty points", "re-register", "bill",
		"factura", "corte",
		"betaling is mislukt", "betaalgegevens",
		"forfait", "facture",
		"zahlung ist fehlgeschlagen",
		"bolletta",
		"tagihan",
		"सिम",
		"ご利用料金",
	},
	corpus.ScamWrongNumber: {
		"is this", "are we still", "long time no see", "got your number", "wrong number",
		"sorry to bother", "from the tennis", "about the apartment",
		"eres", "me dio tu número", "me dio tu numero", "quedando",
		"ben jij", "kreeg je nummer",
		"c'est bien", "j'ai eu votre numéro", "j'ai eu votre numero",
		"bist du", "deine nummer",
		"sei", "il tuo numero",
		"apakah ini", "dapat nomor",
		"さんですか", "お会いした", "予定はまだ",
		"请问是", "认识的",
	},
	corpus.ScamHeyMumDad: {
		"hi mum", "hey mum", "hi mom", "hey mom", "hi dad", "hey dad", "mum,", "dad,",
		"dropped my phone", "phone broke", "new number", "lost my phone",
		"hola mamá", "hola mama", "se me cayó el móvil", "numero nuevo", "número nuevo",
		"hoi mam", "telefoon is kapot",
		"coucou maman", "cassé mon téléphone", "casse mon telephone",
		"hallo mama", "handy ist kaputt",
		"ciao mamma", "rotto il telefono",
		"oi mãe", "oi mae", "celular quebrou",
	},
	corpus.ScamSpam: {
		"congratulations", "won", "weekly draw", "casino", "bonus", "deals", "% off", "winners", "raffle",
		"enhorabuena", "ganado", "sorteo",
		"gefeliciteerd", "gewonnen", "trekking",
		"félicitations", "felicitations", "gagné", "gagne", "tirage",
		"glückwunsch", "gluckwunsch", "verlosung",
		"congratulazioni", "estrazione",
		"selamat", "memenangkan", "undian",
		"parabéns", "parabens", "sorteio",
		"binabati", "nanalo",
		"बधाई", "जीते",
		"当選", "おめでとう",
		"поздравляем", "выиграли",
	},
	corpus.ScamOthers: {
		"subscription", "keep watching", "reactivate", "inactivity", "part-time job", "crypto", "wallet",
		"withdrawal", "earn", "sign-in detected", "apply",
		"suscripción", "suscripcion", "oferta de trabajo",
		"abonnement", "abonnements",
		"abozahlung",
		"abbonamento",
		"lowongan kerja", "dihapus",
		"assinatura",
		"part-time", "kumita",
		"कमाएं", "आवेदन",
		"アカウント",
		"账户", "核实",
	},
})

// scamPriority orders categories for tie-breaking: the conversation scams
// have distinctive openings and win when matched at all; spam markers beat
// the broad "others" bucket.
var scamPriority = [...]corpus.ScamType{
	corpus.ScamHeyMumDad,
	corpus.ScamWrongNumber,
	corpus.ScamDelivery,
	corpus.ScamGovernment,
	corpus.ScamTelecom,
	corpus.ScamBanking,
	corpus.ScamSpam,
	corpus.ScamOthers,
}

// ClassifyScamType labels a message with one of the eight categories.
func ClassifyScamType(text string) corpus.ScamType {
	v := newView(text)
	defer v.release()
	return v.scamType()
}

func (v *view) scamType() corpus.ScamType {
	bestType := corpus.ScamOthers
	bestScore := 0
	for i, scam := range scamPriority {
		score := v.hits.scam[i]
		// Conversation scams: a single distinctive phrase is decisive.
		if (scam == corpus.ScamHeyMumDad || scam == corpus.ScamWrongNumber) && score > 0 {
			score += 2
		}
		if score > bestScore {
			bestType, bestScore = scam, score
		}
	}
	return bestType
}
