package annotate

import (
	"sort"
	"strings"
)

// brandEntry is one recognizable organization.
type brandEntry struct {
	Name    string   // canonical name as reported (Table 12)
	Aliases []string // skeleton-form aliases matched in text
	Slugs   []string // domain-name fragments matched in URLs/hosts
}

// brandRegistry covers the corpus's impersonated organizations. Aliases are
// matched against the *skeleton* of the text (lowercased, homoglyphs
// collapsed, leetspeak undone) so "N3tfl!x" and "Ｎｅｔｆｌｉｘ" both hit:
// word aliases as whole words of its punctuation-free form, raw aliases
// (see isRawAlias) as substrings of the skeleton itself.
var brandRegistry = skeletonAliases([]brandEntry{
	{"State Bank of India", []string{"state bank of india", "sbi"}, []string{"sbi"}},
	{"PayTM", []string{"paytm"}, []string{"paytm"}},
	{"HDFC", []string{"hdfc"}, []string{"hdfc"}},
	{"ICICI Bank", []string{"icici"}, []string{"icici"}},
	{"Axis Bank", []string{"axis bank"}, []string{"axis"}},
	{"Punjab National Bank", []string{"punjab national bank", "pnb"}, []string{"pnb"}},
	{"Santander", []string{"santander"}, []string{"santander"}},
	{"BBVA", []string{"bbva"}, []string{"bbva"}},
	{"CaixaBank", []string{"caixabank", "caixa"}, []string{"caixabank"}},
	{"Banco Sabadell", []string{"sabadell"}, []string{"sabadell"}},
	{"Rabobank", []string{"rabobank"}, []string{"rabobank"}},
	{"ING", []string{"ing bank", " ing "}, []string{"ing"}},
	{"ABN AMRO", []string{"abn amro", "abnamro"}, []string{"abnamro"}},
	{"HSBC", []string{"hsbc"}, []string{"hsbc"}},
	{"Barclays", []string{"barclays"}, []string{"barclays"}},
	{"Lloyds Bank", []string{"lloyds"}, []string{"lloyds"}},
	{"NatWest", []string{"natwest"}, []string{"natwest"}},
	{"Monzo", []string{"monzo"}, []string{"monzo"}},
	{"Chase", []string{"chase"}, []string{"chase"}},
	{"Bank of America", []string{"bank of america", "bofa"}, []string{"bofa"}},
	{"Wells Fargo", []string{"wells fargo", "wellsfargo"}, []string{"wellsfargo"}},
	{"Citibank", []string{"citibank", "citi"}, []string{"citi"}},
	{"PayPal", []string{"paypal"}, []string{"paypal"}},
	{"Crédit Agricole", []string{"credit agricole"}, []string{"credit-agricole"}},
	{"BNP Paribas", []string{"bnp paribas", "bnp"}, []string{"bnp"}},
	{"Société Générale", []string{"societe generale", "socgen"}, []string{"socgen"}},
	{"Sparkasse", []string{"sparkasse"}, []string{"sparkasse"}},
	{"Deutsche Bank", []string{"deutsche bank"}, []string{"deutschebank"}},
	{"Commerzbank", []string{"commerzbank"}, []string{"commerzbank"}},
	{"Intesa Sanpaolo", []string{"intesa sanpaolo", "intesa"}, []string{"intesa"}},
	{"UniCredit", []string{"unicredit"}, []string{"unicredit"}},
	{"Itaú", []string{"itau"}, []string{"itau"}},
	{"Millennium BCP", []string{"millennium bcp", "bcp"}, []string{"bcp"}},
	{"Commonwealth Bank", []string{"commonwealth bank", "commbank"}, []string{"commbank"}},
	{"ANZ", []string{"anz"}, []string{"anz"}},
	{"Westpac", []string{"westpac"}, []string{"westpac"}},
	{"KBC", []string{"kbc"}, []string{"kbc"}},
	{"Belfius", []string{"belfius"}, []string{"belfius"}},
	{"Bank BRI", []string{"bank bri", "bri"}, []string{"bri"}},
	{"Bank Mandiri", []string{"mandiri"}, []string{"mandiri"}},
	{"MUFG", []string{"mufg"}, []string{"mufg"}},
	{"SMBC", []string{"smbc"}, []string{"smbc"}},
	{"USPS", []string{"usps"}, []string{"usps"}},
	{"FedEx", []string{"fedex"}, []string{"fedex"}},
	{"UPS", []string{" ups "}, []string{"ups"}},
	{"Royal Mail", []string{"royal mail", "royalmail"}, []string{"royalmail"}},
	{"Evri", []string{"evri"}, []string{"evri"}},
	{"DPD", []string{"dpd"}, []string{"dpd"}},
	{"Hermes", []string{"hermes"}, []string{"hermes"}},
	{"Correos", []string{"correos"}, []string{"correos"}},
	{"SEUR", []string{"seur"}, []string{"seur"}},
	{"DHL", []string{"dhl"}, []string{"dhl"}},
	{"Deutsche Post", []string{"deutsche post"}, []string{"deutschepost"}},
	{"La Poste", []string{"la poste", "laposte"}, []string{"laposte"}},
	{"Chronopost", []string{"chronopost"}, []string{"chronopost"}},
	{"Colissimo", []string{"colissimo"}, []string{"colissimo"}},
	{"PostNL", []string{"postnl"}, []string{"postnl"}},
	{"Česká pošta", []string{"ceska posta", "česká pošta"}, []string{"ceskaposta"}},
	{"Australia Post", []string{"australia post", "auspost"}, []string{"auspost"}},
	{"StarTrack", []string{"startrack"}, []string{"startrack"}},
	{"India Post", []string{"india post"}, []string{"indiapost"}},
	{"Delhivery", []string{"delhivery"}, []string{"delhivery"}},
	{"Poste Italiane", []string{"poste italiane"}, []string{"poste"}},
	{"BRT", []string{" brt "}, []string{"brt"}},
	{"bpost", []string{"bpost"}, []string{"bpost"}},
	{"Japan Post", []string{"japan post"}, []string{"japanpost"}},
	{"Yamato", []string{"yamato"}, []string{"yamato"}},
	{"JNE", []string{" jne "}, []string{"jne"}},
	{"Pos Indonesia", []string{"pos indonesia"}, []string{"posindonesia"}},
	{"Internal Revenue Service", []string{"internal revenue service", "irs"}, []string{"irs"}},
	{"Social Security Administration", []string{"social security"}, []string{"ssa"}},
	{"DMV", []string{"dmv"}, []string{"dmv"}},
	{"HMRC", []string{"hmrc"}, []string{"hmrc"}},
	{"DVLA", []string{"dvla"}, []string{"dvla"}},
	{"NHS", []string{"nhs"}, []string{"nhs"}},
	{"impots.gouv.fr", []string{"impots.gouv", "impots"}, []string{"impots"}},
	{"Ameli", []string{"ameli"}, []string{"ameli"}},
	{"ANTAI", []string{"antai"}, []string{"antai"}},
	{"myGov", []string{"mygov"}, []string{"mygov"}},
	{"ATO", []string{" ato "}, []string{"ato"}},
	{"Belastingdienst", []string{"belastingdienst"}, []string{"belastingdienst"}},
	{"DigiD", []string{"digid"}, []string{"digid"}},
	{"Agencia Tributaria", []string{"agencia tributaria"}, []string{"aeat"}},
	{"Seguridad Social", []string{"seguridad social"}, []string{"seg-social"}},
	{"Income Tax Department", []string{"income tax department"}, []string{"incometax"}},
	{"EPFO", []string{"epfo"}, []string{"epfo"}},
	{"Bundesfinanzministerium", []string{"bundesfinanzministerium"}, []string{"bzst"}},
	{"Agenzia delle Entrate", []string{"agenzia delle entrate"}, []string{"agenziaentrate"}},
	{"O2", []string{" o2 ", "o2:"}, []string{"o2"}},
	{"EE", []string{" ee ", "ee:"}, []string{"ee"}},
	{"Vodafone", []string{"vodafone"}, []string{"vodafone"}},
	{"Three", []string{"three:"}, []string{"three"}},
	{"SFR", []string{"sfr"}, []string{"sfr"}},
	{"Orange", []string{"orange"}, []string{"orange"}},
	{"Bouygues", []string{"bouygues"}, []string{"bouygues"}},
	{"Movistar", []string{"movistar"}, []string{"movistar"}},
	{"KPN", []string{"kpn"}, []string{"kpn"}},
	{"Airtel", []string{"airtel"}, []string{"airtel"}},
	{"Jio", []string{"jio"}, []string{"jio"}},
	{"Vi", []string{" vi:"}, []string{"vi"}},
	{"Verizon", []string{"verizon"}, []string{"verizon"}},
	{"AT&T", []string{"at&t", "att:"}, []string{"att"}},
	{"T-Mobile", []string{"t-mobile", "tmobile"}, []string{"tmobile"}},
	{"Telekom", []string{"telekom:"}, []string{"telekom"}},
	{"Telstra", []string{"telstra"}, []string{"telstra"}},
	{"Optus", []string{"optus"}, []string{"optus"}},
	{"TIM", []string{"tim:"}, []string{"tim"}},
	{"Proximus", []string{"proximus"}, []string{"proximus"}},
	{"Amazon", []string{"amazon"}, []string{"amazon"}},
	{"Netflix", []string{"netflix"}, []string{"netflix"}},
	{"Facebook", []string{"facebook"}, []string{"facebook"}},
	{"Coinbase", []string{"coinbase"}, []string{"coinbase"}},
	{"Apple", []string{"apple"}, []string{"apple"}},
	{"WhatsApp", []string{"whatsapp"}, []string{"whatsapp"}},
	{"Telegram", []string{"telegram"}, []string{"telegram"}},
	{"Standard Chartered", []string{"standard chartered"}, []string{"sc"}},
	{"Tax Authority", []string{"tax authority"}, []string{"tax"}},
	{"Customs Office", []string{"customs office"}, []string{"customs"}},
})

// slugIndex maps slug -> brand for URL-based attribution. Longer slugs win.
var slugIndex = func() map[string]string {
	idx := make(map[string]string)
	for _, e := range brandRegistry {
		for _, s := range e.Slugs {
			idx[s] = e.Name
		}
	}
	return idx
}()

// sortedSlugs caches slugs longest-first for greedy host matching.
var sortedSlugs = func() []string {
	out := make([]string, 0, len(slugIndex))
	for s := range slugIndex {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) > len(out[j])
		}
		return out[i] < out[j]
	})
	return out
}()

// DetectBrand finds the impersonated organization in a message, using the
// normalized text first and the URL host as a fallback (scammers often name
// the brand only in the domain). Returns "" when nothing matches —
// conversation scams carry no brand.
func DetectBrand(text, urlStr string) string {
	v := newView(text)
	defer v.release()
	return v.brand(urlStr)
}

// brand returns the first registry entry with an alias in the text, else
// the brand of the longest slug in the URL host.
func (v *view) brand(urlStr string) string {
	if v.hits.brand >= 0 {
		return brandRegistry[v.hits.brand].Name
	}
	if urlStr != "" {
		v.scanHost(urlStr)
		if v.hits.slug >= 0 {
			return slugIndex[sortedSlugs[v.hits.slug]]
		}
	}
	return ""
}

// isRawAlias reports whether an alias is matched against the skeleton with
// its punctuation kept ("at&t", "o2:", " ing ") rather than as whole words.
func isRawAlias(alias string) bool {
	return strings.ContainsAny(alias, ":.&") || strings.HasPrefix(alias, " ")
}

func hostPart(u string) string {
	s := strings.ToLower(u)
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexAny(s, "/?"); i >= 0 {
		s = s[:i]
	}
	return s
}
