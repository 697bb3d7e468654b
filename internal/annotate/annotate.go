package annotate

import (
	"github.com/smishkit/smishkit/internal/corpus"
	"github.com/smishkit/smishkit/internal/stats"
)

// Annotation is the full labeling of one message: the four properties the
// paper's GPT prompt returns (Appendix D.2).
type Annotation struct {
	ScamType corpus.ScamType
	SubType  corpus.OtherSubType // set when ScamType is Others
	Language string
	Brand    string
	Lures    []corpus.Lure
}

// Annotate runs the full labeling pipeline over a message text and its
// (optional) URL. The text is normalized once and every lexicon is matched
// in one automaton pass per normalized form; each detector reads the hits.
func Annotate(text, url string) Annotation {
	v := newView(text)
	defer v.release()
	scam := v.scamType()
	brand := v.brand(url)
	a := Annotation{
		ScamType: scam,
		Language: v.language(),
		Brand:    brand,
		Lures:    v.lures(scam, brand),
	}
	if scam == corpus.ScamOthers {
		a.SubType = v.othersSubType(brand)
	}
	return a
}

// Agreement holds the §3.4-style evaluation of the annotator against a
// golden label set: Cohen's kappa per property.
type Agreement struct {
	ScamKappa  float64
	BrandKappa float64
	LureKappa  float64
	LangKappa  float64
	N          int
}

// Evaluate scores predicted annotations against golden ones.
func Evaluate(golden, predicted []Annotation) (Agreement, error) {
	if len(golden) != len(predicted) {
		return Agreement{}, stats.ErrLengthMismatch
	}
	n := len(golden)
	scamG := make([]string, n)
	scamP := make([]string, n)
	brandG := make([]string, n)
	brandP := make([]string, n)
	langG := make([]string, n)
	langP := make([]string, n)
	luresG := make([][]string, n)
	luresP := make([][]string, n)
	for i := range golden {
		scamG[i], scamP[i] = string(golden[i].ScamType), string(predicted[i].ScamType)
		brandG[i], brandP[i] = golden[i].Brand, predicted[i].Brand
		langG[i], langP[i] = golden[i].Language, predicted[i].Language
		luresG[i] = lureStrings(golden[i].Lures)
		luresP[i] = lureStrings(predicted[i].Lures)
	}
	var agr Agreement
	var err error
	if agr.ScamKappa, err = stats.CohenKappa(scamG, scamP); err != nil {
		return agr, err
	}
	if agr.BrandKappa, err = stats.CohenKappa(brandG, brandP); err != nil {
		return agr, err
	}
	if agr.LangKappa, err = stats.CohenKappa(langG, langP); err != nil {
		return agr, err
	}
	if agr.LureKappa, err = stats.MultiLabelKappa(luresG, luresP); err != nil {
		return agr, err
	}
	agr.N = n
	return agr, nil
}

func lureStrings(ls []corpus.Lure) []string {
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = string(l)
	}
	return out
}
