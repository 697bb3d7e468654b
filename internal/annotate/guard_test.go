package annotate

import (
	"runtime"
	"testing"

	"github.com/smishkit/smishkit/internal/corpus"
)

// kappaCorpus is the message set BenchmarkKappaEvaluation annotates.
func kappaCorpus() []corpus.Message {
	return corpus.Generate(corpus.Config{Seed: 314, Messages: 150}).Messages
}

var sinkAnnotation Annotation

// BenchmarkAnnotate annotates the κ corpus once per op and reports the
// cost per message.
func BenchmarkAnnotate(b *testing.B) {
	msgs := kappaCorpus()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			sinkAnnotation = Annotate(m.Text, m.URL)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * len(msgs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/msg")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/msg")
}

// TestAnnotateAllocBudget pins the allocations of one annotation: the
// normalized forms live in a pooled buffer, so what is left is the folded
// and skeleton strings and the Lures slice.
func TestAnnotateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	msgs := kappaCorpus()
	const budget = 16
	allocs := testing.AllocsPerRun(5, func() {
		for _, m := range msgs {
			sinkAnnotation = Annotate(m.Text, m.URL)
		}
	}) / float64(len(msgs))
	t.Logf("%.2f allocs/msg over %d messages", allocs, len(msgs))
	if allocs > budget {
		t.Errorf("Annotate allocates %.2f times per message, budget %d", allocs, budget)
	}
}

// TestLexiconAutomatonFootprint bounds the compiled tables every process
// holds for its lifetime.
func TestLexiconAutomatonFootprint(t *testing.T) {
	const budget = 1 << 20
	fp := lexicon.footprint()
	t.Logf("%d states (%d dense over %d byte classes), %d patterns, %d payloads, %d bytes",
		len(lexicon.fail), lexicon.nDense, lexicon.nClasses, len(lexicon.patterns), len(lexicon.payloads), fp)
	if fp > budget {
		t.Errorf("lexicon automaton uses %d bytes, budget %d", fp, budget)
	}
}
