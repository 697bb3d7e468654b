package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile. A p95
// over fewer than 200 samples rests on a handful of outliers and moves from
// run to run for no reason the program controls, so it is refused instead.
const minTail = 10

// percentile returns the p-quantile (0 < p < 1) of xs by the Harrell-Davis
// estimator: a weighted mean of every order statistic, with the weights of a
// Beta(p(n+1), (1-p)(n+1)) distribution over the ranks. It tracks the
// nearest-rank quantile but does not jump with whichever single sample sits
// at the rank, so a tail percentile varies much less from run to run. It
// refuses, with an error naming the shortfall, when fewer than minTail
// samples lie above the nearest rank.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", p*100)
	}
	rank := max(int(math.Ceil(p*float64(n))), 1)
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("percentile p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	var v, prev float64
	for i := range s {
		cdf := betaInc(a, b, float64(i+1)/float64(n))
		v += (cdf - prev) * s[i]
		prev = cdf
	}
	return v, nil
}

// betaInc is the regularized incomplete beta function I_x(a, b), evaluated
// by its continued fraction on whichever side of the mean converges.
func betaInc(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lga, _ := math.Lgamma(a)
	lgb, _ := math.Lgamma(b)
	lgab, _ := math.Lgamma(a + b)
	front := math.Exp(lgab - lga - lgb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 500; m++ {
		fm := float64(m)
		for _, num := range [2]float64{
			fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm)),
			-(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1)),
		} {
			d = 1 + num*d
			if math.Abs(d) < tiny {
				d = tiny
			}
			c = 1 + num/c
			if math.Abs(c) < tiny {
				c = tiny
			}
			d = 1 / d
			h *= d * c
		}
		if math.Abs(d*c-1) < 1e-12 {
			break
		}
	}
	return h
}

// median is the middle value of xs (the mean of the two middle values for an
// even count). It needs no tail, so it never refuses a non-empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
