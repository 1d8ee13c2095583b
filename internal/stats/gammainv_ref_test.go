package stats

import "math"

// referenceInverseGammaP is the inverse the Nakagami-m transform used before
// the complement-aware solver (Numerical Recipes 6.2.1: an asymptotic starting
// guess refined by up to 12 Halley iterations on P, stopping at 1e-11
// relative). It is accurate while 1 − p keeps its digits, roughly p ≤ 1 − 1e-6,
// and is kept only as a cross-check of the new solver there.
func referenceInverseGammaP(a, p float64) float64 {
	if a <= 0 || math.IsNaN(p) {
		return math.NaN()
	}
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return math.Max(100, a+100*math.Sqrt(a))
	}
	gln, _ := math.Lgamma(a)
	a1 := a - 1
	var x, lna1, afac float64
	if a > 1 {
		lna1 = math.Log(a1)
		afac = math.Exp(a1*(lna1-1) - gln)
		pp := p
		if p >= 0.5 {
			pp = 1 - p
		}
		t := math.Sqrt(-2 * math.Log(pp))
		x = (2.30753+t*0.27061)/(1+t*(0.99229+t*0.04481)) - t
		if p < 0.5 {
			x = -x
		}
		x = math.Max(1e-3, a*math.Pow(1-1/(9*a)-x/(3*math.Sqrt(a)), 3))
	} else {
		t := 1 - a*(0.253+a*0.12)
		if p < t {
			x = math.Pow(p/t, 1/a)
		} else {
			x = 1 - math.Log(1-(p-t)/(1-t))
		}
	}
	for j := 0; j < 12; j++ {
		if x <= 0 {
			return 0
		}
		err := RegularizedGammaP(a, x) - p
		var t float64
		if a > 1 {
			t = afac * math.Exp(-(x-a1)+a1*(math.Log(x)-lna1))
		} else {
			t = math.Exp(-x + a1*math.Log(x) - gln)
		}
		u := err / t
		t = u / (1 - 0.5*math.Min(1, u*((a-1)/x-1)))
		x -= t
		if x <= 0 {
			x = 0.5 * (x + t)
		}
		if math.Abs(t) < 1e-11*x {
			break
		}
	}
	return x
}
