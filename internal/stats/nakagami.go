package stats

import (
	"fmt"
	"math"
	"sort"
)

// RegularizedGammaP returns the regularized lower incomplete gamma function
// P(a, x) = γ(a, x)/Γ(a), the CDF of a Gamma(a, 1) variate.
func RegularizedGammaP(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return lowerGammaSeries(a, x)
	}
	return 1 - upperGammaCF(a, x)
}

// RegularizedGammaQ returns the regularized upper incomplete gamma function
// Q(a, x) = Γ(a, x)/Γ(a) = 1 − P(a, x).
func RegularizedGammaQ(a, x float64) float64 {
	return regularizedGammaQ(a, x)
}

// NakagamiDist is the Nakagami-m envelope distribution with shape M ≥ 0.5 and
// mean power Omega = E[r²]. M = 1 is exactly Rayleigh with σ² = Omega/2.
type NakagamiDist struct {
	M     float64
	Omega float64
}

// PDF is the Nakagami density 2·m^m·x^{2m−1}·exp(−m·x²/Ω) / (Γ(m)·Ω^m).
func (d NakagamiDist) PDF(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		if d.M == 0.5 {
			return math.Sqrt(2 / (math.Pi * d.Omega))
		}
		return 0
	}
	gln, _ := math.Lgamma(d.M)
	logp := math.Log(2) + d.M*math.Log(d.M/d.Omega) + (2*d.M-1)*math.Log(x) -
		d.M*x*x/d.Omega - gln
	return math.Exp(logp)
}

// CDF is P(m, m·x²/Ω).
func (d NakagamiDist) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return RegularizedGammaP(d.M, d.M*x*x/d.Omega)
}

// Quantile inverts the CDF.
func (d NakagamiDist) Quantile(p float64) (float64, error) {
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("stats: quantile p = %g outside [0, 1]: %w", p, ErrBadInput)
	}
	return math.Sqrt(d.Omega / d.M * InverseRegularizedGammaP(d.M, p)), nil
}

// Mean is Γ(m+1/2)/Γ(m) · sqrt(Ω/m).
func (d NakagamiDist) Mean() float64 {
	lgHalf, _ := math.Lgamma(d.M + 0.5)
	lg, _ := math.Lgamma(d.M)
	return math.Exp(lgHalf-lg) * math.Sqrt(d.Omega/d.M)
}

// MeanSquare is Ω.
func (d NakagamiDist) MeanSquare() float64 { return d.Omega }

// KolmogorovSmirnov returns the one-sample KS statistic of the sample against
// an arbitrary continuous CDF, with the asymptotic p-value from the
// Kolmogorov distribution. KolmogorovSmirnovRayleigh is the Rayleigh special
// case.
func KolmogorovSmirnov(x []float64, cdf func(float64) float64) (statistic, pValue float64, err error) {
	if len(x) == 0 {
		return 0, 0, fmt.Errorf("stats: KS test on empty sample: %w", ErrBadInput)
	}
	sorted := append([]float64(nil), x...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var dMax float64
	for i, v := range sorted {
		c := cdf(v)
		if upper := float64(i+1)/n - c; upper > dMax {
			dMax = upper
		}
		if lower := c - float64(i)/n; lower > dMax {
			dMax = lower
		}
	}
	return dMax, kolmogorovPValue(dMax * (math.Sqrt(n) + 0.12 + 0.11/math.Sqrt(n))), nil
}
