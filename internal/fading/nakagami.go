package fading

import (
	"math"

	"repro/internal/stats"
)

// nakagami maps each Rayleigh envelope onto a Nakagami-m envelope of the same
// mean power Ω_j through the exact probability-integral transform:
//
//	p2 = |z_j|²/Ω_j                      (Exp(1): the Rayleigh power)
//	G  = Q⁻¹(m, e^{−p2})                 (Gamma(m, 1) with the same tail)
//	r' = sqrt(G·Ω_j/m)                   (Nakagami-m envelope, E[r'²] = Ω_j)
//	z' = z_j·(r'/|z_j|)                  (phase preserved)
//
// G = P⁻¹(m, 1 − e^{−p2}) is the same map, but G is solved from
// ln Q(m, G) = −p2, so 1 − e^{−p2} is never rounded toward 1. The quantile
// map is tabulated once per m (stats.GammaExpQuantile), so a sample costs
// one table lookup and one Halley step. The map is monotone in the envelope,
// so the rank correlation structure of the correlated Rayleigh field carries
// over; m = 1 is the identity up to round-off.
type nakagami struct {
	quantile   *stats.GammaExpQuantile
	invOmega   []float64 // 1/Ω_j
	omegaOverM []float64 // Ω_j/m
}

func newNakagami(m float64, powers []float64) *nakagami {
	t := &nakagami{
		quantile:   stats.NewGammaExpQuantile(m),
		invOmega:   make([]float64, len(powers)),
		omegaOverM: make([]float64, len(powers)),
	}
	for j, p := range powers {
		t.invOmega[j] = 1 / p
		t.omegaOverM[j] = p / m
	}
	return t
}

// Apply transforms one envelope row in place.
//
// fadinglint:allocfree
func (t *nakagami) Apply(env int, _ uint64, z []complex128, r []float64) {
	invOmega := t.invOmega[env]
	omegaOverM := t.omegaOverM[env]
	for i, v := range z {
		re, im := real(v), imag(v)
		pow := float64(re*re) + float64(im*im)
		if pow == 0 {
			z[i] = 0
			r[i] = 0
			continue
		}
		g := t.quantile.At(pow * invOmega)
		rn := math.Sqrt(g * omegaOverM)
		sc := rn / math.Sqrt(pow)
		z[i] = complex(re*sc, im*sc)
		r[i] = rn
	}
}
