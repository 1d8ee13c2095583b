package doppler

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/randx"
)

// Generator is the single-envelope Rayleigh fading generator of Fig. 2 of
// the paper (the Young–Beaulieu IDFT model): M i.i.d. real Gaussian samples
// A[k] and B[k] are weighted by the Doppler filter coefficients F[k], the
// complex spectrum U[k] = F[k]·A[k] − i·F[k]·B[k] is inverse-transformed, and
// the resulting time sequence u[l] is a zero-mean complex Gaussian process
// with the Jakes autocorrelation J0(2π·fm·d).
type Generator struct {
	spec       FilterSpec
	sigmaOrig2 float64
	sigmaOrig  float64
	coeffs     []float64
	outputVar  float64
	plan       *dsp.Plan
	// bins lists, for power-of-two M, the nonzero filter coefficients in
	// ascending k (the Gaussian draw order) with the bit-reversed slot
	// each spectrum value is written to. It is nil for Bluestein M.
	bins []inBandBin
}

// inBandBin is one nonzero Doppler filter coefficient F[k] and the slot of
// X[k] in bit-reversed order.
type inBandBin struct {
	coeff float64
	slot  int
}

// NewGenerator builds a Generator for the given filter spec and input
// variance σ²_orig (the variance of each real Gaussian sequence feeding the
// filter).
func NewGenerator(spec FilterSpec, sigmaOrig2 float64) (*Generator, error) {
	if sigmaOrig2 <= 0 {
		return nil, fmt.Errorf("doppler: input variance %g must be positive: %w", sigmaOrig2, ErrBadParameter)
	}
	coeffs, err := spec.Coefficients()
	if err != nil {
		return nil, err
	}
	plan := dsp.NewPlan(spec.M)
	var bins []inBandBin
	if spec.M&(spec.M-1) == 0 {
		for k, c := range coeffs {
			if c != 0 {
				bins = append(bins, inBandBin{coeff: c, slot: plan.BitReverse(k)})
			}
		}
	}
	return &Generator{
		spec:       spec,
		sigmaOrig2: sigmaOrig2,
		sigmaOrig:  math.Sqrt(sigmaOrig2),
		coeffs:     coeffs,
		outputVar:  OutputVariance(coeffs, spec.M, sigmaOrig2),
		plan:       plan,
		bins:       bins,
	}, nil
}

// Spec returns the filter specification.
func (g *Generator) Spec() FilterSpec { return g.spec }

// Coefficients returns the Doppler filter coefficients (shared storage; do
// not modify).
func (g *Generator) Coefficients() []float64 { return g.coeffs }

// OutputVariance returns σ²_g of Eq. (19) for this generator. This value is
// what step 6 of the combined algorithm (Section 5) must use when whitening
// the filtered samples before coloring.
func (g *Generator) OutputVariance() float64 { return g.outputVar }

// BlockLength returns the number of time samples produced per block (M).
func (g *Generator) BlockLength() int { return g.spec.M }

// Block generates one block of M time-domain samples u[0..M−1] using fresh
// Gaussian input from rng. Each call produces an independent block.
func (g *Generator) Block(rng *randx.RNG) []complex128 {
	out := make([]complex128, g.spec.M)
	// Length is correct by construction, so BlockInto cannot fail.
	_ = g.BlockInto(rng, out)
	return out
}

// BlockInto generates one block of M time-domain samples into dst, which must
// have length M. The frequency-domain samples are written directly into dst
// and transformed in place by the cached IDFT plan, so for power-of-two M the
// call performs no heap allocation. The Gaussian draw order is identical to
// Block.
//
// For power-of-two M only the in-band bins are drawn, and each value
// U[k]·2^−log2(M) goes straight into its bit-reversed slot before the
// plan's InverseBitReversed runs: the permutation pass, the 1/M pass and
// the M-long branchy loop over zero coefficients are gone, and because
// scaling by a power of two is exact the samples are bit-identical to
// InverseScaled of the natural-order spectrum. Bluestein M keeps that path.
//
// The generator itself is read-only after construction; concurrent BlockInto
// calls with distinct rng and dst are safe when M is a power of two (the
// plan's Bluestein scratch for other lengths is shared).
//
// fadinglint:allocfree
func (g *Generator) BlockInto(rng *randx.RNG, dst []complex128) error {
	m := g.spec.M
	if len(dst) != m {
		return fmt.Errorf("doppler: BlockInto destination length %d, want %d: %w", len(dst), m, ErrBadParameter)
	}
	if g.bins != nil {
		clear(dst)
		scale := 1 / float64(m)
		for _, bin := range g.bins {
			a := rng.Normal(0, g.sigmaOrig)
			b := rng.Normal(0, g.sigmaOrig)
			// U[k] = F[k]·A[k] − i·F[k]·B[k], scaled by 1/M.
			c := bin.coeff
			dst[bin.slot] = complex(c*a*scale, -c*b*scale)
		}
		g.plan.InverseBitReversed(dst)
		return nil
	}
	for k := 0; k < m; k++ {
		c := g.coeffs[k]
		if c == 0 {
			dst[k] = 0
			continue
		}
		a := rng.Normal(0, g.sigmaOrig)
		b := rng.Normal(0, g.sigmaOrig)
		// U[k] = F[k]·A[k] − i·F[k]·B[k]
		dst[k] = complex(c*a, -c*b)
	}
	g.plan.InverseScaled(dst)
	return nil
}

// TheoreticalLagCorrelation returns the unnormalized theoretical
// autocorrelation of the real (or imaginary) part at the given lag,
// Eq. (16): r_RR[d] = σ²_orig/M · Re{g[d]}, where g is the IDFT of F².
func (g *Generator) TheoreticalLagCorrelation(lag int) float64 {
	m := g.spec.M
	sq := make([]complex128, m)
	for k, c := range g.coeffs {
		sq[k] = complex(c*c, 0)
	}
	gd := dsp.IFFT(sq)
	idx := ((lag % m) + m) % m
	return g.sigmaOrig2 / float64(m) * real(gd[idx])
}

// NormalizedAutocorrelation returns the theoretical normalized
// autocorrelation r_RR[d]/σ²_g ≈ J0(2π·fm·d) (Eq. (20)).
func (g *Generator) NormalizedAutocorrelation(lag int) float64 {
	return 2 * g.TheoreticalLagCorrelation(lag) / g.outputVar
}
