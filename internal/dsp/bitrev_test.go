package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"
	"testing"
)

// radix4Ref is the power-of-two transform as it stood before the per-stage
// twiddle tables, the zero-group skip and the fused forward/inverse
// butterfly: permutation, flat twiddle table, w3 formed per butterfly and a
// branch on the direction. The plan must reproduce it bit for bit.
func radix4Ref(x []complex128, inverse bool) {
	n := len(x)
	if n == 1 {
		return
	}
	logN := bits.TrailingZeros(uint(n))
	for i := range x {
		j := int(bits.Reverse(uint(i)) >> (bits.UintSize - logN))
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	tw := make([]complex128, n/2)
	for k := range tw {
		tw[k] = cmplx.Exp(complex(0, -2*math.Pi*float64(k)/float64(n)))
		if inverse {
			tw[k] = cmplx.Conj(tw[k])
		}
	}
	size := 1
	if logN&1 == 1 {
		for i := 0; i < n; i += 2 {
			a, b := x[i], x[i+1]
			x[i], x[i+1] = a+b, a-b
		}
		size = 2
	}
	for size < n {
		q := size
		size <<= 2
		stride := n / size
		for start := 0; start < n; start += size {
			for k := 0; k < q; k++ {
				a, c, b, d := x[start+k], x[start+q+k], x[start+2*q+k], x[start+3*q+k]
				if k > 0 {
					w1 := tw[k*stride]
					w2 := tw[2*k*stride]
					w3 := w1 * w2
					c, b, d = c*w2, b*w1, d*w3
				}
				apc, amc := a+c, a-c
				bpd, bmd := b+d, b-d
				x[start+k] = apc + bpd
				x[start+2*q+k] = apc - bpd
				t := complex(imag(bmd), -real(bmd)) // −i·bmd
				if inverse {
					t = complex(-imag(bmd), real(bmd)) // +i·bmd
				}
				x[start+q+k] = amc + t
				x[start+3*q+k] = amc - t
			}
		}
	}
}

// dopplerLikeInput returns a length-n spectrum that is nonzero only on a
// Doppler-style band, bins 1..km and n−km..n−1, and +0 elsewhere.
func dopplerLikeInput(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	km := max(1, n/20)
	for k := 1; k < n; k++ {
		if k <= km || k >= n-km {
			x[k] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	if n == 1 {
		x[0] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func assertSameBits(t *testing.T, what string, got, want []complex128) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
			t.Fatalf("%s: entry %d is %v, want %v", what, i, g, w)
		}
	}
}

// signedZeroInput returns a length-n input of zeros with random signs: only
// +0 groups may be skipped, so any group holding a −0 must still run its
// butterfly, whose output signs the reference pins.
func signedZeroInput(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		re, im := 0.0, 0.0
		if rng.Intn(2) == 0 {
			re = math.Copysign(0, -1)
		}
		if rng.Intn(3) == 0 {
			im = math.Copysign(0, -1)
		}
		x[i] = complex(re, im)
	}
	return x
}

// TestPlanMatchesReferenceBits pins the power-of-two transforms, both
// directions, to the reference butterflies bit for bit on dense, sparse and
// signed-zero inputs for every power of two up to 2^16 (odd log2 covers the
// lone radix-2 stage).
func TestPlanMatchesReferenceBits(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	for logN := 0; logN <= 16; logN++ {
		n := 1 << logN
		p := NewPlan(n)
		inputs := [][]complex128{randomComplexSlice(rng, n), dopplerLikeInput(rng, n), signedZeroInput(rng, n)}
		for _, x := range inputs {
			for _, inverse := range []bool{false, true} {
				want := append([]complex128(nil), x...)
				radix4Ref(want, inverse)
				got := append([]complex128(nil), x...)
				if inverse {
					p.Inverse(got)
				} else {
					p.Forward(got)
				}
				assertSameBits(t, fmt.Sprintf("n=%d", n), got, want)
			}
		}
	}
}

// TestInverseBitReversedMatchesInverseScaled checks the real-time IDFT
// entry point: writing X[k]/n into slot BitReverse(k) and running
// InverseBitReversed must give InverseScaled(X) bit for bit, for every power
// of two from 1 to 2^16, on Doppler-band sparse and on dense spectra.
func TestInverseBitReversedMatchesInverseScaled(t *testing.T) {
	rng := rand.New(rand.NewSource(127))
	for logN := 0; logN <= 16; logN++ {
		n := 1 << logN
		p := NewPlan(n)
		scale := 1 / float64(n)
		for _, x := range [][]complex128{dopplerLikeInput(rng, n), randomComplexSlice(rng, n)} {
			want := append([]complex128(nil), x...)
			p.InverseScaled(want)
			got := make([]complex128, n)
			for k, v := range x {
				got[p.BitReverse(k)] = complex(real(v)*scale, imag(v)*scale)
			}
			p.InverseBitReversed(got)
			assertSameBits(t, fmt.Sprintf("n=%d", n), got, want)
		}
	}
}

func TestInverseBitReversedDoesNotAllocate(t *testing.T) {
	p := NewPlan(4096)
	x := dopplerLikeInput(rand.New(rand.NewSource(131)), 4096)
	if n := testing.AllocsPerRun(20, func() {
		p.InverseBitReversed(x)
	}); n != 0 {
		t.Errorf("InverseBitReversed allocates %v per run", n)
	}
}

func TestInverseBitReversedRejectsBluestein(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("InverseBitReversed on a Bluestein plan did not panic")
		}
	}()
	NewPlan(12).InverseBitReversed(make([]complex128, 12))
}
