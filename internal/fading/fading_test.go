package fading

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/chanspec"
	"repro/internal/randx"
	"repro/internal/stats"
)

// drawGaussians fills one envelope row of complex Gaussians with E|z|² = omega.
func drawGaussians(rng *randx.RNG, n int, omega float64) ([]complex128, []float64) {
	z := make([]complex128, n)
	rng.FillComplexNormal(z, omega)
	r := make([]float64, n)
	for i, v := range z {
		r[i] = math.Hypot(real(v), imag(v))
	}
	return z, r
}

func TestNewVocabulary(t *testing.T) {
	if tr, err := New("rayleigh", nil, []float64{1}, 1); err != nil || tr != nil {
		t.Fatalf("rayleigh: transform %v, err %v; want nil, nil", tr, err)
	}
	if tr, err := New("", nil, []float64{1}, 1); err != nil || tr != nil {
		t.Fatalf("default: transform %v, err %v; want nil, nil", tr, err)
	}
	segs := &chanspec.FadingParams{Segments: []chanspec.DopplerSegment{{Blocks: 2, NormalizedDoppler: 0.1}}}
	if tr, err := New(chanspec.FadingNonstationaryDoppler, segs, []float64{1}, 1); err != nil || tr != nil {
		t.Fatalf("nonstationary: transform %v, err %v; want nil, nil (panel-level model)", tr, err)
	}
	if _, err := New("warp", nil, []float64{1}, 1); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := New(chanspec.FadingRician, nil, []float64{1}, 1); err == nil {
		t.Fatal("rician without params accepted")
	}
}

func TestRicianMoments(t *testing.T) {
	const (
		n     = 200000
		k     = 4.0
		omega = 2.5
		phase = 0.7
	)
	tr, err := New(chanspec.FadingRician, &chanspec.FadingParams{KFactor: k, LOSPhaseRad: phase}, []float64{omega}, 3)
	if err != nil {
		t.Fatal(err)
	}
	z, r := drawGaussians(randx.New(11), n, omega)
	tr.Apply(0, 0, z, r)
	var mean complex128
	var power float64
	for i, v := range z {
		mean += v
		power += real(v)*real(v) + imag(v)*imag(v)
		if got := math.Hypot(real(v), imag(v)); math.Abs(got-r[i]) > 1e-12 {
			t.Fatalf("envelope %d inconsistent with sample: %g vs %g", i, r[i], got)
		}
	}
	mean /= complex(float64(n), 0)
	power /= float64(n)
	// Total mean power stays Ω.
	if math.Abs(power-omega) > 0.05*omega {
		t.Errorf("mean power %g, want %g", power, omega)
	}
	// Moment K estimate: |μ|²/(E|z|²−|μ|²).
	mu2 := real(mean)*real(mean) + imag(mean)*imag(mean)
	kHat := mu2 / (power - mu2)
	if math.Abs(kHat-k) > 0.15*k {
		t.Errorf("K estimate %g, want %g", kHat, k)
	}
	// LOS phase shows in the mean direction.
	if got := math.Atan2(imag(mean), real(mean)); math.Abs(got-phase) > 0.05 {
		t.Errorf("LOS phase %g, want %g", got, phase)
	}
}

func TestNakagamiEnvelopeDistribution(t *testing.T) {
	const (
		n     = 60000
		m     = 2.5
		omega = 1.7
	)
	tr, err := New(chanspec.FadingNakagamiM, &chanspec.FadingParams{M: m}, []float64{omega}, 3)
	if err != nil {
		t.Fatal(err)
	}
	z, r := drawGaussians(randx.New(5), n, omega)
	zorig := append([]complex128(nil), z...)
	tr.Apply(0, 0, z, r)
	d := stats.NakagamiDist{M: m, Omega: omega}
	_, p, err := stats.KolmogorovSmirnov(r, d.CDF)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.01 {
		t.Errorf("Nakagami KS p-value %g < 0.01", p)
	}
	// The transform preserves phase and is monotone in the envelope.
	for i := range z {
		if zorig[i] == 0 {
			continue
		}
		orig := math.Atan2(imag(zorig[i]), real(zorig[i]))
		now := math.Atan2(imag(z[i]), real(z[i]))
		if math.Abs(orig-now) > 1e-9 {
			t.Fatalf("sample %d phase changed: %g -> %g", i, orig, now)
		}
	}
	// m = 1 is the identity up to round-off.
	tr1, err := New(chanspec.FadingNakagamiM, &chanspec.FadingParams{M: 1}, []float64{omega}, 3)
	if err != nil {
		t.Fatal(err)
	}
	z1, r1 := drawGaussians(randx.New(5), 1000, omega)
	orig := append([]complex128(nil), z1...)
	tr1.Apply(0, 0, z1, r1)
	for i := range z1 {
		if math.Hypot(real(z1[i]-orig[i]), imag(z1[i]-orig[i])) > 1e-6*math.Hypot(real(orig[i]), imag(orig[i]))+1e-9 {
			t.Fatalf("m=1 sample %d moved: %v -> %v", i, orig[i], z1[i])
		}
	}
}

func TestSuzukiLogMomentsAndRandomAccess(t *testing.T) {
	const (
		nBlocks   = 400
		blockLen  = 512
		sigmaDB   = 4.3
		coherence = 128
		omega     = 1.0
	)
	tr, err := New(chanspec.FadingSuzuki,
		&chanspec.FadingParams{ShadowSigmaDB: sigmaDB, ShadowCoherence: coherence}, []float64{omega}, 77)
	if err != nil {
		t.Fatal(err)
	}
	rng := randx.New(9)
	logs := make([]float64, 0, nBlocks*blockLen)
	for b := 0; b < nBlocks; b++ {
		z, r := drawGaussians(rng, blockLen, omega)
		tr.Apply(0, uint64(b*blockLen), z, r)
		for _, v := range r {
			if v > 0 {
				logs = append(logs, 20*math.Log10(v))
			}
		}
	}
	mean, _ := stats.Mean(logs)
	variance, _ := stats.Variance(logs)
	// 20·log10(r) for a Suzuki envelope: Rayleigh log-mean (10/ln10)(lnΩ−γ)
	// shifted by the zero-mean shadowing, variance 31.0249 + σ_dB².
	const gamma = 0.5772156649015329
	wantMean := 10 / math.Ln10 * (math.Log(omega) - gamma)
	wantVar := math.Pow(10/math.Ln10, 2)*math.Pi*math.Pi/6 + sigmaDB*sigmaDB
	if math.Abs(mean-wantMean) > 0.4 {
		t.Errorf("log-envelope mean %g, want %g", mean, wantMean)
	}
	if math.Abs(variance-wantVar) > 0.1*wantVar {
		t.Errorf("log-envelope variance %g, want %g", variance, wantVar)
	}

	// Random access: applying the same row in two halves with matching
	// offsets is byte-identical to one call, and continuous across the seam.
	z, r := drawGaussians(randx.New(4), 2*coherence, omega)
	z2 := append([]complex128(nil), z...)
	r2 := append([]float64(nil), r...)
	tr.Apply(0, 1000, z, r)
	tr.Apply(0, 1000, z2[:coherence], r2[:coherence])
	tr.Apply(0, 1000+coherence, z2[coherence:], r2[coherence:])
	for i := range z {
		if z[i] != z2[i] || r[i] != r2[i] {
			t.Fatalf("split apply diverges at %d: %v/%v vs %v/%v", i, z[i], r[i], z2[i], r2[i])
		}
	}
	// Different envelopes shadow independently.
	za, ra := drawGaussians(randx.New(4), coherence, omega)
	zb := append([]complex128(nil), za...)
	rb := append([]float64(nil), ra...)
	tr.Apply(0, 0, za, ra)
	tr.Apply(1, 0, zb, rb)
	same := 0
	for i := range za {
		if za[i] == zb[i] {
			same++
		}
	}
	if same == len(za) {
		t.Fatal("envelopes 0 and 1 share identical shadowing")
	}
}

// TestSuzukiShadowContinuity checks the interpolated shadowing hits its knots
// exactly and moves smoothly in between (no jumps larger than the knot gap
// implies at the sample scale).
func TestSuzukiShadowContinuity(t *testing.T) {
	const coherence = 64
	tr := newSuzuki(6, coherence, 123)
	n := 4 * coherence
	z := make([]complex128, n)
	r := make([]float64, n)
	for i := range z {
		z[i] = 1 // unit samples: r becomes the shadowing gain itself
	}
	tr.Apply(0, 0, z, r)
	for i := 1; i < n; i++ {
		ratio := r[i] / r[i-1]
		if ratio < 0.5 || ratio > 2 {
			t.Fatalf("shadowing jump at %d: gain %g -> %g", i, r[i-1], r[i])
		}
	}
}

// logSpaced returns n points spaced evenly in log10 over [lo, hi].
func logSpaced(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	l0, l1 := math.Log10(lo), math.Log10(hi)
	for i := range out {
		out[i] = math.Pow(10, l0+(l1-l0)*float64(i)/float64(n-1))
	}
	return out
}

// nakagamiRow builds one envelope row whose normalized powers |z|²/Ω sweep
// p2s, at a phase that walks around the circle.
func nakagamiRow(p2s []float64, omega float64) []complex128 {
	z := make([]complex128, len(p2s))
	for i, p2 := range p2s {
		rho, phi := math.Sqrt(p2*omega), 0.37*float64(i)
		z[i] = complex(rho*math.Cos(phi), rho*math.Sin(phi))
	}
	return z
}

// TestNakagamiIdentityAtM1 pins the upper-tail fix: m = 1 is exactly
// Rayleigh, so the transform must return every sample unchanged to 1e-12
// relative across p2 ∈ [1e-300, 700] (the previous inverse drifted from
// p2 ≈ 30 and clamped to a constant from p2 ≈ 38).
func TestNakagamiIdentityAtM1(t *testing.T) {
	const omega = 1.7
	tr, err := New(chanspec.FadingNakagamiM, &chanspec.FadingParams{M: 1}, []float64{omega}, 3)
	if err != nil {
		t.Fatal(err)
	}
	z := nakagamiRow(logSpaced(1e-300, 700, 4001), omega)
	orig := append([]complex128(nil), z...)
	r := make([]float64, len(z))
	tr.Apply(0, 0, z, r)
	for i, v := range orig {
		want := math.Hypot(real(v), imag(v))
		if math.Abs(r[i]-want) > 1e-12*want || cmplx.Abs(z[i]-v) > 1e-12*want {
			t.Fatalf("m=1 sample %d (p2 = %g) moved: %v -> %v (envelope %g, want %g)",
				i, want*want/omega, v, z[i], r[i], want)
		}
	}
}

// TestNakagamiHalfShapeClosedForm checks m = 1/2, the one-sided Gaussian:
// the normalized envelope w = r'·sqrt(m/Ω) satisfies erfc(w) = e^{−p2}. It is
// checked as erf(w) = 1 − e^{−p2} below p2 = ln 2 and ln erfc(w) = −p2 above,
// each to 1e-12 relative, over p2 ∈ [1e-15, 700].
func TestNakagamiHalfShapeClosedForm(t *testing.T) {
	const omega, m = 0.8, 0.5
	tr, err := New(chanspec.FadingNakagamiM, &chanspec.FadingParams{M: m}, []float64{omega}, 3)
	if err != nil {
		t.Fatal(err)
	}
	z := nakagamiRow(logSpaced(1e-15, 700, 4001), omega)
	p2s := make([]float64, len(z))
	for i, v := range z {
		p2s[i] = (real(v)*real(v) + imag(v)*imag(v)) / omega
	}
	r := make([]float64, len(z))
	tr.Apply(0, 0, z, r)
	for i, p2 := range p2s {
		w := r[i] * math.Sqrt(m/omega)
		if p2 < math.Ln2 {
			if got, want := math.Erf(w), -math.Expm1(-p2); math.Abs(got-want) > 1e-12*want {
				t.Fatalf("p2 = %g: erf(w) = %.17g, want %.17g", p2, got, want)
			}
		} else if got := math.Log(math.Erfc(w)); math.Abs(got+p2) > 1e-12*p2 {
			t.Fatalf("p2 = %g: ln erfc(w) = %.17g, want %.17g", p2, got, -p2)
		}
	}
}

// TestMonotoneInEnvelope checks that at a fixed (envelope, offset) the
// Nakagami-m and Suzuki output envelopes never decrease as the input
// envelope grows, over a grid whose neighbours are 0.17% apart in p2. (At
// the last-ulp scale both maps are monotone only up to round-off; see
// FuzzTransform.)
func TestMonotoneInEnvelope(t *testing.T) {
	models := []struct {
		model  string
		params *chanspec.FadingParams
	}{
		{chanspec.FadingNakagamiM, &chanspec.FadingParams{M: 0.7}},
		{chanspec.FadingNakagamiM, &chanspec.FadingParams{M: 2.5}},
		{chanspec.FadingNakagamiM, &chanspec.FadingParams{M: 20}},
		{chanspec.FadingNakagamiM, &chanspec.FadingParams{M: 1000}},
		{chanspec.FadingSuzuki, &chanspec.FadingParams{ShadowSigmaDB: 8, ShadowCoherence: 16}},
	}
	p2s := logSpaced(1e-12, 800, 20001)
	for _, c := range models {
		tr, err := New(c.model, c.params, []float64{1.3, 0.4}, 11)
		if err != nil {
			t.Fatal(err)
		}
		for env := range 2 {
			z := nakagamiRow(p2s, 1.3)
			r := make([]float64, len(z))
			for i := range z {
				tr.Apply(env, 77, z[i:i+1], r[i:i+1])
			}
			for i := 1; i < len(r); i++ {
				if r[i] < r[i-1] {
					t.Fatalf("%s %+v env %d: envelope falls from %.17g to %.17g at p2 = %g",
						c.model, *c.params, env, r[i-1], r[i], p2s[i])
				}
			}
		}
	}
}

func TestApplyAllocFree(t *testing.T) {
	powers := []float64{1, 2}
	for _, c := range []struct {
		model  string
		params *chanspec.FadingParams
	}{
		{chanspec.FadingRician, &chanspec.FadingParams{KFactor: 4}},
		{chanspec.FadingNakagamiM, &chanspec.FadingParams{M: 2.5}},
		{chanspec.FadingSuzuki, &chanspec.FadingParams{ShadowSigmaDB: 6}},
	} {
		tr, err := New(c.model, c.params, powers, 5)
		if err != nil {
			t.Fatal(err)
		}
		z, r := drawGaussians(randx.New(2), 256, 2)
		if n := testing.AllocsPerRun(20, func() { tr.Apply(1, 4096, z, r) }); n != 0 {
			t.Errorf("%s: Apply allocates %g times per call", c.model, n)
		}
	}
}

// BenchmarkTransform reports each sample transform's cost per sample on a
// 1024-sample Rayleigh row (the row is restored from a pristine copy every
// iteration, 16 bytes a sample, so the fast transforms read slightly high),
// and the construction cost of the Nakagami-m transform, whose quantile
// table is built in New.
func BenchmarkTransform(b *testing.B) {
	const n = 1024
	models := []struct {
		model  string
		params *chanspec.FadingParams
	}{
		{chanspec.FadingRician, &chanspec.FadingParams{KFactor: 4}},
		{chanspec.FadingNakagamiM, &chanspec.FadingParams{M: 2.5}},
		{chanspec.FadingSuzuki, &chanspec.FadingParams{ShadowSigmaDB: 6, ShadowCoherence: 64}},
	}
	pristine, _ := drawGaussians(randx.New(1), n, 1)
	for _, c := range models {
		tr, err := New(c.model, c.params, []float64{1}, 5)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.model, func(b *testing.B) {
			z, r := make([]complex128, n), make([]float64, n)
			for i := 0; i < b.N; i++ {
				copy(z, pristine)
				tr.Apply(0, uint64(i)*n, z, r)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
		})
	}
	b.Run("New/"+chanspec.FadingNakagamiM, func(b *testing.B) {
		powers := make([]float64, 16)
		for j := range powers {
			powers[j] = 1
		}
		for i := 0; i < b.N; i++ {
			if _, err := New(chanspec.FadingNakagamiM, &chanspec.FadingParams{M: 2.5}, powers, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}
