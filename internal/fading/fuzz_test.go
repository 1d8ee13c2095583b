package fading

import (
	"math"
	"testing"

	"repro/internal/chanspec"
)

// fuzzModels are the four sample-level models: Rayleigh (no transform) and
// the three transforms.
var fuzzModels = []string{chanspec.FadingRayleigh, chanspec.FadingRician, chanspec.FadingNakagamiM, chanspec.FadingSuzuki}

// FuzzTransform drives every sample-level model over (model, params, z): the
// parameter is the model's own (K, m or σ_dB) and New must refuse it exactly
// when chanspec does; the sample is one colored Gaussian value of power Ω.
// The domain is every input a colored Gaussian row can present: Ω ∈
// [1e-50, 1e50] and |Re z|, |Im z| ≤ 1e100, so |z|²/Ω stays finite, with
// σ_dB ≤ 100 and K ≤ 1e12. Every model must return a finite, non-negative
// envelope that matches its finite output sample. Nakagami-m and Suzuki must
// also be monotone in |z| at a fixed (envelope, offset): scaling z by
// s ≥ 1 may not shrink the output envelope by more than 1e-12 relative, the
// round-off of the quantile's final Halley step and of the envelope's own
// square root. (Rician is not monotone in |z|: the LOS shift can cancel it.)
func FuzzTransform(f *testing.F) {
	f.Add(uint8(2), 2.5, uint16(0), 1.0, 0.3, -0.8, 1.5, uint8(0), uint64(0))
	f.Add(uint8(2), 0.5, uint16(0), 1e-3, 1e-20, 3e-21, 1.0, uint8(1), uint64(7))
	f.Add(uint8(2), 1000.0, uint16(0), 1e40, 1e40, 1e45, 1e10, uint8(0), uint64(0))
	f.Add(uint8(2), 0.7, uint16(0), 2.0, 30.0, 20.0, 1.0000001, uint8(0), uint64(0))
	f.Add(uint8(3), 6.0, uint16(64), 1.0, 0.5, 0.5, 2.0, uint8(1), uint64(1<<40))
	f.Add(uint8(3), 100.0, uint16(1), 1e-50, 1e100, -1e100, 1.0, uint8(0), uint64(12345))
	f.Add(uint8(1), 4.0, uint16(0), 1.0, -0.7, 0.1, 3.0, uint8(0), uint64(0))
	f.Add(uint8(0), 0.0, uint16(0), 1.0, 0.1, 0.2, 1.0, uint8(0), uint64(0))
	f.Fuzz(func(t *testing.T, model uint8, param float64, coherence uint16, omega, re, im, scale float64, env uint8, offset uint64) {
		name := fuzzModels[int(model)%len(fuzzModels)]
		if !(omega >= 1e-50 && omega <= 1e50) || !(math.Abs(re) <= 1e100 && math.Abs(im) <= 1e100) ||
			!(scale >= 1 && scale <= 1e10) {
			t.Skip("outside the sample domain")
		}
		params := &chanspec.FadingParams{ShadowCoherence: int(coherence)}
		switch name {
		case chanspec.FadingRician:
			if !(param <= 1e12) {
				t.Skip("K beyond the domain")
			}
			params.KFactor = param
		case chanspec.FadingNakagamiM:
			params.M = param
		case chanspec.FadingSuzuki:
			if !(param <= 100) {
				t.Skip("σ_dB beyond the domain")
			}
			params.ShadowSigmaDB = param
		}
		powers := []float64{omega, 1}
		tr, err := New(name, params, powers, 42)
		if wantErr := chanspec.ValidateFading(name, params) != nil; (err != nil) != wantErr {
			t.Fatalf("%s %+v: New err = %v, ValidateFading rejects = %v", name, *params, err, wantErr)
		}
		if err != nil {
			return
		}
		apply := func(v complex128) (complex128, float64) {
			z, r := []complex128{v}, []float64{math.Hypot(real(v), imag(v))}
			if tr != nil {
				tr.Apply(int(env)%len(powers), offset, z, r)
			}
			return z[0], r[0]
		}
		z0 := complex(re, im)
		z1, r1 := apply(z0)
		if math.IsNaN(r1) || math.IsInf(r1, 0) || r1 < 0 || math.IsNaN(real(z1)) || math.IsNaN(imag(z1)) ||
			math.IsInf(real(z1), 0) || math.IsInf(imag(z1), 0) {
			t.Fatalf("%s %+v Ω=%g: z=%v -> z'=%v, r'=%g: not finite and non-negative", name, *params, omega, z0, z1, r1)
		}
		if want := math.Hypot(real(z1), imag(z1)); math.Abs(r1-want) > 1e-12*want {
			t.Fatalf("%s %+v Ω=%g: envelope %.17g disagrees with |z'| = %.17g", name, *params, omega, r1, want)
		}
		if name != chanspec.FadingNakagamiM && name != chanspec.FadingSuzuki {
			return
		}
		zs := complex(re*scale, im*scale)
		if math.IsInf(real(zs), 0) || math.IsInf(imag(zs), 0) || math.Abs(real(zs)) > 1e100 || math.Abs(imag(zs)) > 1e100 {
			t.Skip("scaled sample leaves the domain")
		}
		if _, r2 := apply(zs); r2 < r1*(1-1e-12) {
			t.Fatalf("%s %+v Ω=%g: |z| × %g lowered the envelope from %.17g to %.17g", name, *params, omega, scale, r1, r2)
		}
	})
}
