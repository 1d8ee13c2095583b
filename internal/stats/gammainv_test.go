package stats

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/randx"
)

// testShapes spans the Nakagami range chanspec admits, 0.5 ≤ m ≤ 1000.
var testShapes = []float64{0.5, 0.7, 1, 1.5, 2.5, 8, 20, 1000}

// logSpaced returns n points spaced evenly in log10 over [lo, hi].
func logSpaced(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	l0, l1 := math.Log10(lo), math.Log10(hi)
	for i := range out {
		out[i] = math.Pow(10, l0+(l1-l0)*float64(i)/float64(n-1))
	}
	return out
}

func relErr(got, want float64) float64 { return math.Abs(got-want) / math.Abs(want) }

// TestGammaExpQuantileIdentityAtM1 checks the exact case: Q(1, x) = e^{−x},
// so the map is the identity, in both halves and outside the table window.
func TestGammaExpQuantileIdentityAtM1(t *testing.T) {
	q := NewGammaExpQuantile(1)
	for _, y := range logSpaced(1e-300, 700, 6001) {
		if got := q.At(y); relErr(got, y) > 1e-12 {
			t.Fatalf("m=1: At(%g) = %g, rel err %.3g", y, got, relErr(got, y))
		}
	}
}

// halfNormalQuantile returns w with erfc(w) = e^{−y}, so w² is the Gamma(1/2)
// quantile. The stdlib Erfinv/Erfcinv start it; they lose digits once e^{−y}
// nears 0 or 1, so Newton steps on erf(w) = 1 − e^{−y} (lower half) or on
// ln erfc(w) = −y (upper half), both accurate in double, polish it.
func halfNormalQuantile(y float64) float64 {
	dens := func(w float64) float64 { return 2 / math.SqrtPi * math.Exp(-w*w) }
	if y < math.Ln2 {
		u := -math.Expm1(-y)
		w := math.Erfinv(u)
		for range 4 {
			w -= (math.Erf(w) - u) / dens(w)
		}
		return w
	}
	w := math.Erfcinv(math.Exp(-y))
	if math.IsInf(w, 1) || y > 30 {
		w = math.Sqrt(y - 0.5*math.Log(math.Pi*y)) // erfc(w) ≈ e^{−w²}/(w·√π)
	}
	for range 8 {
		w += (math.Log(math.Erfc(w)) + y) * math.Erfc(w) / dens(w)
	}
	return w
}

// TestGammaExpQuantileHalfNormal checks m = 1/2 against its closed form
// x = erfc⁻¹(e^{−y})².
func TestGammaExpQuantileHalfNormal(t *testing.T) {
	q := NewGammaExpQuantile(0.5)
	for _, y := range logSpaced(1e-15, 700, 4001) {
		w := halfNormalQuantile(y)
		if got, want := q.At(y), w*w; relErr(got, want) > 1e-12 {
			t.Fatalf("m=0.5: At(%g) = %.17g, closed form %.17g, rel err %.3g", y, got, want, relErr(got, want))
		}
	}
}

// TestGammaExpQuantileResidual checks the defining equation directly over
// the shape grid and p2 ∈ [1e-300, 700], table window and fallback alike:
// P(a, x) = 1 − e^{−y} to 1e-12 relative in the lower half (y < ln 2),
// ln Q(a, x) = −y to 1e-12 relative in the upper half. Roots below the
// smallest normal float64 (m < 1 at tiny y: x ≈ y^{1/m}) are skipped; there
// x underflows.
func TestGammaExpQuantileResidual(t *testing.T) {
	for _, a := range testShapes {
		q := NewGammaExpQuantile(a)
		for _, y := range logSpaced(1e-300, 700, 3001) {
			x := q.At(y)
			if x < 0x1p-1022 {
				if a >= 1 {
					t.Fatalf("a=%g y=%g: root %g underflowed", a, y, x)
				}
				continue
			}
			if y >= math.Ln2 {
				if _, f := q.shape.halley(x, y); math.Abs(f) > 1e-12*y {
					t.Fatalf("a=%g y=%g: −ln Q(a, %.17g) off by %.3g relative", a, y, x, f/y)
				}
				continue
			}
			var p float64
			if e := math.Exp(q.shape.logPrefactor(x)); x < a+1 {
				p = gammaSeries(a, x) * e
			} else {
				p = 1 - gammaCF(a, x)*e
			}
			if u := -math.Expm1(-y); relErr(p, u) > 1e-12 {
				t.Fatalf("a=%g y=%g: P(a, %.17g) = %.17g, want %.17g", a, y, x, p, u)
			}
		}
	}
}

// TestGammaExpQuantileMatchesReference compares against the old 12-step
// Halley loop where that loop is accurate: p2 ∈ [1e-12, 10], where 1 − p
// still carries its digits.
func TestGammaExpQuantileMatchesReference(t *testing.T) {
	for _, a := range testShapes {
		q := NewGammaExpQuantile(a)
		for _, y := range logSpaced(1e-12, 10, 2001) {
			got, want := q.At(y), referenceInverseGammaP(a, -math.Expm1(-y))
			if relErr(got, want) > 1e-9 {
				t.Fatalf("a=%g y=%g: At = %.17g, reference %.17g", a, y, got, want)
			}
		}
	}
}

// TestGammaExpQuantileTableMatchesSolve pins the one-step table path to the
// converged iterative solve across the table window. Both sit at the
// residual's round-off, which reaches ~1e-14 relative for m < 1 at tiny y.
func TestGammaExpQuantileTableMatchesSolve(t *testing.T) {
	for _, a := range testShapes {
		q := NewGammaExpQuantile(a)
		for _, y := range logSpaced(q.yLo, q.yHi, 20001) {
			got, want := q.At(y), q.shape.quantileExp(y)
			if relErr(got, want) > 2e-14 {
				t.Fatalf("a=%g y=%g: table %.17g, solve %.17g, rel err %.3g", a, y, got, want, relErr(got, want))
			}
		}
	}
}

// TestGammaExpQuantileMonotone checks the map is non-decreasing across a
// dense grid spanning the table window, both its edges and the switch
// between the series and the continued fraction at x = a+1.
func TestGammaExpQuantileMonotone(t *testing.T) {
	for _, a := range testShapes {
		q := NewGammaExpQuantile(a)
		prev := 0.0
		for _, y := range logSpaced(1e-10, 1e3, 50001) {
			x := q.At(y)
			if x < prev {
				t.Fatalf("a=%g: At(%g) = %.17g below the previous %.17g", a, y, x, prev)
			}
			prev = x
		}
	}
}

func TestGammaExpQuantileEdges(t *testing.T) {
	q := NewGammaExpQuantile(2.5)
	if got := q.At(0); got != 0 {
		t.Errorf("At(0) = %g, want 0", got)
	}
	if got := q.At(-1); got != 0 {
		t.Errorf("At(-1) = %g, want 0", got)
	}
	if got := q.At(math.Inf(1)); !math.IsInf(got, 1) {
		t.Errorf("At(+Inf) = %g, want +Inf", got)
	}
	if got := q.At(math.NaN()); !math.IsNaN(got) {
		t.Errorf("At(NaN) = %g, want NaN", got)
	}
	if got := q.At(1e12); relErr(got, 1e12) > 1e-10 {
		t.Errorf("At(1e12) = %g, want ≈ 1e12 (x ≈ y + (a−1)·ln y far in the tail)", got)
	}
}

func TestInverseRegularizedGammaPMatchesQuantileExp(t *testing.T) {
	for _, a := range testShapes {
		q := NewGammaExpQuantile(a)
		for _, p := range []float64{1e-200, 1e-10, 0.01, 0.3, 0.5, 0.9, 1 - 1e-9} {
			y := -math.Log1p(-p)
			if got, want := InverseRegularizedGammaP(a, p), q.At(y); relErr(got, want) > 1e-13 {
				t.Errorf("a=%g p=%g: InverseRegularizedGammaP = %.17g, At(−ln(1−p)) = %.17g", a, p, got, want)
			}
		}
	}
}

func TestGammaExpQuantileAllocFree(t *testing.T) {
	q := NewGammaExpQuantile(2.5)
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink += q.At(0.3) + q.At(3) + q.At(1e-12) }); n != 0 {
		t.Fatalf("At allocates %g times per call", n)
	}
	_ = sink
}

var benchSink float64

// BenchmarkGammaExpQuantile reports the per-sample cost on Exp(1) inputs,
// the distribution the Nakagami transform feeds it, and the build cost.
func BenchmarkGammaExpQuantile(b *testing.B) {
	ys := make([]float64, 4096)
	rng := randx.New(1)
	for i := range ys {
		ys[i] = -math.Log(1 - rng.Float64())
	}
	for _, a := range []float64{0.7, 2.5, 8} {
		q := NewGammaExpQuantile(a)
		b.Run("At/m="+formatShape(a), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += q.At(ys[i%len(ys)])
			}
		})
		b.Run("Reference/m="+formatShape(a), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += referenceInverseGammaP(a, -math.Expm1(-ys[i%len(ys)]))
			}
		})
		b.Run("New/m="+formatShape(a), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink += NewGammaExpQuantile(a).yHi
			}
		})
	}
}

func formatShape(a float64) string { return strconv.FormatFloat(a, 'g', -1, 64) }
