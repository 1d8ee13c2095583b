package stats

import "math"

// The inverse of the regularized incomplete gamma function in the
// complement-aware form of DiDonato & Morris ("Computation of the incomplete
// gamma function ratios and their inverse", ACM TOMS 12(4), 1986). Every
// solve is posed as −ln Q(a, x) = y for an Exp(1)-scale target y: an upper
// tail probability Q = e^{−y} keeps its relative precision however small it
// is, where P = 1 − Q would round to 1. ln Q comes from the continued
// fraction for x ≥ a+1 and from log1p(−P), P by its series, below a+1,
// where Q is not small; log1p also keeps the lower tail (y → 0, P ≈ y) at
// full relative precision.

// gammaShape holds the per-shape constants every evaluation needs.
type gammaShape struct {
	a, am1 float64 // a, a − 1
	lga    float64 // lnΓ(a)
	c      float64 // ½·ln(a/2π) − δ(a), δ Stirling's remainder for lnΓ(a)
}

func newGammaShape(a float64) gammaShape {
	lga, _ := math.Lgamma(a)
	var delta float64
	if a >= 15 {
		// Stirling's series; the first omitted term is below 2.2e-16 here.
		a2 := a * a
		delta = (1.0/12 - (1.0/360-(1.0/1260-(1.0/1680-1/(1188*a2))/a2)/a2)/a2) / a
	} else {
		delta = lga - (float64((a-0.5)*math.Log(a)) - a + 0.5*math.Log(2*math.Pi))
	}
	return gammaShape{a: a, am1: a - 1, lga: lga, c: 0.5*math.Log(a/(2*math.Pi)) - delta}
}

// logPrefactor returns ln(x^a·e^{−x}/Γ(a)) in Temme's form
// −a·(λ − 1 − ln λ) + ½·ln(a/2π) − δ(a), λ = x/a. It cancels the large terms
// a·ln x and lnΓ(a) analytically, so its absolute error stays near
// ε·|result| instead of ε·a·ln a (1e-12 at a = 1000 in the direct form).
func (s *gammaShape) logPrefactor(x float64) float64 {
	var phi float64
	if d := (x - s.a) / s.a; math.Abs(d) < 0.5 {
		phi = d - math.Log1p(d) // x − a is exact here (Sterbenz)
	} else {
		lam := x / s.a
		phi = lam - 1 - math.Log(lam)
	}
	return s.c - float64(s.a*phi)
}

// halley returns the Halley correction δ (the next iterate is x − δ) and the
// residual f = −ln Q(a, x) − y at x > 0; f increases with x. Every product
// feeding a sum is rounded on its own, so the result does not depend on
// whether the compiler fuses multiply-adds.
func (s *gammaShape) halley(x, y float64) (delta, f float64) {
	lpre := s.logPrefactor(x)
	var lnQ, hazard float64 // hazard = f' = density/Q
	if x >= s.a+1 {
		c := gammaCF(s.a, x)
		lnQ = lpre + math.Log(c)
		hazard = 1 / (x * c)
	} else {
		e := math.Exp(lpre)
		p := gammaSeries(s.a, x) * e
		lnQ = math.Log1p(-p)
		hazard = e / (x * (1 - p))
	}
	f = -lnQ - y
	delta = f / hazard
	k := s.am1/x - 1 + hazard // f''/f'
	// The Numerical Recipes clamp keeps the Halley denominator ≥ 1/2.
	return delta / (1 - float64(0.5*math.Min(1, delta*k))), f
}

// start is a starting guess for solve (Numerical Recipes 6.2.1: Wilson–
// Hilferty for a > 1, a power/exponential split for a ≤ 1), written in logs
// so targets far in either tail do not underflow. In the lower half it is
// raised to x_lo = (P·Γ(a+1))^{1/a}, a proven lower bound on the root since
// P(a, x) ≤ x^a/Γ(a+1). It returns 0 when x_lo underflows.
func (s *gammaShape) start(y float64) float64 {
	a := s.a
	lnp, lnq := math.Log(-math.Expm1(-y)), -y // ln P and ln Q at the root
	lower := y < math.Ln2
	var x float64
	if a > 1 {
		t := math.Sqrt(-2 * math.Min(lnp, lnq))
		z := t - (2.30753+float64(t*0.27061))/(1+float64(t*(0.99229+float64(t*0.04481))))
		if lower {
			z = -z
		}
		base := 1 - 1/(9*a) + z/(3*math.Sqrt(a))
		x = a * base * base * base
	} else {
		t := 1 - float64(a*(0.253+float64(a*0.12)))
		if lnp < math.Log(t) {
			x = math.Exp((lnp - math.Log(t)) / a)
		} else {
			x = 1 - lnq + math.Log(1-t)
		}
	}
	if lower {
		xlo := math.Exp((lnp + s.lga + math.Log(a)) / a)
		if xlo == 0 {
			// The root is at most e^{1/a}·x_lo (from P(a, x) ≥
			// x^a·e^{−x}/Γ(a+1) at x ≤ 1): a few subnormal steps at most.
			return 0
		}
		x = math.Max(x, xlo)
	}
	if !(x > 0) || math.IsInf(x, 0) {
		x = a
	}
	return x
}

// solve returns x with −ln Q(a, x) = y by safeguarded Halley iteration from
// x0: a bracket [lo, hi] around the root tightens with every residual, and a
// step that would leave it is replaced by a geometric bisection (or a
// doubling or halving while a side is still open). It stops once a step is
// below 1e-10 relative, which for a cubically convergent step leaves the
// iterate at round-off.
func (s *gammaShape) solve(x0, y float64) float64 {
	if x0 == 0 {
		return 0
	}
	lo, hi := 0.0, math.Inf(1)
	x := x0
	for range 300 {
		delta, f := s.halley(x, y)
		switch {
		case f == 0:
			return x
		case f > 0:
			hi = x
		default:
			lo = x
		}
		next := x - delta
		if !(next > lo && next < hi) {
			switch {
			case math.IsInf(hi, 1):
				next = 2 * x
			case lo == 0:
				next = 0.5 * x
			default:
				next = math.Sqrt(lo) * math.Sqrt(hi)
			}
		} else if math.Abs(delta) <= 1e-10*next {
			return next
		}
		if next == 0 || next == x || math.IsInf(next, 1) {
			return next
		}
		x = next
	}
	return x
}

// quantileExp returns x with Q(a, x) = e^{−y}, the Gamma(a, 1) variate whose
// upper-tail probability equals that of the Exp(1) variate y: 0 for y ≤ 0,
// +Inf for y = +Inf.
func (s *gammaShape) quantileExp(y float64) float64 {
	switch {
	case math.IsNaN(y):
		return math.NaN()
	case y <= 0:
		return 0
	case math.IsInf(y, 1):
		return y
	}
	return s.solve(s.start(y), y)
}

// InverseRegularizedGammaP solves P(a, x) = p for x, as −ln Q(a, x) =
// −ln(1 − p) by safeguarded Halley iteration from a Numerical Recipes
// starting guess. p = 0 returns 0; p = 1, whose quantile is infinite, returns
// the large finite stand-in max(100, a + 100·√a).
func InverseRegularizedGammaP(a, p float64) float64 {
	if a <= 0 || math.IsNaN(p) {
		return math.NaN()
	}
	if p >= 1 {
		return math.Max(100, a+100*math.Sqrt(a))
	}
	s := newGammaShape(a)
	return s.quantileExp(-math.Log1p(-p))
}

// The table of GammaExpQuantile spans s = ln y ∈ [expQuantileSLo,
// expQuantileSHi] in expQuantileSegments equal cubic-Hermite segments. The
// window covers y from 9.2e-9 to 665; outside it the iterative solve takes
// over. A Rayleigh power below 1e-8 of its mean has probability 1e-8, one
// above 665 times its mean e^{−665}.
const (
	expQuantileSLo      = -18.5
	expQuantileSHi      = 6.5
	expQuantileSegments = 512
	expQuantileStep     = (expQuantileSHi - expQuantileSLo) / expQuantileSegments
)

// GammaExpQuantile maps Exp(1) variates onto Gamma(a, 1) variates through
// the probability-integral transform: At(y) is the x with Q(a, x) = e^{−y}.
// It is the Nakagami-m envelope transform's inverse, built once per shape:
// a cubic Hermite table of x against ln y gives a starting value good to
// about 1e-7 relative, and one Halley step on ln Q lands at round-off. It is
// immutable after construction and safe for concurrent use; it is accurate
// to round-off for 0.5 ≤ a ≤ 1000, the Nakagami range chanspec admits.
type GammaExpQuantile struct {
	shape    gammaShape
	yLo, yHi float64      // table window in y
	seg      [][4]float64 // per segment, x(t) = c0 + t·(c1 + t·(c2 + t·c3)) for t ∈ [0, 1)
}

// NewGammaExpQuantile tabulates the quantile map for shape a > 0. Each knot
// is solved exactly, warm-started from its neighbour; the knot slopes are
// the closed form dx/ds = y·e^{−y}/density(x), s = ln y, where
// density(x) = x^{a−1}·e^{−x}/Γ(a).
func NewGammaExpQuantile(a float64) *GammaExpQuantile {
	q := &GammaExpQuantile{
		shape: newGammaShape(a),
		yLo:   math.Exp(expQuantileSLo),
		yHi:   math.Exp(expQuantileSHi),
		seg:   make([][4]float64, expQuantileSegments),
	}
	s := &q.shape
	const h = expQuantileStep
	var x, d float64 // previous knot value and slope·h
	for i := 0; i <= expQuantileSegments; i++ {
		y := math.Exp(expQuantileSLo + float64(float64(i)*h))
		var x0 float64
		if i == 0 {
			x0 = s.start(y)
		} else {
			x0 = x * math.Exp(d/x) // exact for the power laws at both ends
		}
		xi := s.solve(x0, y)
		di := h * y * xi * math.Exp(-y-s.logPrefactor(xi))
		if i > 0 {
			dx := xi - x
			q.seg[i-1] = [4]float64{x, d, float64(3*dx) - float64(2*d) - di, float64(-2*dx) + d + di}
		}
		x, d = xi, di
	}
	return q
}

// At returns the x with Q(a, x) = e^{−y}: 0 for y ≤ 0, +Inf for y = +Inf.
//
// fadinglint:allocfree
func (q *GammaExpQuantile) At(y float64) float64 {
	if !(y >= q.yLo && y < q.yHi) {
		return q.shape.quantileExp(y)
	}
	fs := (math.Log(y) - expQuantileSLo) * (1 / expQuantileStep)
	i := int(fs)
	if i >= len(q.seg) {
		i = len(q.seg) - 1
	}
	t := fs - float64(i)
	c := &q.seg[i]
	x := c[0] + float64(t*(c[1]+float64(t*(c[2]+float64(t*c[3])))))
	delta, _ := q.shape.halley(x, y)
	return x - delta
}
