package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
)

// Plan precomputes everything a transform of one fixed length needs — the
// bit-reversal permutation and the per-stage twiddle tables for power-of-two
// lengths, plus the chirp sequence and its transformed convolution kernel for
// Bluestein lengths — so repeated transforms never call cmplx.Exp and, for
// power-of-two lengths, never allocate. This is the engine behind the
// zero-allocation real-time generation path, where the same IDFT length is
// transformed once per envelope per block.
//
// A power-of-two transform is an iterative radix-4 Cooley–Tukey pass (plus
// one radix-2 stage for odd log2 n). Each radix-4 stage reads its twiddles
// (w1, w2, w3) from one contiguous table built at construction, walks its
// four butterfly operands through subslices with no bounds checks, and the
// first stage skips every group whose inputs are all +0 (its outputs are +0
// either way), which sparse inputs such as a Doppler spectrum hit often.
// InverseBitReversed exposes the butterflies alone for callers that can
// write their input straight into bit-reversed order.
//
// A Plan is safe for concurrent use when the length is a power of two (all
// cached state is read-only). For other lengths the Bluestein convolution
// uses plan-owned scratch, so each goroutine needs its own Plan.
type Plan struct {
	n    int
	pow2 bool

	// Power-of-two state: perm is the bit-reversal permutation, fwd and inv
	// the forward and inverse twiddles of each radix-4 stage (a separate
	// inverse table keeps the butterfly loop free of per-element
	// conjugation).
	perm []int32
	fwd  [][]twiddle3
	inv  [][]twiddle3

	// Bluestein state (non-power-of-two lengths): sub is the radix-2 plan of
	// the convolution length m, chirp the forward chirp exp(-iπl²/n), and
	// bFwd/bInv the pre-transformed convolution kernels for each direction.
	sub   *Plan
	m     int
	chirp []complex128
	bFwd  []complex128
	bInv  []complex128
	scr   []complex128
}

// twiddle3 holds the three twiddles of butterfly k of a radix-4 stage with
// quarter length q and stride s = n/(4q): w1 = ω^(k·s), w2 = ω^(2k·s) and
// w3 = w1·w2 (the product, not ω^(3k·s), so results match a transform that
// forms it per butterfly).
type twiddle3 struct{ w1, w2, w3 complex128 }

// pow2Plans caches power-of-two plans by length. Those plans are read-only
// after construction, so one shared instance serves every generator of the
// same length instead of each recomputing an identical twiddle table and
// bit-reversal permutation. Bluestein plans own convolution scratch and are
// never cached.
var pow2Plans sync.Map // int -> *Plan

// NewPlan builds a transform plan for length n >= 1. Power-of-two lengths
// return a shared cached plan (safe: such plans are immutable after
// construction); other lengths get a private plan because the Bluestein
// convolution uses plan-owned scratch.
func NewPlan(n int) *Plan {
	if n < 1 {
		panic("dsp: NewPlan length must be positive")
	}
	if n&(n-1) == 0 {
		if cached, ok := pow2Plans.Load(n); ok {
			return cached.(*Plan)
		}
		p := &Plan{n: n, pow2: true}
		p.initPow2()
		shared, _ := pow2Plans.LoadOrStore(n, p)
		return shared.(*Plan)
	}
	p := &Plan{n: n}
	p.initBluestein()
	return p
}

// Len returns the transform length.
func (p *Plan) Len() int { return p.n }

func (p *Plan) initPow2() {
	n := p.n
	if n == 1 {
		return
	}
	logN := bits.TrailingZeros(uint(n))
	p.perm = make([]int32, n)
	for i := 0; i < n; i++ {
		p.perm[i] = int32(bits.Reverse(uint(i)) >> (bits.UintSize - logN))
	}
	tw := make([]complex128, n/2)
	twInv := make([]complex128, n/2)
	for k := range tw {
		angle := -2 * math.Pi * float64(k) / float64(n)
		tw[k] = cmplx.Exp(complex(0, angle))
		twInv[k] = cmplx.Conj(tw[k])
	}
	// One backing array per direction; stage s gets q entries, entry 0 (the
	// unit twiddles of the k = 0 butterfly) unused.
	q := 1
	if logN&1 == 1 {
		q = 2
	}
	var total int
	for qq := q; 4*qq <= n; qq <<= 2 {
		total += qq
	}
	fwdAll := make([]twiddle3, total)
	invAll := make([]twiddle3, total)
	for ; 4*q <= n; q <<= 2 {
		stride := n / (4 * q)
		f, v := fwdAll[:q:q], invAll[:q:q]
		fwdAll, invAll = fwdAll[q:], invAll[q:]
		for k := 1; k < q; k++ {
			f[k] = twiddle3{w1: tw[k*stride], w2: tw[2*k*stride], w3: tw[k*stride] * tw[2*k*stride]}
			v[k] = twiddle3{w1: twInv[k*stride], w2: twInv[2*k*stride], w3: twInv[k*stride] * twInv[2*k*stride]}
		}
		p.fwd = append(p.fwd, f)
		p.inv = append(p.inv, v)
	}
}

func (p *Plan) initBluestein() {
	n := p.n
	p.chirp = make([]complex128, n)
	for l := 0; l < n; l++ {
		// l² is taken modulo 2n to keep the argument bounded for large l.
		sq := int64(l) * int64(l) % int64(2*n)
		angle := -math.Pi * float64(sq) / float64(n)
		p.chirp[l] = cmplx.Exp(complex(0, angle))
	}
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p.m = m
	p.sub = NewPlan(m)
	p.scr = make([]complex128, m)

	// Convolution kernels b[l] = conj(chirp[l]) (forward) and chirp[l]
	// (inverse), wrapped cyclically, pre-transformed once.
	p.bFwd = make([]complex128, m)
	p.bInv = make([]complex128, m)
	for l := 0; l < n; l++ {
		p.bFwd[l] = cmplx.Conj(p.chirp[l])
		p.bInv[l] = p.chirp[l]
	}
	for l := 1; l < n; l++ {
		p.bFwd[m-l] = cmplx.Conj(p.chirp[l])
		p.bInv[m-l] = p.chirp[l]
	}
	p.sub.Forward(p.bFwd)
	p.sub.Forward(p.bInv)
}

// Forward computes the in-place DFT of x, which must have length Len().
func (p *Plan) Forward(x []complex128) { p.transform(x, false) }

// Inverse computes the in-place unnormalized inverse DFT of x (the +i
// exponent without the 1/M factor).
func (p *Plan) Inverse(x []complex128) { p.transform(x, true) }

// InverseScaled computes the in-place inverse DFT with the 1/M normalization
// used by the Young–Beaulieu IDFT generator (the same convention as IFFT).
//
// fadinglint:allocfree
func (p *Plan) InverseScaled(x []complex128) {
	p.transform(x, true)
	inv := complex(1/float64(p.n), 0)
	for i := range x {
		x[i] *= inv
	}
}

// BitReverse returns the position of input k in bit-reversed order: the
// slot InverseBitReversed reads X[k] from. Power-of-two plans only.
func (p *Plan) BitReverse(k int) int {
	if !p.pow2 {
		panic("dsp: BitReverse on a non-power-of-two plan")
	}
	if p.n == 1 {
		return 0
	}
	return int(p.perm[k])
}

// InverseBitReversed computes the in-place unnormalized inverse DFT of an
// input already permuted into bit-reversed order (X[k] at x[BitReverse(k)]),
// leaving the result in natural order. It skips both the permutation pass
// and the 1/M pass of InverseScaled: a caller that scales its input by the
// power of two 1/M while writing it gets InverseScaled's result bit for bit,
// because scaling by a power of two is exact and commutes with every
// butterfly. (Two caveats: nothing may underflow into the subnormal range,
// and an output that is exactly zero can differ in its sign, which
// InverseScaled's complex multiply by 1/M+0i may flip.) Power-of-two plans
// only.
//
// fadinglint:allocfree
func (p *Plan) InverseBitReversed(x []complex128) {
	if !p.pow2 {
		panic("dsp: InverseBitReversed on a non-power-of-two plan")
	}
	if len(x) != p.n {
		panic("dsp: plan length mismatch")
	}
	p.butterflies(x, true)
}

func (p *Plan) transform(x []complex128, inverse bool) {
	if len(x) != p.n {
		panic("dsp: plan length mismatch")
	}
	if p.n == 1 {
		return
	}
	if p.pow2 {
		for i, j := range p.perm {
			if int(j) > i {
				x[i], x[j] = x[j], x[i]
			}
		}
		p.butterflies(x, inverse)
		return
	}
	p.bluestein(x, inverse)
}

// butterflies is an iterative mixed radix-4/radix-2 Cooley–Tukey transform
// on bit-reversal-permuted data with table-driven twiddles. Radix-4 halves
// the number of passes over the array relative to radix-2, which dominates
// once the transform exceeds L1 (a 4096-point block is 64 KiB). With plain
// bit-reversal (rather than base-4 digit reversal) the two middle sub-blocks
// of every group arrive swapped, so the butterfly reads its y1 operand at
// offset 2q and y2 at offset q. An odd power of two takes one trivial
// radix-2 stage first.
//
// The forward and inverse butterflies differ only in the sign of the ±i
// rotation of b−d, so both compute t = i·(b−d) and the forward one swaps the
// slots its amc+t and amc−t land in: amc+(−t) and amc−t are the same IEEE
// operation.
func (p *Plan) butterflies(x []complex128, inverse bool) {
	n := p.n
	if n == 1 {
		return
	}
	stages := p.fwd
	if inverse {
		stages = p.inv
	}
	size := 1
	if bits.TrailingZeros(uint(n))&1 == 1 {
		// Lone radix-2 stage: adjacent pairs, unit twiddle.
		for y := x; len(y) >= 2; y = y[2:] {
			a, b := y[0], y[1]
			y[0], y[1] = a+b, a-b
		}
		size = 2
	}
	for s, tw := range stages {
		radix4Stage(x, tw, size, inverse, s == 0)
		size <<= 2
	}
}

// radix4Stage runs one radix-4 stage over groups of 4q elements, where q is
// the group size of the previous stage and tw the stage's twiddles. With
// skipZero set, groups whose inputs are all +0 are left in place.
func radix4Stage(x []complex128, tw []twiddle3, q int, inverse, skipZero bool) {
	size := 4 * q
	tw = tw[:q]
	for start := 0; start+size <= len(x); start += size {
		g := x[start : start+size]
		if skipZero && allPositiveZero(g) {
			continue
		}
		xa := g[:q]
		xc := g[q:][:q]
		xb := g[2*q:][:q]
		xd := g[3*q:][:q]
		// Slots of amc+t and amc−t.
		plus, minus := xc, xd
		if !inverse {
			plus, minus = xd, xc
		}
		plus, minus = plus[:q], minus[:q]
		// k = 0: all twiddles are 1.
		a, c, b, d := xa[0], xc[0], xb[0], xd[0]
		apc, amc := a+c, a-c
		bpd, bmd := b+d, b-d
		t := complex(-imag(bmd), real(bmd)) // i·bmd
		xa[0], xb[0] = apc+bpd, apc-bpd
		plus[0], minus[0] = amc+t, amc-t
		for k := 1; k < q; k++ {
			w := &tw[k]
			a := xa[k]
			c := xc[k] * w.w2
			b := xb[k] * w.w1
			d := xd[k] * w.w3
			apc, amc := a+c, a-c
			bpd, bmd := b+d, b-d
			t := complex(-imag(bmd), real(bmd))
			xa[k], xb[k] = apc+bpd, apc-bpd
			plus[k], minus[k] = amc+t, amc-t
		}
	}
}

// allPositiveZero reports whether every component of g is +0. A radix-4
// butterfly maps such a group to +0 outputs, so leaving it in place is
// exact; a −0 anywhere keeps the group (it could change an output's sign).
func allPositiveZero(g []complex128) bool {
	var or uint64
	for _, v := range g {
		or |= math.Float64bits(real(v)) | math.Float64bits(imag(v))
	}
	return or == 0
}

// bluestein evaluates the arbitrary-length DFT as a cyclic convolution with
// the pre-transformed kernel, reusing the plan scratch buffer.
func (p *Plan) bluestein(x []complex128, inverse bool) {
	n, m := p.n, p.m
	a := p.scr
	kernel := p.bFwd
	if inverse {
		kernel = p.bInv
	}
	for l := 0; l < n; l++ {
		c := p.chirp[l]
		if inverse {
			c = cmplx.Conj(c)
		}
		a[l] = x[l] * c
	}
	for l := n; l < m; l++ {
		a[l] = 0
	}
	p.sub.Forward(a)
	for i := range a {
		a[i] *= kernel[i]
	}
	p.sub.Inverse(a)
	scale := complex(1/float64(m), 0)
	for l := 0; l < n; l++ {
		c := p.chirp[l]
		if inverse {
			c = cmplx.Conj(c)
		}
		x[l] = a[l] * scale * c
	}
}
