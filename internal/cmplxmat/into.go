package cmplxmat

import "fmt"

// This file holds the destination-passing kernels of the zero-allocation
// generation engine. They mirror Mul/MulVec but write into caller-supplied
// storage so steady-state hot loops never touch the heap.

// RowView returns row i as a slice sharing the matrix backing array. Writes
// through the returned slice are visible in the matrix; the slice stays valid
// for the lifetime of the matrix.
func (m *Matrix) RowView(i int) []complex128 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("cmplxmat: row %d out of range", i))
	}
	return m.data[i*m.cols : (i+1)*m.cols : (i+1)*m.cols]
}

// Data returns the row-major backing array of the matrix (shared, not a
// copy). It exists for hot scatter/gather loops that index the storage with
// an explicit stride; everything else should go through At/Set/RowView.
func (m *Matrix) Data() []complex128 { return m.data }

// MulVecInto computes dst = a·x without allocating. dst must have length
// a.Rows() and must not alias x.
//
// The dot product runs on four independent accumulators: a single running sum
// serializes on floating-point add latency, which measurably dominates the
// snapshot hot path at moderate N.
//
// fadinglint:allocfree
func MulVecInto(dst []complex128, a *Matrix, x []complex128) error {
	if a.cols != len(x) {
		return fmt.Errorf("cmplxmat: MulVecInto %dx%d with vector of length %d: %w", a.rows, a.cols, len(x), ErrDimension)
	}
	if len(dst) != a.rows {
		return fmt.Errorf("cmplxmat: MulVecInto destination length %d, want %d: %w", len(dst), a.rows, ErrDimension)
	}
	n := a.cols
	for i := 0; i < a.rows; i++ {
		row := a.data[i*n : (i+1)*n]
		var s0, s1, s2, s3 complex128
		j := 0
		for ; j+4 <= n; j += 4 {
			s0 += row[j] * x[j]
			s1 += row[j+1] * x[j+1]
			s2 += row[j+2] * x[j+2]
			s3 += row[j+3] * x[j+3]
		}
		for ; j < n; j++ {
			s0 += row[j] * x[j]
		}
		dst[i] = (s0 + s1) + (s2 + s3)
	}
	return nil
}

// MulInto computes dst = a·b without allocating. dst must be a.Rows()×b.Cols()
// and must not alias a or b.
//
// fadinglint:allocfree
func MulInto(dst, a, b *Matrix) error {
	if a.cols != b.rows {
		return fmt.Errorf("cmplxmat: MulInto %dx%d with %dx%d: %w", a.rows, a.cols, b.rows, b.cols, ErrDimension)
	}
	if dst.rows != a.rows || dst.cols != b.cols {
		return fmt.Errorf("cmplxmat: MulInto destination %dx%d, want %dx%d: %w", dst.rows, dst.cols, a.rows, b.cols, ErrDimension)
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := dst.data[i*dst.cols : (i+1)*dst.cols]
		for j := range orow {
			orow[j] = 0
		}
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return nil
}

// colorPackLen is the size, in complex values, of ColorBlock's pack buffer:
// 16 KiB on the stack, so a packed panel plus the coloring rows a tile reads
// stay resident in L1.
const colorPackLen = 1024

// colorPackK caps the k extent of one packed panel, so every panel spans at
// least colorPackLen/colorPackK columns however large n is.
const colorPackK = 128

// colorRowPanel is the column-panel width when n < 4 leaves nothing to
// pack: the W rows and Z rows of a 128-column panel (2 KiB each) stay in L1
// while each row makes its n passes.
const colorRowPanel = 128

// ColorBlock computes Z = L·W as one cache-blocked matrix-matrix product.
// L is the n×n coloring matrix, W an n×m block whose column l is the raw
// sample vector at time instant l, and Z the n×m destination. This turns the
// per-instant coloring loop of the real-time generator (m independent
// mat-vec products) into a single GEMM over flat backing arrays.
//
// W is processed in column panels. Each panel is first packed into a
// fixed-size stack buffer with its columns k-contiguous, so a large
// power-of-two m (whose W rows sit a multiple of the L1 set stride apart)
// never walks W with a large stride. A micro-kernel then computes four rows
// × one column of Z at a time, summing over k in registers. The n mod 4 rows
// left over (every row when n < 4, where nothing is packed) accumulate
// straight from W's rows with unit stride. When every entry of L is purely
// real (the case for every real-valued covariance target) the kernels
// multiply each sample by a real scalar (two multiplies) instead of forming
// the full complex product.
//
// Every entry of Z is one ascending-k chain starting from 0, each term
// rounded on its own (no fused multiply-add, whatever GOAMD64 is). For finite
// W, Z is bit-identical to the naive triple loop that adds L[i][k]·W[k][l]
// for k = 0..n−1, skipping zero entries of L and applying real entries as two
// real multiplies. The complex kernel forms the full product for every entry
// instead; on a real or zero entry that differs only in the sign of a zero
// term, and a running sum that starts at +0 is never −0, so adding ±0 leaves
// it unchanged. A panel taller than colorPackK resumes each chain from its
// stored partial sum, which is exact. Z must not alias L or W.
//
// fadinglint:allocfree
func ColorBlock(l, w, z *Matrix) error {
	if !l.IsSquare() {
		return fmt.Errorf("cmplxmat: ColorBlock coloring matrix %dx%d not square: %w", l.rows, l.cols, ErrDimension)
	}
	n := l.rows
	if w.rows != n {
		return fmt.Errorf("cmplxmat: ColorBlock sample block has %d rows, want %d: %w", w.rows, n, ErrDimension)
	}
	if z.rows != n || z.cols != w.cols {
		return fmt.Errorf("cmplxmat: ColorBlock destination %dx%d, want %dx%d: %w", z.rows, z.cols, n, w.cols, ErrDimension)
	}
	m := w.cols
	allReal := true
	for _, v := range l.data {
		if imag(v) != 0 {
			allReal = false
			break
		}
	}
	if n < 4 {
		// Too few rows for a tile: stream every row straight from W, one
		// column panel at a time.
		for j0 := 0; j0 < m; j0 += colorRowPanel {
			j1 := min(j0+colorRowPanel, m)
			for i := 0; i < n; i++ {
				kt := nonzeroExtent(l.data, n, i, i+1, 0, n)
				colorRow(l.data[i*n:][:kt], w.data[j0:], m, z.data[i*m+j0:i*m+j1], false, allReal)
			}
		}
		return nil
	}
	colorPacked(l.data, w.data, z.data, n, m, allReal)
	return nil
}

// colorPacked is ColorBlock for n >= 4: it walks W in column panels, packs
// each into the stack buffer and colors it. It is a function of its own so
// that only this path pays for the large stack frame.
func colorPacked(ld, wd, zd []complex128, n, m int, allReal bool) {
	var pack [colorPackLen]complex128
	var tile [colorPackK][4]complex128
	kc := min(n, colorPackK)
	width := colorPackLen / kc
	for j0 := 0; j0 < m; j0 += width {
		j1 := min(j0+width, m)
		for k0 := 0; k0 < n; k0 += kc {
			k1 := min(k0+kc, n)
			p := pack[:(j1-j0)*(k1-k0)]
			packPanel(p, wd, m, j0, j1, k0, k1)
			colorPanel(ld, p, wd, zd, &tile, n, m, j0, j1, k0, k1, allReal)
		}
	}
}

// packPanel copies rows k0..k1−1, columns j0..j1−1 of the row-major n×m
// matrix wd into p with each column contiguous: p[q·(k1−k0)+k−k0] =
// W[k][j0+q].
func packPanel(p, wd []complex128, m, j0, j1, k0, k1 int) {
	kw := k1 - k0
	k := k0
	// Four rows at a time: each column's four values land side by side.
	for ; k+4 <= k1; k += 4 {
		r0 := wd[k*m+j0 : k*m+j1]
		r1 := wd[(k+1)*m+j0:][:len(r0)]
		r2 := wd[(k+2)*m+j0:][:len(r0)]
		r3 := wd[(k+3)*m+j0:][:len(r0)]
		for q := range r0 {
			d := p[q*kw+k-k0:][:4]
			d[0], d[1], d[2], d[3] = r0[q], r1[q], r2[q], r3[q]
		}
	}
	for ; k < k1; k++ {
		row := wd[k*m+j0 : k*m+j1]
		for q, v := range row {
			p[q*kw+k-k0] = v
		}
	}
}

// colorPanel accumulates the terms k0..k1−1 of Z[i][j0..j1−1] for every row
// i from the packed panel p: four rows at a time through a register tile,
// and the n mod 4 rows left over one at a time. With k0 > 0 each chain
// resumes from the partial sum already in Z. Within a tile, the k range
// stops after the last nonzero coloring entry of its rows, so triangular
// colorings (Cholesky factors) skip their zero half.
//
// tile receives the four L rows of a tile interleaved by k, so the
// micro-kernel walks one pointer for L and one for the packed column.
func colorPanel(ld, p, wd, zd []complex128, tile *[colorPackK][4]complex128, n, m, j0, j1, k0, k1 int, allReal bool) {
	kw := k1 - k0
	resume := k0 > 0
	i := 0
	for ; i+4 <= n; i += 4 {
		kt := nonzeroExtent(ld, n, i, i+4, k0, k1)
		lt := tile[:kt]
		for k := range lt {
			c := i*n + k0 + k
			lt[k] = [4]complex128{ld[c], ld[c+n], ld[c+2*n], ld[c+3*n]}
		}
		z := zd[i*m+j0 : (i+3)*m+j1]
		if allReal {
			colorTileReal(lt, p, kw, z, m, resume)
		} else {
			colorTileCmplx(lt, p, kw, z, m, resume)
		}
	}
	for ; i < n; i++ {
		kt := nonzeroExtent(ld, n, i, i+1, k0, k1)
		colorRow(ld[i*n+k0:][:kt], wd[k0*m+j0:], m, zd[i*m+j0:i*m+j1], resume, allReal)
	}
}

// colorTileReal is the real-coloring micro-kernel. For each column q of the
// panel it sums the four interleaved rows of lt against the packed column in
// registers and stores the sums to z[q], z[m+q], z[2m+q] and z[3m+q].
func colorTileReal(lt [][4]complex128, p []complex128, kw int, z []complex128, m int, resume bool) {
	width := len(z) - 3*m
	for q := 0; q < width; q++ {
		var a0, a1, a2, a3 complex128
		if resume {
			a0, a1, a2, a3 = z[q], z[m+q], z[2*m+q], z[3*m+q]
		}
		wc := p[q*kw:][:len(lt)]
		for k, v := range wc {
			wr, wi := real(v), imag(v)
			c := &lt[k]
			c0, c1, c2, c3 := real(c[0]), real(c[1]), real(c[2]), real(c[3])
			a0 += complex(float64(c0*wr), float64(c0*wi))
			a1 += complex(float64(c1*wr), float64(c1*wi))
			a2 += complex(float64(c2*wr), float64(c2*wi))
			a3 += complex(float64(c3*wr), float64(c3*wi))
		}
		z[q], z[m+q], z[2*m+q], z[3*m+q] = a0, a1, a2, a3
	}
}

// colorTileCmplx is colorTileReal for a coloring with complex entries.
func colorTileCmplx(lt [][4]complex128, p []complex128, kw int, z []complex128, m int, resume bool) {
	width := len(z) - 3*m
	for q := 0; q < width; q++ {
		var a0, a1, a2, a3 complex128
		if resume {
			a0, a1, a2, a3 = z[q], z[m+q], z[2*m+q], z[3*m+q]
		}
		wc := p[q*kw:][:len(lt)]
		for k, v := range wc {
			c := &lt[k]
			a0 += mulRounded(c[0], v)
			a1 += mulRounded(c[1], v)
			a2 += mulRounded(c[2], v)
			a3 += mulRounded(c[3], v)
		}
		z[q], z[m+q], z[2*m+q], z[3*m+q] = a0, a1, a2, a3
	}
}

// colorRow accumulates one row of Z outside the register tiles straight
// from the unpacked W rows: one unit-stride pass over the panel per coloring
// entry, adding each term into z. w starts at the panel's first entry and
// has row stride m. Every chain still runs in ascending k from 0 (or from its
// stored partial sum).
func colorRow(lr, w []complex128, m int, z []complex128, resume, allReal bool) {
	if !resume {
		clear(z)
	}
	for k, lv := range lr {
		wrow := w[k*m:][:len(z)]
		if allReal {
			c := real(lv)
			for q, v := range wrow {
				z[q] += complex(float64(c*real(v)), float64(c*imag(v)))
			}
			continue
		}
		for q, v := range wrow {
			z[q] += mulRounded(lv, v)
		}
	}
}

// nonzeroExtent returns how many of the columns k0..k1−1 of rows i0..i1−1
// of the n×n matrix ld reach up to the last nonzero entry; the terms past it
// are zero and leave every chain's running sum unchanged.
func nonzeroExtent(ld []complex128, n, i0, i1, k0, k1 int) int {
	kt := 0
	for i := i0; i < i1; i++ {
		for k := k1 - 1; k >= k0+kt; k-- {
			if ld[i*n+k] != 0 {
				kt = k - k0 + 1
				break
			}
		}
	}
	return kt
}

// mulRounded is the complex product a·b with each real product rounded on
// its own, as Go's complex multiplication does when no fused multiply-add is
// available: (ar·br − ai·bi) + (ar·bi + ai·br)i. The explicit conversions
// keep the compiler from fusing on targets that have FMA.
func mulRounded(a, b complex128) complex128 {
	ar, ai, br, bi := real(a), imag(a), real(b), imag(b)
	return complex(float64(ar*br)-float64(ai*bi), float64(ar*bi)+float64(ai*br))
}
