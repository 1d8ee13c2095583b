package cmplxmat

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randomMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	return m
}

func TestRowViewSharesBacking(t *testing.T) {
	m := MustFromRows([][]complex128{{1, 2}, {3, 4}})
	row := m.RowView(1)
	if row[0] != 3 || row[1] != 4 {
		t.Fatalf("RowView(1) = %v", row)
	}
	row[0] = 9
	if m.At(1, 0) != 9 {
		t.Errorf("write through RowView not visible: At(1,0) = %v", m.At(1, 0))
	}
	// The three-index slice must not allow growth into the next row.
	if cap(row) != 2 {
		t.Errorf("RowView cap = %d, want 2", cap(row))
	}
}

func TestMulVecIntoMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomMatrix(rng, 5, 7)
	x := make([]complex128, 7)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	want, err := MulVec(a, x)
	if err != nil {
		t.Fatalf("MulVec: %v", err)
	}
	dst := make([]complex128, 5)
	if err := MulVecInto(dst, a, x); err != nil {
		t.Fatalf("MulVecInto: %v", err)
	}
	// MulVecInto accumulates on four independent chains, so the summation
	// order differs from MulVec: agreement is to round-off, not bit-exact.
	for i := range want {
		if cmplx.Abs(dst[i]-want[i]) > 1e-12 {
			t.Errorf("entry %d: %v vs %v", i, dst[i], want[i])
		}
	}
}

func TestMulVecIntoDimensionErrors(t *testing.T) {
	a := Identity(3)
	if err := MulVecInto(make([]complex128, 3), a, make([]complex128, 2)); !errors.Is(err, ErrDimension) {
		t.Errorf("short x: err = %v", err)
	}
	if err := MulVecInto(make([]complex128, 2), a, make([]complex128, 3)); !errors.Is(err, ErrDimension) {
		t.Errorf("short dst: err = %v", err)
	}
}

func TestMulIntoMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomMatrix(rng, 4, 6)
	b := randomMatrix(rng, 6, 5)
	want := MustMul(a, b)
	dst := New(4, 5)
	// Pre-dirty the destination to prove MulInto fully overwrites it.
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			dst.Set(i, j, complex(99, -99))
		}
	}
	if err := MulInto(dst, a, b); err != nil {
		t.Fatalf("MulInto: %v", err)
	}
	if !EqualApprox(dst, want, 0) {
		t.Errorf("MulInto differs from Mul:\n%v\nvs\n%v", dst, want)
	}
}

func TestMulIntoDimensionErrors(t *testing.T) {
	a := New(2, 3)
	b := New(4, 2)
	if err := MulInto(New(2, 2), a, b); !errors.Is(err, ErrDimension) {
		t.Errorf("inner mismatch: err = %v", err)
	}
	if err := MulInto(New(3, 3), a, New(3, 2)); !errors.Is(err, ErrDimension) {
		t.Errorf("bad destination: err = %v", err)
	}
}

func TestColorBlockMatchesColumnwiseMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dims := range []struct{ n, m int }{{1, 1}, {3, 7}, {4, 128}, {5, 300}, {16, 129}} {
		l := randomMatrix(rng, dims.n, dims.n)
		w := randomMatrix(rng, dims.n, dims.m)
		z := New(dims.n, dims.m)
		if err := ColorBlock(l, w, z); err != nil {
			t.Fatalf("ColorBlock(%d,%d): %v", dims.n, dims.m, err)
		}
		x := make([]complex128, dims.n)
		for col := 0; col < dims.m; col++ {
			for i := 0; i < dims.n; i++ {
				x[i] = w.At(i, col)
			}
			want := MustMulVec(l, x)
			for i := 0; i < dims.n; i++ {
				if z.At(i, col) != want[i] {
					t.Fatalf("n=%d m=%d entry (%d,%d): %v vs %v", dims.n, dims.m, i, col, z.At(i, col), want[i])
				}
			}
		}
	}
}

// colorBlockRef is the reference ColorBlock: the naive triple loop with one
// ascending-k chain per entry, zero entries of L skipped, real entries
// applied as two real multiplies and complex ones as the full product, every
// product rounded on its own.
func colorBlockRef(l, w *Matrix) *Matrix {
	n, m := l.rows, w.cols
	z := New(n, m)
	for i := 0; i < n; i++ {
		for col := 0; col < m; col++ {
			var acc complex128
			for k := 0; k < n; k++ {
				lv, wv := l.data[i*n+k], w.data[k*m+col]
				switch {
				case lv == 0:
				case imag(lv) == 0:
					acc += complex(float64(real(lv)*real(wv)), float64(real(lv)*imag(wv)))
				default:
					acc += complex(float64(real(lv)*real(wv))-float64(imag(lv)*imag(wv)),
						float64(real(lv)*imag(wv))+float64(imag(lv)*real(wv)))
				}
			}
			z.data[i*m+col] = acc
		}
	}
	return z
}

// coloringOfKind returns a random n×n coloring matrix: "real" (real entries
// only), "complex" (every entry complex), "partial" (real, complex and zero
// entries mixed) or "zeros" (complex, lower-triangular, with a zero row).
func coloringOfKind(rng *rand.Rand, kind string, n int) *Matrix {
	l := randomMatrix(rng, n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			v := l.data[i*n+k]
			switch {
			case kind == "real":
				v = complex(real(v), 0)
			case kind == "partial" && (i+2*k)%3 == 0:
				v = complex(real(v), 0)
			case kind == "partial" && (i+2*k)%3 == 1:
				v = 0
			case kind == "zeros" && (k > i || i == n/2):
				v = 0
			}
			l.data[i*n+k] = v
		}
	}
	return l
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestColorBlockMatchesReference checks the packed, register-tiled kernels
// bit for bit against colorBlockRef across every row-tile remainder, panel
// widths below, at and above the pack buffer's column count, k-blocked
// panels (n > colorPackK) and all four kinds of coloring. Each (n, m) pair
// runs one kind, rotating so every kind meets every m; the tall case runs
// all four.
func TestColorBlockMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	kinds := []string{"real", "complex", "partial", "zeros"}
	type dims struct{ n, m int }
	var cases []dims
	for n := 1; n <= 65; n++ {
		for _, m := range []int{1, 2, 31, 128, 129, 1000, 4096} {
			cases = append(cases, dims{n, m})
		}
	}
	// A panel taller than colorPackK: every kind resumes its chains.
	for range kinds {
		cases = append(cases, dims{colorPackK + 5, 40})
	}
	for ci, d := range cases {
		kind := kinds[ci%len(kinds)]
		l := coloringOfKind(rng, kind, d.n)
		w := randomMatrix(rng, d.n, d.m)
		z := New(d.n, d.m)
		if err := ColorBlock(l, w, z); err != nil {
			t.Fatalf("ColorBlock(%d,%d): %v", d.n, d.m, err)
		}
		want := colorBlockRef(l, w)
		for i, v := range z.data {
			if !sameBits(v, want.data[i]) {
				t.Fatalf("%s n=%d m=%d entry (%d,%d): %v, reference %v", kind, d.n, d.m, i/d.m, i%d.m, v, want.data[i])
			}
		}
	}
}

func TestColorBlockRealColoringFastPath(t *testing.T) {
	// A purely real coloring takes the two-multiply kernel, which must stay
	// bit-identical to the reference's per-entry arithmetic. The same
	// matrix with one entry made complex takes the complex kernel and must
	// agree on every row that entry does not touch.
	rng := rand.New(rand.NewSource(23))
	for _, dims := range []struct{ n, m int }{{6, 64}, {6, 200}} {
		n, m := dims.n, dims.m
		lc := coloringOfKind(rng, "real", n)
		w := randomMatrix(rng, n, m)
		z := New(n, m)
		if err := ColorBlock(lc, w, z); err != nil {
			t.Fatalf("ColorBlock: %v", err)
		}
		want := colorBlockRef(lc, w)
		lc.data[0] = complex(real(lc.data[0]), 1)
		zc := New(n, m)
		if err := ColorBlock(lc, w, zc); err != nil {
			t.Fatalf("ColorBlock: %v", err)
		}
		for i, v := range z.data {
			if !sameBits(v, want.data[i]) {
				t.Fatalf("n=%d m=%d entry (%d,%d): %v vs %v", n, m, i/m, i%m, v, want.data[i])
			}
			if i >= m && !sameBits(zc.data[i], v) {
				t.Fatalf("n=%d m=%d entry (%d,%d): complex kernel %v, real kernel %v", n, m, i/m, i%m, zc.data[i], v)
			}
		}
	}
}

func TestColorBlockDimensionErrors(t *testing.T) {
	if err := ColorBlock(New(2, 3), New(3, 4), New(2, 4)); !errors.Is(err, ErrDimension) {
		t.Errorf("non-square L: err = %v", err)
	}
	if err := ColorBlock(Identity(3), New(2, 4), New(3, 4)); !errors.Is(err, ErrDimension) {
		t.Errorf("W row mismatch: err = %v", err)
	}
	if err := ColorBlock(Identity(3), New(3, 4), New(3, 5)); !errors.Is(err, ErrDimension) {
		t.Errorf("Z shape mismatch: err = %v", err)
	}
}

func TestIntoKernelsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := randomMatrix(rng, 8, 8)
	x := make([]complex128, 8)
	dstV := make([]complex128, 8)
	w := randomMatrix(rng, 8, 256)
	z := New(8, 256)
	dstM := New(8, 8)
	b := randomMatrix(rng, 8, 8)

	if n := testing.AllocsPerRun(100, func() {
		if err := MulVecInto(dstV, a, x); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("MulVecInto allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := MulInto(dstM, a, b); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("MulInto allocates %v per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := ColorBlock(a, w, z); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("ColorBlock allocates %v per run", n)
	}
}

// TestColorBlockWideDoesNotAllocate covers the packed path: many panels,
// row tiles plus a leftover row, real and complex colorings. The pack buffer
// must stay on the stack.
func TestColorBlockWideDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	w := randomMatrix(rng, 17, 4096)
	z := New(17, 4096)
	for _, kind := range []string{"real", "complex"} {
		l := coloringOfKind(rng, kind, 17)
		if n := testing.AllocsPerRun(5, func() {
			if err := ColorBlock(l, w, z); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s ColorBlock 17x4096 allocates %v per run", kind, n)
		}
	}
}
