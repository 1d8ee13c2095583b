package doppler

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dsp"
	"repro/internal/randx"
)

func TestBlockIntoMatchesBlock(t *testing.T) {
	for _, m := range []int{512, 1000} { // power of two and Bluestein
		spec := FilterSpec{M: m, NormalizedDoppler: 0.05}
		g, err := NewGenerator(spec, 0.5)
		if err != nil {
			t.Fatalf("NewGenerator(M=%d): %v", m, err)
		}
		want := g.Block(randx.New(31))
		got := make([]complex128, m)
		if err := g.BlockInto(randx.New(31), got); err != nil {
			t.Fatalf("BlockInto(M=%d): %v", m, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("M=%d sample %d: BlockInto %v vs Block %v", m, i, got[i], want[i])
			}
		}
	}
}

func TestBlockIntoLengthError(t *testing.T) {
	g, err := NewGenerator(FilterSpec{M: 512, NormalizedDoppler: 0.05}, 0.5)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	if err := g.BlockInto(randx.New(1), make([]complex128, 100)); !errors.Is(err, ErrBadParameter) {
		t.Errorf("short destination: err = %v", err)
	}
}

func TestBlockIntoDoesNotAllocatePow2(t *testing.T) {
	g, err := NewGenerator(FilterSpec{M: 1024, NormalizedDoppler: 0.05}, 0.5)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	rng := randx.New(37)
	dst := make([]complex128, 1024)
	if n := testing.AllocsPerRun(20, func() {
		if err := g.BlockInto(rng, dst); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("BlockInto allocates %v per run at power-of-two M", n)
	}
}

// TestBlockIntoMatchesNaturalOrderIDFT pins the power-of-two BlockInto, which
// writes pre-scaled in-band bins straight into bit-reversed slots, to the
// natural-order spectrum transformed by InverseScaled, bit for bit, at even
// and odd log2 M.
func TestBlockIntoMatchesNaturalOrderIDFT(t *testing.T) {
	for _, m := range []int{8, 64, 512, 1024, 2048, 4096} {
		for _, fm := range []float64{0.01, 0.05, 0.2} {
			spec := FilterSpec{M: m, NormalizedDoppler: fm}
			if spec.Validate() != nil {
				continue
			}
			g, err := NewGenerator(spec, 0.5)
			if err != nil {
				t.Fatalf("NewGenerator(M=%d, fm=%g): %v", m, fm, err)
			}
			rng := randx.New(int64(m))
			want := make([]complex128, m)
			for k, c := range g.Coefficients() {
				if c != 0 {
					a := rng.Normal(0, g.sigmaOrig)
					b := rng.Normal(0, g.sigmaOrig)
					want[k] = complex(c*a, -c*b)
				}
			}
			dsp.NewPlan(m).InverseScaled(want)
			got := make([]complex128, m)
			if err := g.BlockInto(randx.New(int64(m)), got); err != nil {
				t.Fatalf("BlockInto: %v", err)
			}
			for l := range want {
				if math.Float64bits(real(got[l])) != math.Float64bits(real(want[l])) ||
					math.Float64bits(imag(got[l])) != math.Float64bits(imag(want[l])) {
					t.Fatalf("M=%d fm=%g sample %d: %v, want %v", m, fm, l, got[l], want[l])
				}
			}
		}
	}
}
