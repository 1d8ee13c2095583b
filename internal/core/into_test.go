package core

import (
	"errors"
	"testing"

	"repro/internal/doppler"
)

// Tests for the zero-allocation batched generation engine: Into variants must
// reproduce the allocating paths bit-for-bit, batched/parallel runs must be
// independent of the worker count, and the steady-state hot paths must not
// touch the heap.

func newTestSnapshotGenerator(t testing.TB, seed int64) *SnapshotGenerator {
	t.Helper()
	g, err := NewSnapshotGenerator(SnapshotConfig{Covariance: eq22Covariance(), Seed: seed})
	if err != nil {
		t.Fatalf("NewSnapshotGenerator: %v", err)
	}
	return g
}

func TestGenerateIntoMatchesGenerate(t *testing.T) {
	g1 := newTestSnapshotGenerator(t, 401)
	g2 := newTestSnapshotGenerator(t, 401)
	gaussian := make([]complex128, g2.N())
	env := make([]float64, g2.N())
	for draw := 0; draw < 10; draw++ {
		want := g1.Generate()
		if err := g2.GenerateInto(gaussian, env); err != nil {
			t.Fatalf("GenerateInto: %v", err)
		}
		for j := range want.Gaussian {
			if gaussian[j] != want.Gaussian[j] || env[j] != want.Envelopes[j] {
				t.Fatalf("draw %d envelope %d: Into (%v,%v) vs Generate (%v,%v)",
					draw, j, gaussian[j], env[j], want.Gaussian[j], want.Envelopes[j])
			}
		}
	}
}

func TestGenerateIntoValidatesLengths(t *testing.T) {
	g := newTestSnapshotGenerator(t, 403)
	if err := g.GenerateInto(make([]complex128, 2), make([]float64, 3)); !errors.Is(err, ErrBadInput) {
		t.Errorf("short gaussian: err = %v", err)
	}
	if err := g.GenerateInto(make([]complex128, 3), make([]float64, 1)); !errors.Is(err, ErrBadInput) {
		t.Errorf("short envelopes: err = %v", err)
	}
}

func TestGenerateIntoDoesNotAllocate(t *testing.T) {
	g := newTestSnapshotGenerator(t, 405)
	gaussian := make([]complex128, g.N())
	env := make([]float64, g.N())
	if n := testing.AllocsPerRun(200, func() {
		if err := g.GenerateInto(gaussian, env); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("GenerateInto allocates %v per run", n)
	}
}

func TestGenerateBatchIntoWorkerCountInvariance(t *testing.T) {
	const count = 300 // several chunks plus a ragged tail
	runs := make([][]Snapshot, 0, 3)
	for _, workers := range []int{1, 2, 7} {
		g := newTestSnapshotGenerator(t, 407)
		dst := make([]Snapshot, count)
		if err := g.GenerateBatchInto(dst, workers); err != nil {
			t.Fatalf("GenerateBatchInto(workers=%d): %v", workers, err)
		}
		runs = append(runs, dst)
	}
	for r := 1; r < len(runs); r++ {
		for i := range runs[0] {
			for j := range runs[0][i].Gaussian {
				if runs[r][i].Gaussian[j] != runs[0][i].Gaussian[j] ||
					runs[r][i].Envelopes[j] != runs[0][i].Envelopes[j] {
					t.Fatalf("run %d snapshot %d envelope %d differs from sequential run", r, i, j)
				}
			}
		}
	}
}

func TestGenerateBatchIntoReusesStorage(t *testing.T) {
	g := newTestSnapshotGenerator(t, 409)
	dst := make([]Snapshot, 10)
	for i := range dst {
		dst[i].Gaussian = make([]complex128, g.N())
		dst[i].Envelopes = make([]float64, g.N())
	}
	before := make([]*complex128, len(dst))
	for i := range dst {
		before[i] = &dst[i].Gaussian[0]
	}
	if err := g.GenerateBatchInto(dst, 1); err != nil {
		t.Fatalf("GenerateBatchInto: %v", err)
	}
	for i := range dst {
		if &dst[i].Gaussian[0] != before[i] {
			t.Errorf("snapshot %d storage was reallocated despite correct shape", i)
		}
	}
	if err := g.GenerateBatchInto(nil, 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty batch: err = %v", err)
	}
}

func newTestRealTimeGenerator(t testing.TB, seed int64, m int) *RealTimeGenerator {
	t.Helper()
	g, err := NewRealTimeGenerator(RealTimeConfig{
		Covariance: eq22Covariance(),
		Filter:     doppler.FilterSpec{M: m, NormalizedDoppler: 0.05},
		Seed:       seed,
	})
	if err != nil {
		t.Fatalf("NewRealTimeGenerator: %v", err)
	}
	return g
}

func blocksEqual(t *testing.T, label string, a, b *Block) {
	t.Helper()
	for j := range a.Gaussian {
		for l := range a.Gaussian[j] {
			if a.Gaussian[j][l] != b.Gaussian[j][l] || a.Envelopes[j][l] != b.Envelopes[j][l] {
				t.Fatalf("%s: blocks differ at (%d,%d)", label, j, l)
			}
		}
	}
}

// TestGenerateBlockIntoMatchesGenerateBlock checks that a reused
// destination receives the same values as a freshly allocated block, now
// that GenerateBlockAt is the one fill entry for both. Twin generators keep
// the two fills from sharing any state.
func TestGenerateBlockIntoMatchesGenerateBlock(t *testing.T) {
	g1 := newTestRealTimeGenerator(t, 411, 512)
	g2 := newTestRealTimeGenerator(t, 411, 512)
	s1 := newScratches(t, g1, 1)[0]
	s2 := newScratches(t, g2, 1)[0]
	into := NewBlock(g2.N(), g2.BlockLength())
	for i := uint64(0); i < 3; i++ {
		want := NewBlock(g1.N(), g1.BlockLength())
		if err := g1.GenerateBlockAt(i, want, s1); err != nil {
			t.Fatalf("GenerateBlockAt (fresh): %v", err)
		}
		if err := g2.GenerateBlockAt(i, into, s2); err != nil {
			t.Fatalf("GenerateBlockAt (reused): %v", err)
		}
		blocksEqual(t, "fresh vs reused", want, into)
	}
	if err := g2.GenerateBlockAt(0, nil, s2); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil block: err = %v", err)
	}
	if err := g2.GenerateBlockAt(0, into, nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil scratch: err = %v", err)
	}
}

// TestGenerateBlockIntoReshapesWrongBlocks shapes an empty destination in
// place through GenerateBlockAt and fills it with the values a pre-shaped
// one receives.
func TestGenerateBlockIntoReshapesWrongBlocks(t *testing.T) {
	g := newTestRealTimeGenerator(t, 413, 512)
	s := newScratches(t, g, 1)[0]
	want := NewBlock(g.N(), g.BlockLength())
	for i := uint64(0); i < 3; i++ {
		b := &Block{} // empty: must be shaped in place
		if err := g.GenerateBlockAt(i, b, s); err != nil {
			t.Fatalf("GenerateBlockAt: %v", err)
		}
		if len(b.Gaussian) != 3 || len(b.Gaussian[0]) != 512 {
			t.Fatalf("block not reshaped: %dx%d", len(b.Gaussian), len(b.Gaussian[0]))
		}
		if err := g.GenerateBlockAt(i, want, s); err != nil {
			t.Fatalf("GenerateBlockAt: %v", err)
		}
		blocksEqual(t, "reshaped vs pre-shaped", want, b)
	}
}

// TestGenerateBlocksAtNoAllocs pins the single-worker fan-out that
// RealTime.BlocksInto runs at Parallel <= 1: with pre-shaped blocks and
// power-of-two M a steady-state call touches no heap.
func TestGenerateBlocksAtNoAllocs(t *testing.T) {
	g := newTestRealTimeGenerator(t, 415, 512)
	dst := make([]*Block, 4)
	for i := range dst {
		dst[i] = NewBlock(g.N(), g.BlockLength())
	}
	scratches := newScratches(t, g, 1)
	var start uint64
	if n := testing.AllocsPerRun(10, func() {
		if err := g.GenerateBlocksAt(start, dst, scratches); err != nil {
			t.Fatal(err)
		}
		start += uint64(len(dst))
	}); n != 0 {
		t.Errorf("GenerateBlocksAt allocates %v per run", n)
	}
}

func TestGenerateBlocksIntoWorkerCountInvariance(t *testing.T) {
	const count = 6
	runs := make([][]*Block, 0, 3)
	for _, workers := range []int{1, 2, 4} {
		g := newTestRealTimeGenerator(t, 417, 512)
		dst := make([]*Block, count)
		for i := range dst {
			dst[i] = NewBlock(g.N(), g.BlockLength())
		}
		if err := g.GenerateBlocksInto(dst, workers); err != nil {
			t.Fatalf("GenerateBlocksInto(workers=%d): %v", workers, err)
		}
		runs = append(runs, dst)
	}
	for r := 1; r < len(runs); r++ {
		for i := range runs[0] {
			blocksEqual(t, "parallel vs sequential", runs[0][i], runs[r][i])
		}
	}
}

func TestGenerateBlocksIntoValidation(t *testing.T) {
	g := newTestRealTimeGenerator(t, 419, 512)
	if err := g.GenerateBlocksInto(nil, 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("empty dst: err = %v", err)
	}
	if err := g.GenerateBlocksInto(make([]*Block, 2), 1); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil entries: err = %v", err)
	}
	dst := []*Block{NewBlock(g.N(), g.BlockLength())}
	if err := g.GenerateBlocksAt(0, dst, nil); !errors.Is(err, ErrBadInput) {
		t.Errorf("no scratch: err = %v", err)
	}
	if err := g.GenerateBlocksAt(0, dst, make([]*BlockScratch, 1)); !errors.Is(err, ErrBadInput) {
		t.Errorf("nil scratch: err = %v", err)
	}
}

func TestGenerateBlocksIntoBluesteinLength(t *testing.T) {
	// Non-power-of-two M exercises the per-worker Doppler generators (the
	// shared plan scratch would race otherwise).
	const count = 4
	g1 := newTestRealTimeGenerator(t, 421, 600)
	g2 := newTestRealTimeGenerator(t, 421, 600)
	seq := make([]*Block, count)
	par := make([]*Block, count)
	for i := range seq {
		seq[i] = NewBlock(g1.N(), g1.BlockLength())
		par[i] = NewBlock(g2.N(), g2.BlockLength())
	}
	if err := g1.GenerateBlocksInto(seq, 1); err != nil {
		t.Fatalf("sequential: %v", err)
	}
	if err := g2.GenerateBlocksInto(par, 3); err != nil {
		t.Fatalf("parallel: %v", err)
	}
	for i := range seq {
		blocksEqual(t, "bluestein parallel", seq[i], par[i])
	}
}
