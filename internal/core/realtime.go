package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/cmplxmat"
	"repro/internal/doppler"
	"repro/internal/randx"
)

// Transform post-processes one envelope row of colored complex-Gaussian
// samples in place, mapping the correlated Rayleigh fading line to another
// envelope distribution (Rician, Nakagami-m, Suzuki — see internal/fading).
// env is the row index, offset the global index of the row's first sample;
// on return z holds the transformed samples and r their envelopes (r is
// written, never read). Implementations must be stateless after construction
// and safe for concurrent use: the parallel block workers share one value.
type Transform interface {
	Apply(env int, offset uint64, z []complex128, r []float64)
}

// DopplerSegment is one leg of a nonstationary-Doppler velocity trajectory:
// Blocks consecutive blocks generated with the given normalized maximum
// Doppler shift. The final segment persists for every block past the end of
// the trajectory.
type DopplerSegment struct {
	Blocks            int
	NormalizedDoppler float64
}

// RealTimeConfig configures the real-time correlated generator of Section 5
// (Fig. 3): N Young–Beaulieu Doppler generators feed the coloring step, so
// every envelope carries the Jakes autocorrelation J0(2π·fm·d) while the
// cross-envelope covariance matches the desired matrix at every instant.
type RealTimeConfig struct {
	// Covariance is the desired covariance matrix K of the complex Gaussian
	// processes.
	Covariance *cmplxmat.Matrix
	// Filter is the Doppler filter specification shared by the N generators
	// (IDFT length M and normalized Doppler fm). With DopplerSegments set,
	// only M is read and NormalizedDoppler must be zero (each segment brings
	// its own).
	Filter doppler.FilterSpec
	// InputVariance is σ²_orig, the variance of the real Gaussian sequences
	// feeding each Doppler filter. Zero selects the paper's 1/2.
	InputVariance float64
	// Seed seeds the random streams (one derived stream set per block).
	Seed int64
	// AssumeUnitVariance, when true, skips the Eq. (19) correction and feeds
	// the coloring step with σ²_g = 1 regardless of the true Doppler filter
	// gain. This reproduces the defect of the method in [6] that Section 5
	// identifies, so the harness can quantify the resulting covariance bias
	// (the sorooshyari_daut backend sets it). Production use of the
	// generalized method should leave it false.
	AssumeUnitVariance bool
	// Coloring overrides the coloring matrix applied to the Doppler panel
	// (see SnapshotConfig.Coloring): the backend registry threads the
	// conventional methods' colorings through here, so baseline-backed
	// real-time streams reuse the whole batched engine, including random
	// access and worker-count invariance.
	Coloring *cmplxmat.Matrix
	// Transform, when non-nil, post-processes every generated row (the
	// channel-model zoo's Rician/Nakagami/Suzuki sample transforms). It is
	// applied inside the block fill, so every path — random-access or
	// worker-pooled — produces identical transformed output.
	Transform Transform
	// DopplerSegments, when non-empty, replaces the single Doppler design
	// with a piecewise trajectory: block k is generated with the Doppler
	// panel of the segment covering k (the last segment persists past the
	// trajectory end). Only the Doppler generators and the σ_g scaling
	// change per segment; the per-block random streams are unchanged, so
	// GenerateBlockAt stays O(1) and byte-identical across resume points
	// and worker counts.
	DopplerSegments []DopplerSegment
}

// Block is one real-time generation block of M consecutive time samples for
// each of the N envelopes.
type Block struct {
	// Gaussian[j][l] is z_j at discrete time l.
	Gaussian [][]complex128
	// Envelopes[j][l] is r_j = |z_j| at discrete time l.
	Envelopes [][]float64
	// SampleVariance is the σ²_g used in the whitening step: the Eq. (19)
	// value of the block's Doppler segment, or 1 when AssumeUnitVariance was
	// set.
	SampleVariance float64
}

// NewBlock returns a Block with n×m storage carved out of two flat backing
// arrays (one allocation per field instead of one per row). Blocks shaped
// this way are what the Into generation paths reuse allocation-free.
func NewBlock(n, m int) *Block {
	gflat := make([]complex128, n*m)
	eflat := make([]float64, n*m)
	b := &Block{
		Gaussian:  make([][]complex128, n),
		Envelopes: make([][]float64, n),
	}
	for j := 0; j < n; j++ {
		b.Gaussian[j] = gflat[j*m : (j+1)*m : (j+1)*m]
		b.Envelopes[j] = eflat[j*m : (j+1)*m : (j+1)*m]
	}
	return b
}

// ensureShape makes the block hold n rows of m samples, reusing existing row
// storage when the lengths already match.
func (b *Block) ensureShape(n, m int) {
	if len(b.Gaussian) != n || len(b.Envelopes) != n {
		nb := NewBlock(n, m)
		b.Gaussian, b.Envelopes = nb.Gaussian, nb.Envelopes
		return
	}
	for j := 0; j < n; j++ {
		if len(b.Gaussian[j]) != m {
			b.Gaussian[j] = make([]complex128, m)
		}
		if len(b.Envelopes[j]) != m {
			b.Envelopes[j] = make([]float64, m)
		}
	}
}

// rtSegment is one leg of the (possibly trivial) Doppler trajectory: the
// block range it covers, its Doppler generator, and the coloring matrix
// rescaled to its Eq. (19) output variance. All N envelopes share one filter
// design, so one generator serves every row: BlockInto reads only
// construction-time state (plus, for Bluestein M, plan scratch that the
// rows use one after another). A stationary generator has exactly one
// segment starting at block 0.
type rtSegment struct {
	start    uint64 // first block index covered
	spec     doppler.FilterSpec
	gen      *doppler.Generator
	coloring *cmplxmat.Matrix // L/σ_g of this segment
	sigmaG2  float64
}

// BlockScratch is the per-worker workspace of block generation: the N×M
// input and output panels of the coloring GEMM, the worker's Doppler
// generator for each trajectory segment, and a reusable set of per-envelope
// RNGs reseeded for every block. For power-of-two M the generators are the
// segments' own (read-only after construction, so concurrent BlockInto calls
// are safe); for other lengths each worker gets a private copy because the
// Bluestein IDFT plan owns convolution scratch.
type BlockScratch struct {
	w, z    *cmplxmat.Matrix
	segGens []*doppler.Generator // indexed like RealTimeGenerator.segments
	root    *randx.RNG
	rngs    []*randx.RNG
}

// RealTimeGenerator implements the combined algorithm of Section 5. Block k
// of its sequence is a pure function of the configuration and k, filled by
// GenerateBlockAt: each block draws the N Doppler processes into the rows of
// an N×M panel and colors all M time instants with a single cache-blocked
// matrix-matrix product. The generator holds only construction-time state;
// all sampling state lives in caller-owned BlockScratch values, so one
// generator may serve any number of goroutines.
type RealTimeGenerator struct {
	forced   *ForcedPSD
	segments []rtSegment
	// batchRoot is the frozen root of the per-block stream sets: block i
	// draws from batchRoot.SplitAt(i). It is never advanced.
	batchRoot *randx.RNG
	n         int
	m         int
	inputVar  float64
	transform Transform
}

// NewRealTimeGenerator validates the configuration and builds the Doppler
// generator of each trajectory segment plus the coloring pipeline. The
// critical difference from the method in [6] is step 6: the sample variance
// handed to the coloring step is the Doppler-filter output variance of
// Eq. (19), not an assumed constant.
func NewRealTimeGenerator(cfg RealTimeConfig) (*RealTimeGenerator, error) {
	if cfg.Covariance == nil {
		return nil, fmt.Errorf("core: nil covariance matrix: %w", ErrBadInput)
	}
	n := cfg.Covariance.Rows()
	inputVar := cfg.InputVariance
	if inputVar == 0 {
		inputVar = 0.5
	}
	if inputVar < 0 {
		return nil, fmt.Errorf("core: negative Doppler input variance %g: %w", inputVar, ErrBadInput)
	}

	// Resolve the Doppler trajectory: one stationary segment from Filter, or
	// one segment per DopplerSegments entry (Filter then contributes only M).
	segments := []rtSegment{{spec: cfg.Filter}}
	if len(cfg.DopplerSegments) > 0 {
		if cfg.Filter.NormalizedDoppler != 0 {
			return nil, fmt.Errorf("core: both Filter.NormalizedDoppler and DopplerSegments set: %w", ErrBadInput)
		}
		segments = make([]rtSegment, len(cfg.DopplerSegments))
		var start uint64
		for i, seg := range cfg.DopplerSegments {
			if seg.Blocks <= 0 {
				return nil, fmt.Errorf("core: Doppler segment %d needs blocks > 0, got %d: %w", i, seg.Blocks, ErrBadInput)
			}
			segments[i] = rtSegment{start: start, spec: doppler.FilterSpec{M: cfg.Filter.M, NormalizedDoppler: seg.NormalizedDoppler}}
			start += uint64(seg.Blocks)
		}
	}
	for i := range segments {
		gen, err := doppler.NewGenerator(segments[i].spec, inputVar)
		if err != nil {
			return nil, fmt.Errorf("core: Doppler segment %d generator: %w", i, err)
		}
		segments[i].gen = gen
		// Step 6 of the combined algorithm: σ²_g from Eq. (19), identical
		// for every envelope because they share one filter and input
		// variance.
		segments[i].sigmaG2 = gen.OutputVariance()
		if cfg.AssumeUnitVariance {
			segments[i].sigmaG2 = 1
		}
	}

	l, forced, err := resolveColoring(cfg.Covariance, cfg.Coloring)
	if err != nil {
		return nil, err
	}
	for i := range segments {
		if segments[i].coloring, err = ScaleColoring(l, segments[i].sigmaG2); err != nil {
			return nil, err
		}
	}

	// The stream layout, pinned by the golden hashes and every served
	// byte: the first N splits of the seed's root are skipped, the next one
	// is the frozen batch root. Doppler generator construction consumes no
	// randomness.
	return &RealTimeGenerator{
		forced:    forced,
		segments:  segments,
		batchRoot: randx.New(cfg.Seed).SplitAt(uint64(n)),
		n:         n,
		m:         cfg.Filter.M,
		inputVar:  inputVar,
		transform: cfg.Transform,
	}, nil
}

// N returns the number of envelopes.
func (g *RealTimeGenerator) N() int { return g.n }

// BlockLength returns the number of time samples per block (the IDFT length).
func (g *RealTimeGenerator) BlockLength() int { return g.m }

// SampleVariance returns the σ²_g used in the whitening step (of the first
// trajectory segment when the Doppler is nonstationary).
func (g *RealTimeGenerator) SampleVariance() float64 { return g.segments[0].sigmaG2 }

// Diagnostics returns the positive semi-definiteness forcing record.
func (g *RealTimeGenerator) Diagnostics() *ForcedPSD { return g.forced }

// segmentIndexAt returns the index of the trajectory segment covering the
// given block; the final segment persists past the trajectory end.
func (g *RealTimeGenerator) segmentIndexAt(block uint64) int {
	for i := len(g.segments) - 1; i > 0; i-- {
		if block >= g.segments[i].start {
			return i
		}
	}
	return 0
}

// TheoreticalAutocorrelation returns the designed per-envelope normalized
// autocorrelation at the given lag, J0(2π·fm·d), for the first trajectory
// segment. TheoreticalAutocorrelationAt resolves the segment by block index.
func (g *RealTimeGenerator) TheoreticalAutocorrelation(lag int) float64 {
	return doppler.TheoreticalAutocorrelation(g.segments[0].spec.NormalizedDoppler, lag)
}

// TheoreticalAutocorrelationAt returns the designed normalized
// autocorrelation at the given lag for the Doppler segment covering the
// given block index.
func (g *RealTimeGenerator) TheoreticalAutocorrelationAt(block uint64, lag int) float64 {
	return doppler.TheoreticalAutocorrelation(g.segments[g.segmentIndexAt(block)].spec.NormalizedDoppler, lag)
}

// NewBlockScratch builds a worker workspace for GenerateBlockAt.
func (g *RealTimeGenerator) NewBlockScratch() (*BlockScratch, error) {
	segGens := make([]*doppler.Generator, len(g.segments))
	for si := range g.segments {
		if g.m&(g.m-1) == 0 {
			segGens[si] = g.segments[si].gen
			continue
		}
		// Non-power-of-two M: the Bluestein scratch inside the generator's
		// IDFT plan is not safe to share across workers.
		dg, err := doppler.NewGenerator(g.segments[si].spec, g.inputVar)
		if err != nil {
			return nil, fmt.Errorf("core: Doppler segment %d generator: %w", si, err)
		}
		segGens[si] = dg
	}
	rngs := make([]*randx.RNG, g.n)
	for j := range rngs {
		rngs[j] = randx.New(0)
	}
	return &BlockScratch{
		w:       cmplxmat.New(g.n, g.m),
		z:       cmplxmat.New(g.n, g.m),
		segGens: segGens,
		root:    randx.New(0),
		rngs:    rngs,
	}, nil
}

// GenerateBlockAt generates block index of the deterministic block sequence
// into b using the caller-owned scratch s, reusing b's storage when it
// already has the right shape (rows of wrong length are reallocated). It is
// the only way a block is filled: the fan-outs below call it per block, so
// the values at position index never depend on call order, batch sizes or
// worker counts. Random access is what makes streams resumable — serving
// block k to a resuming client is bit-identical to having streamed from 0.
// The block's Doppler segment and fading-transform offset are derived from
// index, so the contract holds for every model of the zoo, including
// nonstationary trajectories.
//
// Each of the N Doppler generators emits M time samples into one row of the
// scratch panel, the whole N×M panel is colored by L/σ_g in a single
// matrix-matrix product (steps 7–8 of the combined algorithm, batched over
// the block), and one fused pass stores the colored samples and their
// envelopes. With a fading transform configured, the pass instead copies
// each row and hands it to the transform, which rewrites samples and
// envelopes in place.
//
// The call reads only construction-time generator state, so concurrent
// GenerateBlockAt calls with distinct b and s are safe (any M; non-power-of-
// two scratches carry private Doppler generators). With a pre-shaped b and
// power-of-two M it performs no heap allocation: the scratch's RNG set is
// reseeded in place from the O(1) split derivation.
//
// fadinglint:allocfree
func (g *RealTimeGenerator) GenerateBlockAt(index uint64, b *Block, s *BlockScratch) error {
	if b == nil {
		return fmt.Errorf("core: nil destination block: %w", ErrBadInput)
	}
	if s == nil {
		return fmt.Errorf("core: nil block scratch: %w", ErrBadInput)
	}
	s.root.Reseed(g.batchRoot.SplitSeedAt(index))
	for _, r := range s.rngs {
		r.Reseed(s.root.SplitSeed())
	}
	b.ensureShape(g.n, g.m)
	si := g.segmentIndexAt(index)
	seg := &g.segments[si]
	for j, r := range s.rngs {
		// Row length equals the generator's M by construction.
		_ = s.segGens[si].BlockInto(r, s.w.RowView(j))
	}
	// Dimensions are fixed at construction, so ColorBlock cannot fail.
	_ = cmplxmat.ColorBlock(seg.coloring, s.w, s.z)
	offset := index * uint64(g.m)
	for j := 0; j < g.n; j++ {
		zr := s.z.RowView(j)
		gj := b.Gaussian[j]
		ej := b.Envelopes[j]
		if g.transform != nil {
			copy(gj, zr)
			g.transform.Apply(j, offset, gj, ej)
			continue
		}
		for l, v := range zr {
			gj[l] = v
			ej[l] = envAbs(v)
		}
	}
	b.SampleVariance = seg.sigmaG2
	return nil
}

// GenerateBlocksAt fills dst[i] with block start+i, fanning the blocks
// across one worker per scratch (never more workers than blocks). Every
// block goes through GenerateBlockAt, so the output is bit-identical for
// every worker count and equals the blocks GenerateBlockAt produces one at
// a time. Entries of dst and scratches must be non-nil; block storage is
// reused when already shaped. With one scratch (or one block), pre-shaped
// blocks and power-of-two M the call performs no heap allocation.
//
// fadinglint:allocfree
func (g *RealTimeGenerator) GenerateBlocksAt(start uint64, dst []*Block, scratches []*BlockScratch) error {
	if len(dst) == 0 {
		return fmt.Errorf("core: empty block destination: %w", ErrBadInput)
	}
	if len(scratches) == 0 {
		return fmt.Errorf("core: no block scratch: %w", ErrBadInput)
	}
	for i, b := range dst {
		if b == nil {
			return fmt.Errorf("core: nil destination block %d: %w", i, ErrBadInput)
		}
	}
	workers := min(len(scratches), len(dst))
	for _, s := range scratches[:workers] {
		if s == nil {
			return fmt.Errorf("core: nil block scratch: %w", ErrBadInput)
		}
	}
	if workers == 1 {
		for i, b := range dst {
			// Neither b nor the scratch is nil, so GenerateBlockAt cannot fail.
			_ = g.GenerateBlockAt(start+uint64(i), b, scratches[0])
		}
		return nil
	}
	var wg sync.WaitGroup
	var next atomic.Int64
	next.Store(-1)
	wg.Add(workers)
	for _, s := range scratches[:workers] {
		//lint:allow allocfree the multi-worker fan-out spawns goroutines; the zero-alloc contract covers one worker
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i >= int64(len(dst)) {
					return
				}
				_ = g.GenerateBlockAt(start+uint64(i), dst[i], s)
			}
		}()
	}
	wg.Wait()
	return nil
}

// GenerateBlocksInto fills dst with blocks 0..len(dst)-1 of the sequence,
// fanned across workers freshly built scratches (values <= 1 select one):
// the from-construction prefix a one-shot caller wants. Streaming callers
// that continue the sequence keep their scratches and call GenerateBlocksAt.
func (g *RealTimeGenerator) GenerateBlocksInto(dst []*Block, workers int) error {
	scratches := make([]*BlockScratch, max(1, min(workers, len(dst))))
	for i := range scratches {
		s, err := g.NewBlockScratch()
		if err != nil {
			return err
		}
		scratches[i] = s
	}
	return g.GenerateBlocksAt(0, dst, scratches)
}
