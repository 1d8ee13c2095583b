package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"time"

	rayleigh "repro"
	"repro/internal/chanspec"
	"repro/internal/cmplxmat"
	"repro/internal/core"
	"repro/internal/doppler"
	"repro/internal/dsp"
	"repro/internal/fading"
	"repro/internal/randx"
	"repro/internal/service"
	"repro/internal/token"
)

// layerAcc accumulates the time and work of each layer call the replay
// makes.
type layerAcc struct {
	dur   map[string]time.Duration
	calls map[string]int
	work  map[string]float64 // draws, samples or flops, per layer
	// stages is the time of the calls that are stages of a block, as
	// opposed to probes timed beside it.
	stages time.Duration
}

func newLayerAcc() *layerAcc {
	return &layerAcc{dur: map[string]time.Duration{}, calls: map[string]int{}, work: map[string]float64{}}
}

func (a *layerAcc) add(name string, d time.Duration, work float64) {
	a.dur[name] += d
	a.calls[name]++
	a.work[name] += work
}

// stage records a call that is a stage of the replayed block.
func (a *layerAcc) stage(name string, d time.Duration, work float64) {
	a.add(name, d, work)
	a.stages += d
}

// perCall returns the mean time of one call of the layer in unit.
func (a *layerAcc) perCall(name string, unit time.Duration) float64 {
	return float64(a.dur[name]) / float64(a.calls[name]) / float64(unit)
}

// perWork returns the layer's nanoseconds per unit of work.
func (a *layerAcc) perWork(name string) float64 {
	return float64(a.dur[name]) / a.work[name]
}

// probeFading are the fading transforms the replay times on workloads whose
// own sessions are Rayleigh: the parameters of stream-models-bin.
var probeFading = map[string]*chanspec.FadingParams{
	chanspec.FadingRician:    {KFactor: 4},
	chanspec.FadingNakagamiM: {M: 2.5},
	chanspec.FadingSuzuki:    {ShadowSigmaDB: 6, ShadowCoherence: 64},
}

// setupReps is how many times the replay repeats each spec's set-up calls.
const setupReps = 3

// replaySpec replays one session spec through the public calls of each
// layer: the set-up chain (chanspec → core.ForcePSD → rayleigh.NewStream),
// token signing, and then, for each of the given blocks, the block twice —
// once whole through rayleigh.Cursor.BlockAt, once stage by stage through
// randx, doppler, cmplxmat and fading in the order core runs them. The
// staged block must equal the whole one bit for bit. Probes that are not
// stages of the block (the Gaussian fill, the IDFT, the frame encoder and
// off-path fading transforms) are timed beside it.
func replaySpec(acc *layerAcc, spec *service.SessionSpec, blocks []uint64, kr *token.Keyring) error {
	var (
		k      *cmplxmat.Matrix
		forced *core.ForcedPSD
		stream *rayleigh.Stream
		err    error
	)
	m := spec.IDFTPoints
	fm := spec.NormalizedDoppler
	for range setupReps {
		t := time.Now()
		if k, err = spec.Model.Build(); err != nil {
			return err
		}
		acc.add("chanspec.build", time.Since(t), 1)
		t = time.Now()
		if forced, err = core.ForcePSD(k); err != nil {
			return err
		}
		acc.add("core.force_psd", time.Since(t), 1)
		rows := make([][]complex128, k.Rows())
		for i := range rows {
			rows[i] = k.Row(i)
		}
		cfg := rayleigh.RealTimeConfig{Covariance: rows, IDFTPoints: m, NormalizedDoppler: fm,
			InputVariance: spec.InputVariance, Seed: spec.Seed, Method: spec.Method, Fading: spec.Model.Fading}
		if p := spec.Model.Params; p != nil {
			cfg.FadingParams = &rayleigh.FadingParams{KFactor: p.KFactor, LOSPhaseRad: p.LOSPhaseRad, M: p.M,
				ShadowSigmaDB: p.ShadowSigmaDB, ShadowCoherence: p.ShadowCoherence}
		}
		t = time.Now()
		if stream, err = rayleigh.NewStream(cfg); err != nil {
			return err
		}
		acc.add("core.setup", time.Since(t), 1)
		if err := replayToken(acc, spec, kr); err != nil {
			return err
		}
	}

	n := k.Rows()
	inputVar := spec.InputVariance
	if inputVar == 0 {
		inputVar = 0.5
	}
	fspec := doppler.FilterSpec{M: m, NormalizedDoppler: fm}
	gen, err := doppler.NewGenerator(fspec, inputVar)
	if err != nil {
		return err
	}
	lc, err := core.ScaleColoring(core.ColoringMatrix(forced), gen.OutputVariance())
	if err != nil {
		return err
	}
	powers := make([]float64, n)
	for j := range powers {
		powers[j] = real(k.At(j, j))
	}
	own, err := fading.New(spec.Model.Fading, spec.Model.Params, powers, spec.Seed)
	if err != nil {
		return err
	}
	ownName := "fading." + chanspec.NormalizeFading(spec.Model.Fading)
	probes := map[string]fading.Transform{}
	if own == nil {
		for name, params := range probeFading {
			if probes["fading."+name], err = fading.New(name, params, powers, spec.Seed); err != nil {
				return err
			}
		}
	}
	// The stream's random layout: N envelope splits, then the frozen root
	// of the per-block stream sets.
	root := randx.New(spec.Seed)
	for range n {
		root.Split()
	}
	batchRoot := root.Split()
	blockRoot := randx.New(0)
	rngs := make([]*randx.RNG, n)
	for j := range rngs {
		rngs[j] = randx.New(0)
	}

	cur, err := stream.NewCursor()
	if err != nil {
		return err
	}
	var whole rayleigh.Block
	staged := core.NewBlock(n, m)
	w, z := cmplxmat.New(n, m), cmplxmat.New(n, m)
	plan := dsp.NewPlan(m)
	ifftBuf := make([]complex128, m)
	draws := make([]float64, 2*(2*fspec.KM()+1))
	probeZ := make([]complex128, m)
	probeR := make([]float64, m)
	var frame bytes.Buffer
	var enc service.FrameEncoder
	colorFlops := 8 * float64(n*n*m)
	if isReal(lc) {
		colorFlops = 4 * float64(n*n*m)
	}
	acc.work["doppler.inband_bins"] += float64(2*fspec.KM() + 1)
	acc.work["doppler.bins"] += float64(m)

	// The first pass over blocks[0] is untimed: it shapes the destination
	// blocks and faults in every buffer, as a server's reused blocks are.
	for bi, idx := range append([]uint64{blocks[0]}, blocks...) {
		a := acc
		if bi == 0 {
			a = newLayerAcc()
		}
		// Alternate which of the two passes runs first, so neither always
		// finds the caches the other warmed.
		if bi%2 == 0 {
			if err := timeWhole(a, cur, idx, &whole); err != nil {
				return err
			}
		}
		t := time.Now()
		blockRoot.Reseed(batchRoot.SplitSeedAt(idx))
		for _, r := range rngs {
			r.Reseed(blockRoot.SplitSeed())
		}
		a.stage("randx.reseed", time.Since(t), float64(n))
		for j := range n {
			t = time.Now()
			if err := gen.BlockInto(rngs[j], w.RowView(j)); err != nil {
				return err
			}
			a.stage("doppler.block", time.Since(t), 1)
		}
		t = time.Now()
		if err := cmplxmat.ColorBlock(lc, w, z); err != nil {
			return err
		}
		a.stage("cmplxmat.color", time.Since(t), colorFlops)
		offset := idx * uint64(m)
		for j := range n {
			zr, gj, ej := z.RowView(j), staged.Gaussian[j], staged.Envelopes[j]
			t = time.Now()
			if own != nil {
				copy(gj, zr)
				own.Apply(j, offset, gj, ej)
				a.stage(ownName, time.Since(t), float64(m))
				continue
			}
			envelopes(gj, ej, zr)
			a.stage("core.envelope", time.Since(t), float64(m))
		}
		if bi%2 == 1 {
			if err := timeWhole(a, cur, idx, &whole); err != nil {
				return err
			}
		}
		if !sameBlock(staged, &whole) {
			return fmt.Errorf("replay: staged block %d of seed %d differs from rayleigh.Cursor.BlockAt", idx, spec.Seed)
		}

		// Probes beside the block.
		fill := randx.New(int64(idx))
		t = time.Now()
		fill.FillNormal(draws, inputVar)
		a.add("randx.fill", time.Since(t), float64(len(draws)))
		copy(ifftBuf, w.RowView(0))
		t = time.Now()
		plan.InverseScaled(ifftBuf)
		a.add("dsp.ifft", time.Since(t), 1)
		frame.Reset()
		t = time.Now()
		if _, err := enc.Encode(&frame, idx, &whole, false); err != nil {
			return err
		}
		a.add("service.encode_bin", time.Since(t), 1)
		if own != nil {
			for j := range n {
				t = time.Now()
				envelopes(probeZ, probeR, z.RowView(j))
				a.add("core.envelope", time.Since(t), float64(m))
			}
		}
		for name, tr := range probes {
			for j := range n {
				copy(probeZ, z.RowView(j))
				t = time.Now()
				tr.Apply(j, offset, probeZ, probeR)
				a.add(name, time.Since(t), float64(m))
			}
		}
	}
	return nil
}

// timeWhole generates block idx through the public stream API and times it.
func timeWhole(acc *layerAcc, cur *rayleigh.Cursor, idx uint64, b *rayleigh.Block) error {
	t := time.Now()
	if err := cur.BlockAt(idx, b); err != nil {
		return err
	}
	acc.add("core.block", time.Since(t), 1)
	return nil
}

// envelopes is core's fused store-and-envelope pass for a Rayleigh row,
// which has no public entry point: it copies the colored samples z to g and
// writes their magnitudes to r.
func envelopes(g []complex128, r []float64, z []complex128) {
	for l, v := range z {
		g[l] = v
		r[l] = math.Sqrt(real(v)*real(v) + imag(v)*imag(v))
	}
}

// replayToken signs and verifies the session's resume token as a replica
// does for a create and a token resume.
func replayToken(acc *layerAcc, spec *service.SessionSpec, kr *token.Keyring) error {
	body, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	tok := &token.Token{ID: "replay", SpecHash: sha256.Sum256(body), Spec: body, Seed: spec.Seed,
		Blocks: uint64(spec.Blocks), Expiry: time.Now().Add(time.Hour).Unix()}
	t := time.Now()
	s, err := kr.Sign(tok)
	if err != nil {
		return err
	}
	acc.add("token.sign", time.Since(t), 1)
	t = time.Now()
	if _, err := kr.Verify(s, time.Now()); err != nil {
		return err
	}
	acc.add("token.verify", time.Since(t), 1)
	return nil
}

// isReal reports whether every entry of m is real (ColorBlock then runs its
// two-multiply kernel).
func isReal(m *cmplxmat.Matrix) bool {
	for _, v := range m.Data() {
		if imag(v) != 0 {
			return false
		}
	}
	return true
}

// sameBlock reports whether two blocks hold bit-identical samples.
func sameBlock(a *core.Block, b *rayleigh.Block) bool {
	if len(a.Gaussian) != len(b.Gaussian) {
		return false
	}
	for j := range a.Gaussian {
		for l, v := range a.Gaussian[j] {
			w := b.Gaussian[j][l]
			if math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(imag(v)) != math.Float64bits(imag(w)) ||
				math.Float64bits(a.Envelopes[j][l]) != math.Float64bits(b.Envelopes[j][l]) {
				return false
			}
		}
	}
	return true
}
