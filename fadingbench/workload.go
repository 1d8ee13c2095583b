package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"repro/internal/chanspec"
	"repro/internal/service"
)

// Workload names, as passed to -workload.
const (
	wlN16Bin    = "stream-n16-bin"
	wlN3NDJSON  = "stream-n3-ndjson"
	wlModelsBin = "stream-models-bin"
	wlChurn     = "session-churn"
)

var workloadNames = []string{wlN16Bin, wlN3NDJSON, wlModelsBin, wlChurn}

// clients is the number of client connections every workload drives (the
// closed-loop clients, or the open-loop connection workers).
const clients = 2

// churnRate is the session-churn arrival rate in operations per second:
// about half the ~190 operations/s fadingd sustained on this workload on a
// 2-vCPU Intel Xeon VM when the rate was chosen, so the loop runs loaded
// but without a growing backlog.
const churnRate = 95

// churnBlocks is how many blocks each session-churn operation streams.
const churnBlocks = 2

// plan is one workload's generated input: everything a run sends to the
// servers, derived from the workload seed alone.
type plan struct {
	name   string
	format string // service.FormatBinary or service.FormatNDJSON
	// count is the block count of each stream request.
	count int
	// specs are the stream workloads' long sessions, or session-churn's hot
	// set.
	specs []*service.SessionSpec
	// routes[c] lists the sessions client c cycles over, and starts[c] the
	// block each of them starts at (stream workloads).
	routes [][]int
	starts [][]uint64
	seed   int64
}

// newRNG returns the generator every choice of the workload draws from:
// a pure function of the workload seed and a stream label.
func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// newPlan generates the named workload's sessions from the seed.
func newPlan(name string, seed int64) (*plan, error) {
	rng := newRNG(seed, 1)
	p := &plan{name: name, format: service.FormatBinary, seed: seed}
	switch name {
	case wlN16Bin:
		p.count = 8
		for range clients {
			p.specs = append(p.specs, &service.SessionSpec{
				Model:      chanspec.Model{Type: chanspec.ModelExponential, N: 16, Rho: 0.7},
				Seed:       rng.Int64(),
				Blocks:     128,
				IDFTPoints: 4096, NormalizedDoppler: 0.05,
			})
		}
		for c := range clients {
			p.routes = append(p.routes, []int{c})
		}
	case wlN3NDJSON:
		p.format = service.FormatNDJSON
		p.count = 64
		for range clients {
			p.specs = append(p.specs, &service.SessionSpec{
				Model:      chanspec.Model{Type: chanspec.ModelEq22},
				Seed:       rng.Int64(),
				Blocks:     256,
				IDFTPoints: 1024, NormalizedDoppler: 0.05,
			})
		}
		for c := range clients {
			p.routes = append(p.routes, []int{c})
		}
	case wlModelsBin:
		p.count = 16
		params := []struct {
			fading string
			params *chanspec.FadingParams
		}{
			{chanspec.FadingRician, &chanspec.FadingParams{KFactor: 4}},
			{chanspec.FadingNakagamiM, &chanspec.FadingParams{M: 2.5}},
			{chanspec.FadingSuzuki, &chanspec.FadingParams{ShadowSigmaDB: 6, ShadowCoherence: 64}},
		}
		for _, fp := range params {
			p.specs = append(p.specs, &service.SessionSpec{
				Model:      chanspec.Model{Type: chanspec.ModelEq22, Fading: fp.fading, Params: fp.params},
				Seed:       rng.Int64(),
				Blocks:     256,
				IDFTPoints: 1024, NormalizedDoppler: 0.05,
			})
		}
		for c := range clients {
			route := make([]int, len(p.specs))
			for i := range route {
				route[i] = (c + i) % len(p.specs)
			}
			p.routes = append(p.routes, route)
		}
	case wlChurn:
		p.count = churnBlocks
		p.specs = freshSpecs(rng, 8)
		return p, nil
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	for _, route := range p.routes {
		starts := make([]uint64, len(route))
		for i, s := range route {
			blocks := uint64(p.specs[s].Blocks)
			starts[i] = rng.Uint64N(blocks/uint64(p.count)) * uint64(p.count)
		}
		p.starts = append(p.starts, starts)
	}
	return p, nil
}

// deck deals 0..n-1 in seeded random order, reshuffled after every full
// pass, so any n consecutive deals hold each value once. It keeps a run's
// mix of operations and specs the same whatever the seed.
type deck struct {
	rng  *rand.Rand
	n    int
	perm []int
}

func newDeck(rng *rand.Rand, n int) *deck { return &deck{rng: rng, n: n} }

func (d *deck) deal() int {
	if len(d.perm) == 0 {
		d.perm = d.rng.Perm(d.n)
	}
	v := d.perm[0]
	d.perm = d.perm[1:]
	return v
}

// churnKinds is the number of session-churn spec kinds: three models times
// N ∈ {8, 16, 32}.
const churnKinds = 9

// churnSpec draws one session-churn channel of the given kind: an
// exponential, spatial or constant model with N ∈ {8, 16, 32}, M = 1024 and
// a fresh seed, so its setup misses the cache unless the spec is reused.
// Each kind's model parameters are fixed, so a spec's setup cost does not
// depend on the seed.
func churnSpec(rng *rand.Rand, kind int) *service.SessionSpec {
	m := []chanspec.Model{
		{Type: chanspec.ModelExponential, Rho: 0.7},
		{Type: chanspec.ModelSpatial, SpacingWavelengths: 1, AngularSpreadRad: 0.3, MeanAngleRad: math.Pi / 4},
		{Type: chanspec.ModelConstant, Rho: 0.5},
	}[kind/3]
	m.N = []int{8, 16, 32}[kind%3]
	return &service.SessionSpec{Model: m, Seed: rng.Int64(), Blocks: churnBlocks,
		IDFTPoints: 1024, NormalizedDoppler: 0.05}
}

// freshSpecs draws count fresh session-churn specs of kinds 0, 1, 2, …
func freshSpecs(rng *rand.Rand, count int) []*service.SessionSpec {
	specs := make([]*service.SessionSpec, count)
	for i := range specs {
		specs[i] = churnSpec(rng, i%churnKinds)
	}
	return specs
}

// churnOp is one scheduled session-churn operation: create a session,
// stream its blocks (through the second replica when resume is set) and
// delete it.
type churnOp struct {
	at     time.Duration // due time from the start of the window
	spec   *service.SessionSpec
	key    int  // the spec's identity for verification: hot-set index, or unique per fresh spec
	resume bool // stream through the Bearer token on the second replica
}

// churnSchedule draws the arrivals of one timed window: rate×d operations
// at uniformly random times (a Poisson process given its count). Every 8
// consecutive operations hold 4 on the hot set and 4 on fresh specs, and
// one of each 4 resumes through the token; fresh specs cycle over the kinds
// the same way. phase separates the windows of one run.
func churnSchedule(p *plan, phase uint64, rate float64, d time.Duration) []churnOp {
	rng := newRNG(p.seed, 2+phase)
	ops := make([]churnOp, int(math.Round(rate*d.Seconds())))
	ats := make([]time.Duration, len(ops))
	for i := range ats {
		ats[i] = time.Duration(rng.Int64N(int64(d)))
	}
	slices.Sort(ats)
	slots, hot, kinds := newDeck(rng, 8), newDeck(rng, len(p.specs)), newDeck(rng, churnKinds)
	for i := range ops {
		slot := slots.deal()
		op := churnOp{at: ats[i], resume: slot%4 == 0}
		if slot < 4 {
			op.key = hot.deal()
			op.spec = p.specs[op.key]
		} else {
			op.key = len(p.specs) + int(phase)<<20 + i
			op.spec = churnSpec(rng, kinds.deal())
		}
		ops[i] = op
	}
	return ops
}
