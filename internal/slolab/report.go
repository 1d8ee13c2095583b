package slolab

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// GateResult is one gate's verdict with the arithmetic that produced it.
type GateResult struct {
	Type   string `json:"type"`
	Phase  string `json:"phase"`
	Metric string `json:"metric,omitempty"`
	Passed bool   `json:"passed"`
	// Skipped marks a gate that could not be evaluated (no samples in the
	// phase, alloc gate against a remote server); a skipped gate does not
	// fail the scenario and Reason says why.
	Skipped bool        `json:"skipped,omitempty"`
	Reason  string      `json:"reason,omitempty"`
	Checks  []GateCheck `json:"checks,omitempty"`
}

// GateCheck is one measured-vs-bound comparison inside a gate.
type GateCheck struct {
	Name     string  `json:"name"`
	Measured float64 `json:"measured"`
	Bound    float64 `json:"bound"`
	// Op is the comparison that must hold: "<=" or ">=".
	Op     string `json:"op"`
	Passed bool   `json:"passed"`
}

// check appends one comparison and returns whether it held.
func (g *GateResult) check(name string, measured, bound float64, op string) bool {
	ok := false
	switch op {
	case "<=":
		ok = measured <= bound
	case ">=":
		ok = measured >= bound
	}
	g.Checks = append(g.Checks, GateCheck{Name: name, Measured: measured, Bound: bound, Op: op, Passed: ok})
	return ok
}

// skip marks the gate unevaluable.
func (g *GateResult) skip(reason string) {
	g.Skipped = true
	g.Passed = true
	g.Reason = reason
}

// Evaluate runs every gate of the spec against the summary, filling
// sum.Gates and sum.Passed. Gates are independent: all are evaluated, and
// the scenario passes only if none failed.
func Evaluate(spec *Spec, sum *Summary) {
	sum.Gates = sum.Gates[:0]
	sum.Passed = true
	for i := range spec.Gates {
		res := evalGate(&spec.Gates[i], sum)
		if !res.Passed {
			sum.Passed = false
		}
		sum.Gates = append(sum.Gates, res)
	}
}

func evalGate(g *GateSpec, sum *Summary) GateResult {
	switch g.Type {
	case GateScaling:
		return evalScalingGate(g, sum)
	case GateCacheSpeedup:
		return evalCacheSpeedupGate(g, sum)
	}
	phase := g.Phase
	if phase == "" {
		phase = PhaseInject
	}
	res := GateResult{Type: g.Type, Phase: phase, Metric: g.Metric}
	pm := sum.Phases[phase]
	if pm == nil {
		res.skip("phase not recorded")
		return res
	}
	res.Passed = true
	switch g.Type {
	case GateLatency:
		lat := pm.BlockLatency
		if g.Metric == "create" {
			lat = pm.CreateLatency
		}
		if lat.Count == 0 {
			res.skip("no latency samples in phase")
			return res
		}
		if g.P50Ms > 0 && !res.check("p50_ms", lat.P50Ms, g.P50Ms, "<=") {
			res.Passed = false
		}
		if g.P95Ms > 0 && !res.check("p95_ms", lat.P95Ms, g.P95Ms, "<=") {
			res.Passed = false
		}
		if g.P99Ms > 0 && !res.check("p99_ms", lat.P99Ms, g.P99Ms, "<=") {
			res.Passed = false
		}
	case GateErrorRate:
		ops := pm.Requests + pm.Creates + pm.Deletes
		if ops == 0 {
			res.skip("no operations in phase")
			return res
		}
		res.Passed = res.check("error_rate", float64(pm.Errors)/float64(ops), g.MaxRate, "<=")
	case GateTruncatedRate:
		// Server-side truncations only: client-injected kill_resume cuts are
		// the fault, not the defect, and are gated via resumes/byte_identity.
		if pm.Requests == 0 {
			res.skip("no stream requests in phase")
			return res
		}
		res.Passed = res.check("truncated_rate", float64(pm.Truncations)/float64(pm.Requests), g.MaxRate, "<=")
	case GateThroughput:
		if pm.Seconds <= 0 {
			res.skip("phase recorded no wall time")
			return res
		}
		res.Passed = res.check("blocks_per_sec", pm.BlocksPerSec, g.MinBlocksPerSec, ">=")
	case GateAllocBudget:
		if !sum.Provenance.InProcess {
			res.skip("alloc accounting needs an in-process server")
			return res
		}
		if pm.Blocks == 0 {
			res.skip("no blocks served in phase")
			return res
		}
		res.Passed = res.check("alloc_bytes_per_block", pm.AllocBytesPerBlock, g.MaxBytesPerBlock, "<=")
	case GateByteIdentity:
		if sum.Identity == nil {
			res.skip("no identity report (fault did not run)")
			return res
		}
		res.Passed = res.check("matched_clients", float64(sum.Identity.Matched), float64(sum.Identity.Clients), ">=")
	case GateResumes:
		res.Passed = res.check("resumes", float64(pm.Resumes), float64(g.MinResumes), ">=")
	case GateRetryAfter:
		if !res.check("rejections", float64(pm.Rejections), float64(g.MinRejections), ">=") {
			res.Passed = false
		}
		coverage := 0.0
		if pm.Rejections > 0 {
			coverage = float64(pm.RetryAfterSeen) / float64(pm.Rejections)
		}
		min := g.MinCoverage
		if min == 0 {
			min = 1
		}
		if !res.check("retry_after_coverage", coverage, min, ">=") {
			res.Passed = false
		}
	}
	return res
}

// evalScalingGate reads the scaling sweep's report instead of a phase: the
// speedup at the selected replica count (the largest measured when the gate
// names none) must clear min_speedup. A point with zero token rebuilds at
// more than one replica also fails — it means the sweep never exercised the
// stateless token path and the speedup is vacuous.
func evalScalingGate(g *GateSpec, sum *Summary) GateResult {
	res := GateResult{Type: g.Type}
	if sum.Scaling == nil || len(sum.Scaling.Points) == 0 {
		res.Phase = g.Phase
		res.skip("no scaling report (sweep did not run)")
		return res
	}
	point := &sum.Scaling.Points[len(sum.Scaling.Points)-1]
	if g.Replicas != 0 {
		point = nil
		for i := range sum.Scaling.Points {
			if sum.Scaling.Points[i].Replicas == g.Replicas {
				point = &sum.Scaling.Points[i]
				break
			}
		}
		if point == nil {
			res.Phase = scalingPhase(g.Replicas)
			res.skip("replica count not measured")
			return res
		}
	}
	res.Phase = scalingPhase(point.Replicas)
	res.Passed = res.check("speedup", point.Speedup, g.MinSpeedup, ">=")
	if point.Replicas > 1 && !res.check("token_rebuilds", float64(point.TokenRebuilds), 1, ">=") {
		res.Passed = false
	}
	return res
}

// evalCacheSpeedupGate divides the inject phase's cold create p50 by the
// recover phase's warm create p50. A phase without create samples measures
// a speedup of 0, so the gate fails instead of passing vacuously.
func evalCacheSpeedupGate(g *GateSpec, sum *Summary) GateResult {
	res := GateResult{Type: g.Type, Phase: PhaseInject, Metric: "create"}
	speedup := 0.0
	cold, warm := sum.Phases[PhaseInject], sum.Phases[PhaseRecover]
	if cold != nil && warm != nil && warm.CreateLatency.P50Ms > 0 {
		speedup = cold.CreateLatency.P50Ms / warm.CreateLatency.P50Ms
	}
	res.Passed = res.check("cold_over_warm_create_p50", speedup, g.MinSpeedup, ">=")
	return res
}

// DocKind tags the combined SLO benchmark document (BENCH_slo.json), the
// sibling of cmd/benchreport's BENCH_core.json.
const DocKind = "fadingd-slo"

// Doc is the combined output of one cmd/slorun sweep: every scenario summary
// under one provenance-stamped roof. cmd/benchreport -slo-compare diffs two
// of these.
type Doc struct {
	Kind string `json:"kind"`
	// Commit and GoVersion repeat the per-scenario provenance at the top
	// level for quick inspection.
	Commit    string     `json:"commit,omitempty"`
	GoVersion string     `json:"go_version"`
	Scenarios []*Summary `json:"scenarios"`
}

// AllPassed reports whether every scenario's gates held.
func (d *Doc) AllPassed() bool {
	for _, s := range d.Scenarios {
		if !s.Passed {
			return false
		}
	}
	return true
}

// Find returns the named scenario summary, or nil.
func (d *Doc) Find(name string) *Summary {
	for _, s := range d.Scenarios {
		if s.Scenario == name {
			return s
		}
	}
	return nil
}

// EncodeDoc renders a document as indented JSON with a trailing newline.
func EncodeDoc(d *Doc) ([]byte, error) {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("slolab: encode doc: %w", err)
	}
	return append(data, '\n'), nil
}

// LoadDoc reads and shape-checks a BENCH_slo.json document.
func LoadDoc(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("slolab: %w", err)
	}
	var d Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("slolab: %s: %w", path, err)
	}
	if d.Kind != DocKind {
		return nil, fmt.Errorf("slolab: %s: kind %q is not %q", path, d.Kind, DocKind)
	}
	return &d, nil
}

// rawSamples is the artifact shape carrying one scenario's unreduced latency
// samples, so a failed gate can be investigated beyond its percentiles.
type rawSamples struct {
	Scenario string                          `json:"scenario"`
	Phases   map[string]map[string][]float64 `json:"phases"`
}

// writeArtifacts records the summary and raw samples under dir.
func writeArtifacts(dir, name string, sum *Summary, samples map[string]*phaseAccum) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("slolab: artifacts: %w", err)
	}
	raw := rawSamples{Scenario: name, Phases: map[string]map[string][]float64{}}
	for phase, acc := range samples {
		raw.Phases[phase] = map[string][]float64{
			"block_ms":  acc.block.Samples(),
			"create_ms": acc.create.Samples(),
		}
	}
	if err := writeJSONFile(filepath.Join(dir, name+".samples.json"), raw); err != nil {
		return err
	}
	return writeJSONFile(filepath.Join(dir, name+".summary.json"), sum)
}

// writeJSONFile writes v as indented JSON.
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("slolab: encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("slolab: %w", err)
	}
	return nil
}
