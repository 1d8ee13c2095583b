package main

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"time"

	"repro/internal/service"
)

// metricDef names a metric and its unit; BENCHMARK.json and metrics.json
// list the same names.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"blocks_per_s", "blocks/s"},
	{"first_block_ms_p50", "ms"},
	{"first_block_ms_p90", "ms"},
	{"block_gap_ms_p50", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_bytes_per_op", "bytes"},
	{"peak_heap_mb", "MiB"},
}

// perLayer are the metrics a traced run reports.
var perLayer = []metricDef{
	{"error_rate", "ratio"},
	{"create_ms_p50", "ms"},
	{"create_ms_p90", "ms"},
	{"block_gap_ms_p90", "ms"},
	{"block_gap_ms_p99", "ms"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"randx.fill_ns_per_draw", "ns"},
	{"dsp.ifft_us", "us"},
	{"doppler.block_us", "us"},
	{"doppler.inband_frac", "ratio"},
	{"cmplxmat.color_us", "us"},
	{"cmplxmat.color_gflops", "GFLOP/s"},
	{"core.block_us", "us"},
	{"core.envelope_us", "us"},
	{"core.reconcile_frac", "ratio"},
	{"fading.rician.ns_per_sample", "ns"},
	{"fading.nakagami_m.ns_per_sample", "ns"},
	{"fading.suzuki.ns_per_sample", "ns"},
	{"service.encode_bin_us", "us"},
	{"service.write_us", "us"},
	{"service.handler_self_ms", "ms"},
	{"service.queue_depth_mean", "count"},
	{"service.cache_hit_frac", "ratio"},
	{"service.token_rebuilds", "count"},
	{"chanspec.build_us", "us"},
	{"core.force_psd_ms", "ms"},
	{"core.setup_ms", "ms"},
	{"token.sign_us", "us"},
	{"token.verify_us", "us"},
	{"http.overhead_ms", "ms"},
	{"client.read_us", "us"},
	{"bench.sched_lag_ms_p99", "ms"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.verify_us_per_frame", "us"},
}

// setupRuns is how many times an untraced run sets the workload up; setup_s
// is their median.
const setupRuns = 3

// minSlices is the fewest whole seconds a window needs for its per-second
// medians.
const minSlices = 3

// smokeSeconds is the window of a smoke run: minSlices whole seconds, and
// enough samples for every tail percentile.
const smokeSeconds = minSlices + 1

// run performs one run of the named workload: untraced, it reports the
// end-to-end metrics; traced, the per-layer metrics and the spans.
func run(name string, seed int64, d time.Duration, traced bool) (*result, *tracer, error) {
	p, err := newPlan(name, seed)
	if err != nil {
		return nil, nil, err
	}
	if traced {
		return tracedRun(p, d)
	}
	res, err := untracedRun(p, d)
	return res, nil, err
}

// setupTimed sets the workload up setupRuns times from scratch, keeps the
// last world and returns the median set-up time.
func setupTimed(p *plan) (*world, float64, error) {
	var times []float64
	var w *world
	for i := range setupRuns {
		start := time.Now()
		nw, err := setup(p)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupRuns-1 {
			nw.close()
		} else {
			w = nw
		}
	}
	return w, median(times), nil
}

func untracedRun(p *plan, d time.Duration) (*result, error) {
	w, setupS, err := setupTimed(p)
	if err != nil {
		return nil, err
	}
	win := w.runWindow(d, 0, nil)
	w.close()
	reportFailures(win)
	bad, _, err := check(w)
	if err != nil {
		return nil, err
	}

	if len(win.slices) < minSlices {
		return nil, fmt.Errorf("window of %s has %d whole seconds, want at least %d", win.elapsed, len(win.slices), minSlices)
	}
	res := &result{Attempted: win.smp.attempted, Failed: win.smp.failed + bad, Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(endToEnd, name)} }
	set("setup_s", setupS)
	// Rates and per-operation costs are medians over the window's seconds,
	// so a stall in one second moves them little.
	perOp := func(s slice) float64 {
		if p.name == wlChurn {
			return float64(s.ops)
		}
		return float64(s.blocks)
	}
	set("blocks_per_s", win.perSecond(func(s slice) float64 { return float64(s.blocks) / s.dur.Seconds() }))
	tails := []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"first_block_ms_p50", win.smp.firstBlock, 0.5},
		{"first_block_ms_p90", win.smp.firstBlock, 0.9},
		{"block_gap_ms_p50", win.smp.gaps, 0.5},
	}
	for _, t := range tails {
		v, err := tailQuantile(sortedCopy(t.xs), t.q)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", t.name, err)
		}
		set(t.name, v)
	}
	set("cpu_ms_per_op", win.perSecond(func(s slice) float64 { return ms(s.cpu) / perOp(s) }))
	set("alloc_bytes_per_op", win.perSecond(func(s slice) float64 { return float64(s.alloc) / perOp(s) }))
	set("peak_heap_mb", float64(win.peakHeap)/(1<<20))
	return res, nil
}

// reportFailures prints the first failed operation of a window, if any.
func reportFailures(win *window) {
	if win.smp.failed > 0 {
		fmt.Fprintf(os.Stderr, "fadingbench: %d of %d operations failed; first: %v\n",
			win.smp.failed, win.smp.attempted, win.smp.firstErr)
	}
}

// check runs the output check on every frame the world's clients read,
// off the clock, and reports the number of bad blocks and its cost.
func check(w *world) (int, time.Duration, error) {
	start := time.Now()
	bad, err := verify(w.cap, w.specs, w.p.format)
	took := time.Since(start)
	fmt.Fprintf(os.Stderr, "fadingbench: %s: checked %d frames (%d distinct blocks) in %s, %d bad\n",
		w.p.name, w.cap.frames, len(w.cap.digests), took.Round(time.Millisecond), bad)
	return bad, took, err
}

func unitOf(defs []metricDef, name string) string {
	i := slices.IndexFunc(defs, func(d metricDef) bool { return d.name == name })
	if i < 0 {
		panic("fadingbench: undeclared metric " + name)
	}
	return defs[i].unit
}

// replayBlocks is how many blocks of each spec the traced run replays.
const replayBlocks = 24

// tracedRun sets the workload up once, runs an untraced and then a traced
// window of d/2 each, checks both windows' frames, replays the workload's
// specs through the layer calls and reports the per-layer metrics.
func tracedRun(p *plan, d time.Duration) (*result, *tracer, error) {
	w, err := setup(p)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	base := w.runWindow(d/2, 0, nil)

	tr := newTracer()
	var queue []float64
	before, serr := scrapeAll(w)
	w.tr.Store(tr)
	sample := func() {
		if m, err := w.a.scrape(); err == nil {
			queue = append(queue, m["fadingd_queue_depth"])
		}
	}
	win := w.runWindow(d/2, 1, sample)
	w.tr.Store(nil)
	after, aerr := scrapeAll(w)
	var creates []float64
	for _, c := range w.clients {
		creates = append(creates, c.creates...)
	}
	w.close()
	reportFailures(base)
	reportFailures(win)
	if err := errors.Join(serr, aerr); err != nil {
		return nil, nil, fmt.Errorf("scraping /metrics: %w", err)
	}

	bad, took, err := check(w)
	if err != nil {
		return nil, nil, err
	}

	acc := newLayerAcc()
	kr, err := benchKeyring()
	if err != nil {
		return nil, nil, err
	}
	for _, spec := range replaySpecs(p) {
		blocks := make([]uint64, min(replayBlocks, spec.Blocks))
		for i := range blocks {
			blocks[i] = uint64(i)
		}
		if err := replaySpec(acc, spec, blocks, kr); err != nil {
			return nil, nil, err
		}
	}

	attempted := base.smp.attempted + win.smp.attempted
	failed := base.smp.failed + win.smp.failed + bad
	res := &result{Attempted: attempted, Failed: failed, Correct: failed == 0, Metrics: map[string]metric{}}
	set := func(name string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unitOf(perLayer, name)} }

	set("error_rate", float64(failed)/float64(attempted))
	sortedCreates := sortedCopy(creates)
	set("create_ms_p50", quantile(sortedCreates, 0.5))
	set("create_ms_p90", quantile(sortedCreates, 0.9))
	sortedGaps := sortedCopy(win.smp.gaps)
	set("block_gap_ms_p90", quantile(sortedGaps, 0.9))
	set("block_gap_ms_p99", quantile(sortedGaps, 0.99))
	sortedOps := sortedCopy(win.smp.ops)
	set("op_ms_p50", quantile(sortedOps, 0.5))
	set("op_ms_p90", quantile(sortedOps, 0.9))

	us := time.Microsecond
	set("randx.fill_ns_per_draw", acc.perWork("randx.fill"))
	set("dsp.ifft_us", acc.perCall("dsp.ifft", us))
	set("doppler.block_us", acc.perCall("doppler.block", us))
	set("doppler.inband_frac", acc.work["doppler.inband_bins"]/acc.work["doppler.bins"])
	set("cmplxmat.color_us", acc.perCall("cmplxmat.color", us))
	set("cmplxmat.color_gflops", acc.work["cmplxmat.color"]/float64(acc.dur["cmplxmat.color"]))
	set("core.block_us", acc.perCall("core.block", us))
	set("core.envelope_us", acc.perCall("core.envelope", us))
	set("core.reconcile_frac", float64(acc.stages)/float64(acc.dur["core.block"]))
	for name := range probeFading {
		set("fading."+name+".ns_per_sample", acc.perWork("fading."+name))
	}
	set("service.encode_bin_us", acc.perCall("service.encode_bin", us))
	set("chanspec.build_us", acc.perCall("chanspec.build", us))
	set("core.force_psd_ms", acc.perCall("core.force_psd", time.Millisecond))
	set("core.setup_ms", acc.perCall("core.setup", time.Millisecond))
	set("token.sign_us", acc.perCall("token.sign", us))
	set("token.verify_us", acc.perCall("token.verify", us))

	sp := spanStats(tr.snapshot())
	frames := float64(win.smp.blocks)
	set("service.write_us", float64(sp.writeNS)/frames/1e3)
	set("service.handler_self_ms", mean(sp.handlerSelf))
	set("service.queue_depth_mean", mean(queue))
	hits := after["a"]["fadingd_spec_cache_hits_total"]
	misses := after["a"]["fadingd_spec_cache_misses_total"]
	set("service.cache_hit_frac", hits/(hits+misses))
	var rebuilds float64
	for r := range after {
		rebuilds += delta(before[r], after[r], "fadingd_token_rebuilds_total")
	}
	set("service.token_rebuilds", rebuilds)
	set("http.overhead_ms", mean(sp.overhead))
	set("client.read_us", mean(sp.clientFrame)*1e3)
	set("bench.sched_lag_ms_p99", quantile(sortedCopy(win.smp.lag), 0.99))
	set("bench.trace_overhead_frac", traceOverhead(p, base, win))
	set("bench.verify_us_per_frame", float64(took.Microseconds())/float64(w.cap.frames))
	return res, tr, nil
}

// replaySpecs returns the specs the traced run replays: the stream
// workloads' sessions, or session-churn's hot set plus as many fresh specs.
func replaySpecs(p *plan) []*service.SessionSpec {
	if p.name != wlChurn {
		return p.specs
	}
	return append(slices.Clone(p.specs), freshSpecs(newRNG(p.seed, 200), len(p.specs))...)
}

// traceOverhead is the share of throughput the tracing cost: 1 − traced /
// untraced blocks/s on the closed-loop workloads. Session-churn's block rate
// is fixed by its schedule, so there it is the same share of CPU per
// operation: 1 − untraced / traced.
func traceOverhead(p *plan, base, traced *window) float64 {
	if p.name == wlChurn {
		return 1 - (base.cpu.Seconds()/float64(base.ops))/(traced.cpu.Seconds()/float64(traced.ops))
	}
	rate := func(w *window) float64 { return float64(w.smp.blocks) / w.elapsed.Seconds() }
	return 1 - rate(traced)/rate(base)
}

// scrapeAll reads /metrics from every replica of the world, keyed "a"/"b".
func scrapeAll(w *world) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	for key, r := range map[string]*replica{"a": w.a, "b": w.b} {
		if r == nil {
			continue
		}
		m, err := r.scrape()
		if err != nil {
			return nil, err
		}
		out[key] = m
	}
	return out, nil
}

// spanSummary is what the per-layer metrics read from the spans.
type spanSummary struct {
	writeNS     int64     // Write and Flush time inside stream handlers
	handlerSelf []float64 // stream handler time outside Write and Flush, ms
	overhead    []float64 // client request span − handler span, ms
	clientFrame []float64 // client per-frame work, ms
}

func spanStats(spans []span) spanSummary {
	var s spanSummary
	children := map[int64][]interval{}
	childNS := map[int64]int64{}
	clientReq := map[uint64]span{} // stream requests by request id
	var handlers []span
	for _, sp := range spans {
		switch sp.Name {
		case "service.write", "service.flush":
			children[sp.Parent] = append(children[sp.Parent], sp.interval())
			childNS[sp.Parent] += sp.End - sp.Start
		case "service.handler":
			handlers = append(handlers, sp)
		case "client.request":
			clientReq[sp.Req] = sp
		case "client.frame":
			s.clientFrame = append(s.clientFrame, float64(sp.End-sp.Start)/1e6)
		}
	}
	clientAll := map[uint64]span{}
	for _, sp := range spans {
		if sp.Req != 0 && (sp.Name == "client.request" || sp.Name == "client.create" || sp.Name == "client.delete") {
			clientAll[sp.Req] = sp
		}
	}
	for _, h := range handlers {
		if c, ok := clientAll[h.Req]; ok {
			s.overhead = append(s.overhead, float64((c.End-c.Start)-(h.End-h.Start))/1e6)
		}
		if _, ok := clientReq[h.Req]; !ok {
			continue
		}
		s.writeNS += childNS[h.ID]
		s.handlerSelf = append(s.handlerSelf, float64(selfTime(h.interval(), children[h.ID]))/1e6)
	}
	return s
}
