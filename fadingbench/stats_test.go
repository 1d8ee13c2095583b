package main

import (
	"reflect"
	"testing"
	"time"
)

func TestTailQuantileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := tailQuantile(xs, 0.99); err == nil {
		t.Fatal("p99 of 999 samples keeps 9 beyond it; want refusal")
	}
	xs = append(xs, 999)
	v, err := tailQuantile(xs, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if v != 989 {
		t.Fatalf("p99 = %g, want 989 (10 samples beyond)", v)
	}
	if _, err := tailQuantile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples keeps 9 beyond it; want refusal")
	}
	if v, err := tailQuantile(xs[:20], 0.5); err != nil || v != 9 {
		t.Fatalf("p50 of 20 samples = %g, %v; want 9", v, err)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{110, 120}, {150, 170}}, 70},
		{"overlapping counted once", []interval{{110, 140}, {130, 160}}, 50},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
		{"clipped to parent", []interval{{50, 120}, {180, 250}}, 60},
		{"outside parent", []interval{{0, 50}, {300, 400}}, 100},
		{"unsorted", []interval{{150, 170}, {110, 120}, {115, 130}}, 60},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestParseExpositionDeltas(t *testing.T) {
	before := `# HELP fadingd_spec_cache_hits_total Session creates served from the setup cache.
# TYPE fadingd_spec_cache_hits_total counter
fadingd_spec_cache_hits_total 7
fadingd_queue_depth 3
fadingd_uptime_seconds 1.250
fadingd_shard_sessions{shard="0"} 2
`
	after := `fadingd_spec_cache_hits_total 19
fadingd_token_rebuilds_total 4
fadingd_queue_depth 1
fadingd_uptime_seconds 3.500
fadingd_shard_sessions{shard="0"} 5
`
	b, err := parseExposition(before)
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseExposition(after)
	if err != nil {
		t.Fatal(err)
	}
	if got := delta(b, a, "fadingd_spec_cache_hits_total"); got != 12 {
		t.Errorf("cache hits delta = %g, want 12", got)
	}
	if got := delta(b, a, "fadingd_token_rebuilds_total"); got != 4 {
		t.Errorf("counter absent before: delta = %g, want 4", got)
	}
	if got := delta(b, a, `fadingd_shard_sessions{shard="0"}`); got != 3 {
		t.Errorf("labelled series delta = %g, want 3", got)
	}
	if a["fadingd_queue_depth"] != 1 || a["fadingd_uptime_seconds"] != 3.5 {
		t.Errorf("gauges = %v", a)
	}
	if _, err := parseExposition("fadingd_blocks_served_total x\n"); err == nil {
		t.Error("bad value parsed")
	}
}

func TestPlansArePureFunctionsOfSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newPlan(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newPlan(name, 42)
		c, _ := newPlan(name, 43)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from seed 42 differ", name)
		}
		if reflect.DeepEqual(a.specs, c.specs) {
			t.Errorf("%s: seeds 42 and 43 give the same sessions", name)
		}
	}
	p, _ := newPlan(wlChurn, 42)
	s1 := churnSchedule(p, 1, churnRate, 5*time.Second)
	s2 := churnSchedule(p, 1, churnRate, 5*time.Second)
	if !reflect.DeepEqual(s1, s2) {
		t.Error("two schedules from seed 42 differ")
	}
	q, _ := newPlan(wlChurn, 43)
	if reflect.DeepEqual(s1, churnSchedule(q, 1, churnRate, 5*time.Second)) {
		t.Error("seeds 42 and 43 give the same schedule")
	}
	if reflect.DeepEqual(s1, churnSchedule(p, 2, churnRate, 5*time.Second)) {
		t.Error("two windows of one run share a schedule")
	}
	var hot, resume int
	for _, op := range s1 {
		if op.key < len(p.specs) {
			hot++
		}
		if op.resume {
			resume++
		}
	}
	if n := len(s1); n != 5*churnRate || abs(hot-n/2) > 4 || abs(resume-n/4) > 2 {
		t.Errorf("schedule of %d ops has %d hot and %d resumed; want %d, half and a quarter", n, hot, resume, 5*churnRate)
	}
	for i := 1; i < len(s1); i++ {
		if s1[i].at < s1[i-1].at || s1[i].at >= 5*time.Second {
			t.Fatalf("op %d due at %s after %s", i, s1[i].at, s1[i-1].at)
		}
	}
}

func abs(x int) int { return max(x, -x) }
