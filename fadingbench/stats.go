package main

import (
	"bufio"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// minTail is the least number of samples an end-to-end percentile must keep
// beyond it: a tail read from fewer samples is one or two outliers.
const minTail = 10

// quantile returns the nearest-rank q-quantile of sorted (ascending) samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// tailQuantile is quantile for end-to-end metrics: it refuses a percentile
// that keeps fewer than minTail samples beyond it.
func tailQuantile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	beyond := n - int(math.Ceil(q*float64(n)))
	if beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples keeps %d beyond it, want at least %d", q*100, n, beyond, minTail)
	}
	return quantile(sorted, q), nil
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// interval is a half-open time range [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns the part of parent that none of children covers: the
// parent's duration minus the union of its children, each clipped to the
// parent. Overlapping children are counted once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	slices.SortFunc(clipped, func(a, b interval) int { return int(a.start - b.start) })
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// parseExposition parses Prometheus text exposition into series → value.
// A series key is the metric name plus its label set exactly as written
// (fadingd_shard_sessions{shard="0"}); comments and blank lines are skipped.
func parseExposition(text string) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(text))
	for line := 1; sc.Scan(); line++ {
		l := strings.TrimSpace(sc.Text())
		if l == "" || strings.HasPrefix(l, "#") {
			continue
		}
		i := strings.LastIndexByte(l, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", line, l)
		}
		v, err := strconv.ParseFloat(l[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		out[strings.TrimSpace(l[:i])] = v
	}
	return out, sc.Err()
}

// delta returns after[series] − before[series]: the increase of a counter
// between two scrapes. A series absent from a scrape reads as zero.
func delta(before, after map[string]float64, series string) float64 {
	return after[series] - before[series]
}
