// Command fadingbench is the repository's end-to-end benchmark of fadingd.
// It drives in-process fadingd replicas over loopback HTTP from one process,
// checks every served frame against the in-process reference, and prints
// the workload's end-to-end metrics (-trace 0) or, from a traced run that
// also replays the workload's specs through each layer's public calls, its
// per-layer metrics (-trace 1). The last line of standard output is the
// result:
//
//	{"correct": true, "attempted": 812, "failed": 0, "metrics": {"setup_s": {"value": 0.08, "unit": "s"}, ...}}
//
// The line before it is the run's provenance. metrics.json in this
// directory describes every metric and workload. Run it with run.sh from the
// repository root; -smoke runs every workload briefly and checks that every
// metric is present.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"repro/internal/slolab"
)

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// provenance extends slolab's record with what a number needs to be
// compared across machines.
type provenance struct {
	slolab.Provenance
	GOAMD64    string `json:"goamd64"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
}

func newProvenance(workload string, seed int64, traced bool) provenance {
	p := provenance{
		Provenance: slolab.Provenance{
			Commit:    "unknown",
			GoVersion: runtime.Version(),
			InProcess: true,
			StartedAt: time.Now().UTC().Format(time.RFC3339),
		},
		GOAMD64:    "unknown",
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Kernel:     kernel(),
		Workload:   workload,
		Seed:       seed,
		Traced:     traced,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Commit = s.Value
			case "GOAMD64":
				p.GOAMD64 = s.Value
			}
		}
	}
	return p
}

// kernel returns the running kernel's release.
func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// spansDir is where a traced run writes its spans, relative to the working
// directory: the build directory run.sh uses.
const spansDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: stream-n16-bin, stream-n3-ndjson, stream-models-bin or session-churn")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 10, "length of the timed window in seconds")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		smoke   = flag.Bool("smoke", false, "run every workload briefly, both ways, and check every metric is present")
	)
	flag.Parse()
	if *smoke {
		if err := runSmoke(*seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "fadingbench: smoke:", err)
			os.Exit(1)
		}
		fmt.Println("smoke ok")
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "fadingbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "fadingbench: -seconds must be at least 1")
		os.Exit(2)
	}
	res, spans, err := run(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fadingbench:", err)
		os.Exit(1)
	}
	if spans != nil {
		// One file per workload: the latest traced run's spans.
		path := filepath.Join(spansDir, "spans-"+*name+".json")
		if err := os.MkdirAll(spansDir, 0o755); err == nil {
			err = spans.writeFile(path)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fadingbench: writing spans:", err)
			os.Exit(1)
		}
	}
	prov, err := json.Marshal(map[string]provenance{"provenance": newProvenance(*name, *seed, *trace == 1)})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fadingbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fadingbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(prov))
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// runSmoke runs every workload untraced and traced and checks that each
// run is correct, reports exactly the metrics the tables name with their
// units, and has error_rate 0.
func runSmoke(seed int64, seconds int) error {
	var errs []error
	for _, name := range workloadNames {
		d := time.Duration(max(seconds, smokeSeconds)) * time.Second
		for _, traced := range []bool{false, true} {
			res, _, err := run(name, seed, d, traced)
			if err == nil {
				err = checkResult(res, traced)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("%s (traced %v): %w", name, traced, err))
			}
		}
	}
	return errors.Join(errs...)
}

// checkResult checks one run's result against the metric tables.
func checkResult(res *result, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		return fmt.Errorf("run not correct: attempted %d, failed %d", res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		return fmt.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s missing", d.name)
		}
		if m.Unit != d.unit {
			return fmt.Errorf("metric %s has unit %q, want %q", d.name, m.Unit, d.unit)
		}
	}
	if traced && res.Metrics["error_rate"].Value != 0 {
		return fmt.Errorf("error_rate %g", res.Metrics["error_rate"].Value)
	}
	return nil
}
