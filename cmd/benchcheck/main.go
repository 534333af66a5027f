// Command benchcheck guards the simulator's host-side performance: it
// re-runs the hot-path benchmark harness (BenchmarkSimulatorHotPath, GPU
// and MCM cells) and fails if any cell's simulated-megacycles-per-second
// throughput regressed by more than the tolerance against the committed
// BENCH_hotpath.json. It also re-runs BenchmarkAnalyticPredict and fails
// if the analytic tier's speedup over the cycle pipeline falls below the
// -analytic-floor (100x by default) on any committed cell.
//
// Usage:
//
//	benchcheck                        # compare against ./BENCH_hotpath.json
//	benchcheck -tolerance 0.1        # tighten to 10%
//	benchcheck -benchtime 2x         # average over more runs
//
// The tolerance is deliberately loose (20% by default) and each cell is
// compared on its best throughput across -runs fresh runs (3 by default):
// the committed numbers come from one reference machine, and the guard is
// meant to catch order-of-magnitude hot-path regressions (an accidentally
// quadratic loop, a lost fast path, allocations back on the steady-state
// path), not to compare hardware. A real regression slows every run; a
// background load spike slows one, and best-of-N shrugs it off, which
// matters on shared CI runners. `make bench-check` wires it up, and CI
// runs it as a separate non-blocking job.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// benchFile mirrors the parts of BENCH_hotpath.json the check consumes.
type benchFile struct {
	Results map[string]struct {
		SimMcyclesPerSec float64 `json:"sim_mcycles_per_sec"`
	} `json:"results"`
	// Analytic is the analytic_vs_cycle column: per benchmark, the wall
	//-clock speedup of the analytic prediction tier over the cycle
	// pipeline on the same request. Judged against an absolute floor
	// (-analytic-floor), not the relative tolerance: the tier's contract
	// is "at least 100x", and the measured ratios sit orders of magnitude
	// above it on any machine.
	Analytic map[string]float64 `json:"analytic_vs_cycle"`
}

func readBench(path string) (benchFile, error) {
	var f benchFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		return f, fmt.Errorf("parsing %s: %w", path, err)
	}
	return f, nil
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_hotpath.json", "committed benchmark summary to compare against")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional throughput loss per cell before failing")
	benchtime := flag.String("benchtime", "1x", "go test -benchtime for each fresh run")
	runs := flag.Int("runs", 3, "fresh benchmark runs; each cell is judged on its best run")
	pkg := flag.String("pkg", "./internal/gpu/", "package holding the hot-path benchmarks")
	analyticFloor := flag.Float64("analytic-floor", 100, "minimum analytic_vs_cycle speedup per cell (0 skips the analytic check)")
	analyticPkg := flag.String("analytic-pkg", ".", "package holding BenchmarkAnalyticPredict")
	flag.Parse()
	if *runs < 1 {
		fatalf("benchcheck: -runs must be at least 1")
	}

	baseline, err := readBench(*baselinePath)
	if err != nil {
		fatalf("benchcheck: baseline: %v", err)
	}
	if len(baseline.Results) == 0 {
		fatalf("benchcheck: baseline: %s has no results", *baselinePath)
	}

	tmp, err := os.MkdirTemp("", "benchcheck")
	if err != nil {
		fatalf("benchcheck: %v", err)
	}
	defer os.RemoveAll(tmp)

	// best[cell] is the highest throughput seen for the cell across runs:
	// the least load-disturbed measurement, and the one each cell is
	// judged on.
	best := map[string]float64{}
	for run := 0; run < *runs; run++ {
		freshPath := filepath.Join(tmp, fmt.Sprintf("fresh%d.json", run))
		cmd := exec.Command("go", "test", "-run", "XXX",
			"-bench", "BenchmarkSimulatorHotPath", "-benchtime", *benchtime, *pkg)
		cmd.Env = append(os.Environ(), "BENCH_HOTPATH_JSON="+freshPath)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		fmt.Printf("benchcheck: run %d/%d: %v\n", run+1, *runs, cmd.Args)
		if err := cmd.Run(); err != nil {
			fatalf("benchcheck: benchmark run failed: %v", err)
		}
		fresh, err := readBench(freshPath)
		if err != nil {
			fatalf("benchcheck: fresh run: %v", err)
		}
		for name, r := range fresh.Results {
			if r.SimMcyclesPerSec > best[name] {
				best[name] = r.SimMcyclesPerSec
			}
		}
	}

	cells := make([]string, 0, len(baseline.Results))
	for name := range baseline.Results {
		cells = append(cells, name)
	}
	sort.Strings(cells)

	failed := false
	for _, name := range cells {
		base := baseline.Results[name].SimMcyclesPerSec
		got, ok := best[name]
		switch {
		case !ok:
			fmt.Printf("FAIL %-18s missing from fresh runs (baseline stale? regenerate with `make bench`)\n", name)
			failed = true
		case base <= 0:
			fmt.Printf("skip %-18s baseline has no throughput\n", name)
		default:
			ratio := got / base
			status := "ok  "
			if ratio < 1-*tolerance {
				status = "FAIL"
				failed = true
			}
			fmt.Printf("%s %-18s %8.4f simMcyc/s (best of %d) vs %8.4f baseline (%+.1f%%)\n",
				status, name, got, *runs, base, (ratio-1)*100)
		}
	}
	// Analytic tier: one fresh run of BenchmarkAnalyticPredict (each cell
	// times the full cycle pipeline once, so best-of-N would be slow for
	// no benefit — the measured ratios are ~10^4, judged against a 10^2
	// floor that a load spike cannot cross).
	if *analyticFloor > 0 && len(baseline.Analytic) > 0 {
		freshPath := filepath.Join(tmp, "analytic.json")
		cmd := exec.Command("go", "test", "-run", "XXX",
			"-bench", "BenchmarkAnalyticPredict", "-benchtime", "1x", *analyticPkg)
		cmd.Env = append(os.Environ(), "BENCH_HOTPATH_JSON="+freshPath)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		fmt.Printf("benchcheck: analytic run: %v\n", cmd.Args)
		if err := cmd.Run(); err != nil {
			fatalf("benchcheck: analytic benchmark run failed: %v", err)
		}
		fresh, err := readBench(freshPath)
		if err != nil {
			fatalf("benchcheck: analytic run: %v", err)
		}
		names := make([]string, 0, len(baseline.Analytic))
		for name := range baseline.Analytic {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			got, ok := fresh.Analytic[name]
			switch {
			case !ok:
				fmt.Printf("FAIL analytic_vs_cycle      %-10s missing from fresh run (baseline stale? regenerate with `make bench`)\n", name)
				failed = true
			case got < *analyticFloor:
				fmt.Printf("FAIL analytic_vs_cycle      %-10s %8.0fx below the %.0fx floor\n", name, got, *analyticFloor)
				failed = true
			default:
				fmt.Printf("ok   analytic_vs_cycle      %-10s %8.0fx (floor %.0fx, baseline %.0fx)\n", name, got, *analyticFloor, baseline.Analytic[name])
			}
		}
	}

	if failed {
		fatalf("benchcheck: hot-path throughput regressed more than %.0f%% (or cells went missing, or the analytic tier fell below its floor)", *tolerance*100)
	}
	fmt.Println("benchcheck: ok")
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
