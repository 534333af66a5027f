package gpuscale_test

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"gpuscale"
)

// -update regenerates testdata/golden_stats.json from the current
// simulator. Run it ONLY when a simulation-visible change is intended and
// reviewed; the whole point of the file is that hot-path optimisations must
// NOT change it.
var updateGolden = flag.Bool("update", false, "rewrite golden stats testdata")

const goldenStatsPath = "testdata/golden_stats.json"

// goldenEntry is one (workload, configuration) cell of the golden grid.
// Exactly one of Sim and MCM is set.
type goldenEntry struct {
	Label string             `json:"label"`
	Sim   *gpuscale.SimStats `json:"sim,omitempty"`
	MCM   *gpuscale.MCMStats `json:"mcm,omitempty"`
}

// goldenCells simulates the full golden grid: all 21 strong-scaling
// benchmarks on the 8- and 16-SM scale models (the two configurations every
// prediction in the paper is derived from), the 4- and 2-chiplet MCM
// configurations, two weak-scaling MCM cells, three horizon-boundary cells
// with long-latency DRAM, six microarchitecture-variant cells (two-level,
// sectored and deflect — monolithic and MCM), and one multi-kernel
// sequence. The strong cells
// are fanned across the worker pool; results are bit-identical to a
// sequential run.
func goldenCells(t *testing.T) []goldenEntry {
	t.Helper()
	ctx := context.Background()
	base := gpuscale.Baseline128()
	benches := gpuscale.Benchmarks()

	var jobs []gpuscale.Job
	var labels []string
	for _, bench := range benches {
		for _, n := range []int{8, 16} {
			jobs = append(jobs, gpuscale.NewJob(gpuscale.MustScale(base, n), bench.Workload))
			labels = append(labels, fmt.Sprintf("strong/%s/%dsm", bench.Name, n))
		}
	}
	results, err := gpuscale.RunJobs(ctx, jobs, gpuscale.EngineOptions{})
	if err != nil {
		t.Fatalf("golden strong sweep: %v", err)
	}
	var cells []goldenEntry
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("golden cell %s: %v", labels[i], r.Err)
		}
		st := r.Stats
		cells = append(cells, goldenEntry{Label: labels[i], Sim: &st})
	}

	// Two chiplet configurations: the 4- and 2-chiplet scale models of the
	// paper's 16-chiplet target, on the three representative benchmarks.
	// Pinning two MCM sizes makes the chiplet run loop's within-cycle
	// ordering (chip-major SM walk, shared link and LLC arbitration)
	// observable at more than one bitset width.
	for _, chips := range []int{4, 2} {
		mcmCfg, err := gpuscale.ScaleChiplets(gpuscale.Target16Chiplet(), chips)
		if err != nil {
			t.Fatalf("golden chiplet config: %v", err)
		}
		for _, name := range []string{"dct", "bfs", "pf"} {
			bench, err := gpuscale.BenchmarkByName(name)
			if err != nil {
				t.Fatal(err)
			}
			st, err := gpuscale.SimulateMCMContext(ctx, mcmCfg, bench.Workload)
			if err != nil {
				t.Fatalf("golden chiplet cell %s/%dc: %v", name, chips, err)
			}
			cells = append(cells, goldenEntry{Label: fmt.Sprintf("chiplet/%s/%dc", name, chips), MCM: &st})
		}
	}

	// Weak-scaling MCM cells: two Table IV families from the paper's chiplet
	// case study, each with its input scaled to the 4-chiplet model's SM
	// count (the case study's own protocol).
	mcmWeakCfg, err := gpuscale.ScaleChiplets(gpuscale.Target16Chiplet(), 4)
	if err != nil {
		t.Fatalf("golden chiplet weak config: %v", err)
	}
	weakSMs := mcmWeakCfg.NumChiplets * mcmWeakCfg.Chiplet.NumSMs
	for _, name := range []string{"bfs", "va"} {
		fam, err := gpuscale.WeakBenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		st, err := gpuscale.SimulateMCMContext(ctx, mcmWeakCfg, fam.ForSMs(weakSMs))
		if err != nil {
			t.Fatalf("golden chiplet weak cell %s: %v", name, err)
		}
		cells = append(cells, goldenEntry{Label: "chiplet-weak/" + name + "/4c", MCM: &st})
	}

	// Horizon-boundary cells: DRAM latencies tuned so blocked-warp wake-up
	// distances cluster around the timing kernel's 64-cycle due-wheel
	// horizon, exercising the wheel/heap hand-off — wakes just inside the
	// wheel, exactly at the horizon (which must take the heap), and just
	// past it — in both simulators. Grid growth is additive: these cells
	// extend the snapshot, never replace existing entries.
	for _, hc := range []struct {
		bench string
		dram  int
	}{{"bfs", 52}, {"dct", 68}} {
		hcfg := gpuscale.MustScale(base, 8)
		hcfg.DRAMLatency = hc.dram
		hcfg.Name = fmt.Sprintf("%s-dram%d", hcfg.Name, hc.dram)
		bench, err := gpuscale.BenchmarkByName(hc.bench)
		if err != nil {
			t.Fatal(err)
		}
		st, err := gpuscale.SimulateContext(ctx, hcfg, bench.Workload)
		if err != nil {
			t.Fatalf("golden horizon cell %s/dram%d: %v", hc.bench, hc.dram, err)
		}
		cells = append(cells, goldenEntry{
			Label: fmt.Sprintf("horizon/%s/8sm-dram%d", hc.bench, hc.dram), Sim: &st})
	}
	mcmHorizonCfg, err := gpuscale.ScaleChiplets(gpuscale.Target16Chiplet(), 2)
	if err != nil {
		t.Fatalf("golden horizon chiplet config: %v", err)
	}
	mcmHorizonCfg.Chiplet.DRAMLatency = 15
	mcmHorizonCfg.Name += "-dram15"
	hbench, err := gpuscale.BenchmarkByName("bfs")
	if err != nil {
		t.Fatal(err)
	}
	hmcm, err := gpuscale.SimulateMCMContext(ctx, mcmHorizonCfg, hbench.Workload)
	if err != nil {
		t.Fatalf("golden horizon chiplet cell: %v", err)
	}
	cells = append(cells, goldenEntry{Label: "horizon/bfs/2c-dram15", MCM: &hmcm})

	// Microarchitecture-variant cells: one monolithic 8-SM cell and one
	// 2-chiplet MCM cell per non-default variant axis (two-level warp
	// scheduling, sectored L1 fills, bufferless-deflection routing — see
	// docs/UARCH.md). Additive cells: they extend the snapshot, never replace existing
	// entries.
	for _, uc := range []string{"two-level", "sectored", "deflect"} {
		v, err := gpuscale.ParseUarch(uc)
		if err != nil {
			t.Fatalf("golden uarch variant %s: %v", uc, err)
		}
		bench, err := gpuscale.BenchmarkByName("dct")
		if err != nil {
			t.Fatal(err)
		}
		vcfg := gpuscale.MustScale(base, 8)
		st, err := gpuscale.SimulateContext(ctx, vcfg, bench.Workload, gpuscale.WithUarch(v))
		if err != nil {
			t.Fatalf("golden uarch cell %s: %v", uc, err)
		}
		cells = append(cells, goldenEntry{Label: fmt.Sprintf("uarch/%s/dct/8sm", uc), Sim: &st})

		mcmCfg, err := gpuscale.ScaleChiplets(gpuscale.Target16Chiplet(), 2)
		if err != nil {
			t.Fatalf("golden uarch chiplet config: %v", err)
		}
		mbench, err := gpuscale.BenchmarkByName("bfs")
		if err != nil {
			t.Fatal(err)
		}
		mst, err := gpuscale.SimulateMCMContext(ctx, mcmCfg, mbench.Workload, gpuscale.WithUarch(v))
		if err != nil {
			t.Fatalf("golden uarch chiplet cell %s: %v", uc, err)
		}
		cells = append(cells, goldenEntry{Label: fmt.Sprintf("uarch-chiplet/%s/bfs/2c", uc), MCM: &mst})
	}

	// One multi-kernel sequence: three kernels back to back with a grid
	// barrier between them and caches persisting across them.
	var kernels []gpuscale.Workload
	for _, name := range []string{"dct", "bfs", "pf"} {
		bench, err := gpuscale.BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		kernels = append(kernels, bench.Workload)
	}
	seq, err := gpuscale.SimulateSequenceContext(ctx, gpuscale.MustScale(base, 8), kernels)
	if err != nil {
		t.Fatalf("golden sequence cell: %v", err)
	}
	cells = append(cells, goldenEntry{Label: "seq/dct+bfs+pf/8sm", Sim: &seq})

	sort.Slice(cells, func(i, j int) bool { return cells[i].Label < cells[j].Label })
	return cells
}

// TestGoldenStats pins every statistic of the simulator — Cycles, IPC,
// FMem, MPKI, every raw counter — to a committed snapshot, bit for bit.
// Performance work on the simulator hot path (the event-driven run loop,
// the flat MSHR file) is only acceptable while this test stays green
// without -update: identical simulated results, faster host execution.
func TestGoldenStats(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid simulates 60 cells; skipped in -short mode")
	}
	cells := goldenCells(t)

	if *updateGolden {
		buf, err := json.MarshalIndent(cells, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenStatsPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenStatsPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d cells", goldenStatsPath, len(cells))
		return
	}

	buf, err := os.ReadFile(goldenStatsPath)
	if err != nil {
		t.Fatalf("reading golden stats (run `go test -run TestGoldenStats -update .` to create): %v", err)
	}
	var want []goldenEntry
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parsing %s: %v", goldenStatsPath, err)
	}
	wantByLabel := make(map[string]goldenEntry, len(want))
	for _, e := range want {
		wantByLabel[e.Label] = e
	}
	if len(want) != len(cells) {
		t.Errorf("golden grid has %d cells, snapshot has %d", len(cells), len(want))
	}
	for _, got := range cells {
		w, ok := wantByLabel[got.Label]
		if !ok {
			t.Errorf("%s: missing from golden snapshot", got.Label)
			continue
		}
		switch {
		case got.Sim != nil && w.Sim != nil:
			if *got.Sim != *w.Sim {
				t.Errorf("%s: stats diverged from golden snapshot\n got %+v\nwant %+v", got.Label, *got.Sim, *w.Sim)
			}
		case got.MCM != nil && w.MCM != nil:
			if *got.MCM != *w.MCM {
				t.Errorf("%s: MCM stats diverged from golden snapshot\n got %+v\nwant %+v", got.Label, *got.MCM, *w.MCM)
			}
		default:
			t.Errorf("%s: golden snapshot entry kind mismatch", got.Label)
		}
	}
}
