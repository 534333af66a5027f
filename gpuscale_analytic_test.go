package gpuscale_test

// Cross-validation of the analytic tier against the committed golden grid
// (testdata/golden_stats.json): for every cell the simulator pins bit-for-
// bit, the analytic model must predict IPC and f_mem within committed
// per-family relative-error bounds (testdata/analytic_bounds.json). The
// golden stats are read from disk, never re-simulated, so this test is
// fast; `-update` regenerates the bounds from the current model's observed
// errors (plus margin) the same way the golden snapshot itself is managed.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"testing"

	"gpuscale"
)

const analyticBoundsPath = "testdata/analytic_bounds.json"

// analyticBounds are the committed per-family maximum relative errors.
type analyticBounds struct {
	// IPC and FMem map family name to the allowed max relative error.
	IPC  map[string]float64 `json:"ipc"`
	FMem map[string]float64 `json:"fmem"`
}

// fmemErrFloor is the absolute floor used in the f_mem relative error
// denominator, so near-zero measured f_mem does not blow the ratio up.
const fmemErrFloor = 0.05

// analyticFamily buckets a golden label for error accounting: strong cells
// split by their paper scaling class, everything else by label prefix.
func analyticFamily(t *testing.T, label string) string {
	parts := strings.Split(label, "/")
	prefix := parts[0]
	if prefix == "strong" || prefix == "horizon" && !strings.Contains(parts[2], "c-") {
		if prefix == "horizon" {
			return "horizon"
		}
		bench, err := gpuscale.BenchmarkByName(parts[1])
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return "strong-" + string(bench.Class)
	}
	return prefix
}

// analyticEstimateFor reproduces the golden cell's configuration and
// workload from its label and runs the analytic model on it — the same
// label grammar goldenCells uses to build the grid.
func analyticEstimateFor(t *testing.T, label string) gpuscale.AnalyticEstimate {
	t.Helper()
	parts := strings.Split(label, "/")
	base := gpuscale.Baseline128()
	switch parts[0] {
	case "strong", "horizon":
		if len(parts) == 3 && strings.Contains(parts[2], "c-dram") {
			// horizon/bfs/2c-dram15: a chiplet config with modified DRAM.
			var chips, dram int
			if _, err := fmt.Sscanf(parts[2], "%dc-dram%d", &chips, &dram); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			cfg, err := gpuscale.ScaleChiplets(gpuscale.Target16Chiplet(), chips)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Chiplet.DRAMLatency = dram
			return mustAnalyzeMCM(t, label, cfg, parts[1])
		}
		var sms int
		rest := ""
		if _, err := fmt.Sscanf(parts[2], "%dsm%s", &sms, &rest); err != nil {
			if _, err := fmt.Sscanf(parts[2], "%dsm", &sms); err != nil {
				t.Fatalf("%s: cannot parse size: %v", label, err)
			}
		}
		cfg := gpuscale.MustScale(base, sms)
		if i := strings.Index(rest, "-dram"); i >= 0 {
			var dram int
			if _, err := fmt.Sscanf(rest[i:], "-dram%d", &dram); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			cfg.DRAMLatency = dram
		}
		bench, err := gpuscale.BenchmarkByName(parts[1])
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		est, err := gpuscale.AnalyzeCell(cfg, bench.Workload)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return est
	case "chiplet":
		var chips int
		if _, err := fmt.Sscanf(parts[2], "%dc", &chips); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		cfg, err := gpuscale.ScaleChiplets(gpuscale.Target16Chiplet(), chips)
		if err != nil {
			t.Fatal(err)
		}
		return mustAnalyzeMCM(t, label, cfg, parts[1])
	case "chiplet-weak":
		var chips int
		if _, err := fmt.Sscanf(parts[2], "%dc", &chips); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		cfg, err := gpuscale.ScaleChiplets(gpuscale.Target16Chiplet(), chips)
		if err != nil {
			t.Fatal(err)
		}
		fam, err := gpuscale.WeakBenchmarkByName(parts[1])
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		w := fam.ForSMs(cfg.NumChiplets * cfg.Chiplet.NumSMs)
		est, err := gpuscale.AnalyzeMCMCell(cfg, w)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return est
	case "uarch":
		// uarch/<variant>/<bench>/<N>sm: a monolithic cell under a
		// non-default microarchitecture variant (docs/UARCH.md). The
		// analytic model does not simulate the variant — it discounts its
		// confidence instead — so these families carry the widest bounds.
		v, err := gpuscale.ParseUarch(parts[1])
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var sms int
		if _, err := fmt.Sscanf(parts[3], "%dsm", &sms); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		cfg := gpuscale.MustScale(base, sms)
		cfg.Uarch = v
		bench, err := gpuscale.BenchmarkByName(parts[2])
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		est, err := gpuscale.AnalyzeCell(cfg, bench.Workload)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return est
	case "uarch-chiplet":
		// uarch-chiplet/<variant>/<bench>/<N>c: the MCM twin.
		v, err := gpuscale.ParseUarch(parts[1])
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var chips int
		if _, err := fmt.Sscanf(parts[3], "%dc", &chips); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		cfg, err := gpuscale.ScaleChiplets(gpuscale.Target16Chiplet(), chips)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Chiplet.Uarch = v
		return mustAnalyzeMCM(t, label, cfg, parts[2])
	case "seq":
		var sms int
		if _, err := fmt.Sscanf(parts[2], "%dsm", &sms); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		var ws []gpuscale.Workload
		for _, name := range strings.Split(parts[1], "+") {
			bench, err := gpuscale.BenchmarkByName(name)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			ws = append(ws, bench.Workload)
		}
		est, err := gpuscale.AnalyzeSequence(gpuscale.MustScale(base, sms), ws)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return est
	default:
		t.Fatalf("%s: unknown golden family", label)
		return gpuscale.AnalyticEstimate{}
	}
}

func mustAnalyzeMCM(t *testing.T, label string, cfg gpuscale.ChipletConfig, bench string) gpuscale.AnalyticEstimate {
	t.Helper()
	b, err := gpuscale.BenchmarkByName(bench)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	est, err := gpuscale.AnalyzeMCMCell(cfg, b.Workload)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return est
}

// TestAnalyticMatchesGoldenGrid cross-validates the analytic tier against
// every cell of the committed golden grid, asserting per-family maximum
// relative error on IPC and f_mem against testdata/analytic_bounds.json.
// Run with -update (after intended model changes, reviewed like any golden
// update) to regenerate the bounds from observed errors plus margin.
func TestAnalyticMatchesGoldenGrid(t *testing.T) {
	buf, err := os.ReadFile(goldenStatsPath)
	if err != nil {
		t.Fatalf("reading golden stats: %v", err)
	}
	var cells []goldenEntry
	if err := json.Unmarshal(buf, &cells); err != nil {
		t.Fatalf("parsing %s: %v", goldenStatsPath, err)
	}
	if len(cells) == 0 {
		t.Fatal("golden grid is empty")
	}

	maxIPC := map[string]float64{}
	maxFMem := map[string]float64{}
	for _, cell := range cells {
		var actIPC, actFMem float64
		switch {
		case cell.Sim != nil:
			actIPC, actFMem = cell.Sim.IPC, cell.Sim.FMem
		case cell.MCM != nil:
			actIPC, actFMem = cell.MCM.IPC, cell.MCM.FMem
		default:
			t.Fatalf("%s: empty golden cell", cell.Label)
		}
		est := analyticEstimateFor(t, cell.Label)
		fam := analyticFamily(t, cell.Label)
		ipcErr := math.Abs(est.IPC-actIPC) / math.Max(actIPC, 1e-9)
		fmemErr := math.Abs(est.FMem-actFMem) / math.Max(actFMem, fmemErrFloor)
		if ipcErr > maxIPC[fam] {
			maxIPC[fam] = ipcErr
		}
		if fmemErr > maxFMem[fam] {
			maxFMem[fam] = fmemErr
		}
		if testing.Verbose() {
			t.Logf("%-32s fam=%-20s ipc est=%8.3f act=%8.3f err=%5.1f%%  fmem est=%.3f act=%.3f err=%5.1f%%  conf=%.2f",
				cell.Label, fam, est.IPC, actIPC, 100*ipcErr, est.FMem, actFMem, 100*fmemErr, est.Confidence)
		}
	}

	if *updateGolden {
		// Commit observed max error plus headroom for cross-platform
		// floating-point drift; rounded up to whole percents.
		round := func(m map[string]float64) map[string]float64 {
			out := make(map[string]float64, len(m))
			for fam, e := range m {
				out[fam] = math.Ceil(e*1.15*100+1) / 100
			}
			return out
		}
		bounds := analyticBounds{IPC: round(maxIPC), FMem: round(maxFMem)}
		buf, err := json.MarshalIndent(bounds, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(analyticBoundsPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d families", analyticBoundsPath, len(bounds.IPC))
		return
	}

	bbuf, err := os.ReadFile(analyticBoundsPath)
	if err != nil {
		t.Fatalf("reading analytic bounds (run `go test -run TestAnalyticMatchesGoldenGrid -update .` to create): %v", err)
	}
	var bounds analyticBounds
	if err := json.Unmarshal(bbuf, &bounds); err != nil {
		t.Fatalf("parsing %s: %v", analyticBoundsPath, err)
	}
	fams := make([]string, 0, len(maxIPC))
	for fam := range maxIPC {
		fams = append(fams, fam)
	}
	sort.Strings(fams)
	for _, fam := range fams {
		ipcBound, ok := bounds.IPC[fam]
		if !ok {
			t.Errorf("family %s missing from %s (run -update)", fam, analyticBoundsPath)
			continue
		}
		if maxIPC[fam] > ipcBound {
			t.Errorf("family %s: IPC max relative error %.3f exceeds committed bound %.3f", fam, maxIPC[fam], ipcBound)
		}
		fmemBound, ok := bounds.FMem[fam]
		if !ok {
			t.Errorf("family %s missing f_mem bound in %s (run -update)", fam, analyticBoundsPath)
			continue
		}
		if maxFMem[fam] > fmemBound {
			t.Errorf("family %s: f_mem max relative error %.3f exceeds committed bound %.3f", fam, maxFMem[fam], fmemBound)
		}
	}
}
