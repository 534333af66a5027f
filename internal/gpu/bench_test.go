package gpu

import (
	"encoding/json"
	"os"
	"runtime"
	"sync"
	"testing"

	"gpuscale/internal/chiplet"
	"gpuscale/internal/config"
	"gpuscale/internal/trace"
	"gpuscale/internal/uarch"
	"gpuscale/internal/workloads"
)

// hotPathReport accumulates BenchmarkSimulatorHotPath results so TestMain
// can write BENCH_hotpath.json (when the BENCH_HOTPATH_JSON environment
// variable names a path — `make bench` sets it). Keys are
// "<workload>/<loop>", e.g. "bfs-16sm/event".
type hotPathResult struct {
	SimMcyclesPerSec float64 `json:"sim_mcycles_per_sec"`
	SimEventsPerSec  float64 `json:"sim_events_per_sec"`
	HostNsPerRun     float64 `json:"host_ns_per_run"`
	SimCyclesPerRun  int64   `json:"sim_cycles_per_run"`
}

var (
	hotPathMu      sync.Mutex
	hotPathResults = map[string]hotPathResult{}
)

// preOverhaulBaseline records simulated Mcycles per host second measured at
// the commit before the hot-path overhaul (dense run loop, map-based MSHR,
// allocating CTA launches) on the reference machine, for the cells below.
// It exists so BENCH_hotpath.json reports the overhaul's end-to-end speedup
// and not only the event-vs-legacy ratio: the in-tree legacy loop shares
// the SM-scheduler, MSHR and cache improvements, so it is itself ~3x the
// pre-overhaul loop and a misleadingly strong baseline on its own.
var preOverhaulBaseline = map[string]float64{
	"bfs-16sm": 0.2028, // 4.261 s/run before the overhaul
}

// pr3Baseline records the event-loop simulated Mcycles per host second at
// the end of the first hot-path round (the event-driven loop, flat MSHR and
// pooled-launch overhaul), measured interleaved with the round-2 tree on the
// same machine (two alternating rounds of -benchtime 3x per cell; MCM cells
// driven through an equivalent harness built at the round-1 commit) so the
// speedup_vs_pr3 column in BENCH_hotpath.json isolates round 2's
// contribution from machine drift.
var pr3Baseline = map[string]float64{
	"bfs-16sm": 0.6414,
	"bfs-8sm":  1.257,
	"dct-16sm": 0.6374,
	"bfs-4c":   0.08685,
	"dct-4c":   0.04986,
}

// pr4Baseline records the event-loop throughput at the end of the second
// hot-path round (chiplet due-bitsets, bucketed warp queue, batched MSHR
// expiry, workload arena), measured interleaved with the timing-kernel tree
// on the same machine (two alternating rounds per cell from a worktree
// checked out at the round-2 commit) so the speedup_vs_pr4 column isolates
// the shared timing kernel's contribution from machine drift. The MCM cells
// are the ones the kernel extraction was expected to speed up: the chiplet
// loop previously spilled every DRAM wake-up into a binary heap, which the
// kernel's due-wheel now absorbs.
var pr4Baseline = map[string]float64{
	"bfs-16sm": 0.6290,
	"bfs-8sm":  1.3283,
	"dct-16sm": 0.5673,
	"bfs-4c":   0.0768,
	"dct-4c":   0.0510,
}

func TestMain(m *testing.M) {
	code := m.Run()
	if path := os.Getenv("BENCH_HOTPATH_JSON"); path != "" && len(hotPathResults) > 0 {
		type out struct {
			// HostCores records the machine the numbers come from.
			HostCores  int                      `json:"host_cores"`
			Results    map[string]hotPathResult `json:"results"`
			Speedup    map[string]float64       `json:"event_vs_legacy_speedup"`
			VsPR3      map[string]float64       `json:"speedup_vs_pr3"`
			VsPR4      map[string]float64       `json:"speedup_vs_pr4"`
			VsPrePR    map[string]float64       `json:"speedup_vs_pre_overhaul"`
			PR3Mc      map[string]float64       `json:"pr3_sim_mcycles_per_sec"`
			PR4Mc      map[string]float64       `json:"pr4_sim_mcycles_per_sec"`
			BaselineMc map[string]float64       `json:"pre_overhaul_sim_mcycles_per_sec"`
		}
		o := out{
			HostCores:  runtime.NumCPU(),
			Results:    hotPathResults,
			Speedup:    map[string]float64{},
			VsPR3:      map[string]float64{},
			VsPR4:      map[string]float64{},
			VsPrePR:    map[string]float64{},
			PR3Mc:      pr3Baseline,
			PR4Mc:      pr4Baseline,
			BaselineMc: preOverhaulBaseline,
		}
		for name, ev := range hotPathResults {
			const suffix = "/event"
			if len(name) > len(suffix) && name[len(name)-len(suffix):] == suffix {
				base := name[:len(name)-len(suffix)]
				if lg, ok := hotPathResults[base+"/legacy"]; ok && lg.SimMcyclesPerSec > 0 {
					o.Speedup[base] = ev.SimMcyclesPerSec / lg.SimMcyclesPerSec
				}
				if pr3, ok := pr3Baseline[base]; ok && pr3 > 0 {
					o.VsPR3[base] = ev.SimMcyclesPerSec / pr3
				}
				if pr4, ok := pr4Baseline[base]; ok && pr4 > 0 {
					o.VsPR4[base] = ev.SimMcyclesPerSec / pr4
				}
				if pre, ok := preOverhaulBaseline[base]; ok && pre > 0 {
					o.VsPrePR[base] = ev.SimMcyclesPerSec / pre
				}
			}
		}
		if buf, err := json.MarshalIndent(o, "", "\t"); err == nil {
			_ = os.WriteFile(path, append(buf, '\n'), 0o644)
		}
	}
	os.Exit(code)
}

// BenchmarkSimulatorHotPath is the regression harness for run-loop
// performance: it simulates full kernels and reports simulated megacycles
// and simulation events retired per host second, for the event-driven loop
// and the dense legacy baseline. The paper-motivated case is bfs at 16 SMs —
// a memory-stalled workload where most SMs wait on DRAM most cycles, which
// is exactly where ticking only runnable SMs pays off.
func BenchmarkSimulatorHotPath(b *testing.B) {
	cases := []struct {
		name  string
		sms   int
		bench string
	}{
		{"bfs-16sm", 16, "bfs"},
		{"bfs-8sm", 8, "bfs"},
		{"dct-16sm", 16, "dct"},
	}
	for _, c := range cases {
		wl, err := workloads.ByName(c.bench)
		if err != nil {
			b.Fatal(err)
		}
		cfg := config.MustScale(config.Baseline128(), c.sms)
		for _, loop := range []struct {
			name string
			opt  Options
		}{
			{"event", Options{}},
			{"legacy", Options{UseLegacyLoop: true}},
		} {
			b.Run(c.name+"/"+loop.name, func(b *testing.B) {
				var cycles int64
				var events uint64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st, err := RunWithOptions(cfg, wl.Workload, loop.opt)
					if err != nil {
						b.Fatal(err)
					}
					cycles += st.Cycles
					events += st.SimEvents
				}
				recordHotPath(b, c.name+"/"+loop.name, cycles, events)
			})
		}
	}

	// Variant cell: bfs on the 8-SM scale model under the two-level warp
	// scheduler (docs/UARCH.md), event and legacy loops, so the committed
	// BENCH_hotpath.json baseline — which cmd/benchcheck judges cell by
	// cell — tracks non-default microarchitecture throughput too. The
	// per-group ready queues exercise a different scheduler hot path than
	// the GTO cells above.
	{
		wl, err := workloads.ByName("bfs")
		if err != nil {
			b.Fatal(err)
		}
		cfg := config.MustScale(config.Baseline128(), 8)
		cfg.Uarch = uarch.Variant{Scheduler: uarch.SchedTwoLevel}
		for _, loop := range []struct {
			name string
			opt  Options
		}{
			{"event", Options{}},
			{"legacy", Options{UseLegacyLoop: true}},
		} {
			b.Run("bfs-8sm-2lvl/"+loop.name, func(b *testing.B) {
				var cycles int64
				var events uint64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					st, err := RunWithOptions(cfg, wl.Workload, loop.opt)
					if err != nil {
						b.Fatal(err)
					}
					cycles += st.Cycles
					events += st.SimEvents
				}
				recordHotPath(b, "bfs-8sm-2lvl/"+loop.name, cycles, events)
			})
		}
	}

	// MCM cells: the same harness over the chiplet simulator, on the
	// 4-chiplet scale model of the paper's 16-chiplet target plus the full
	// 16-chiplet target itself. bfs is the memory-stalled case where the
	// due-bitset fast path pays off; dct adds a reuse-heavy contrast.
	mcmCases := []struct {
		name  string
		chips int
		bench string
	}{
		{"bfs-4c", 4, "bfs"},
		{"dct-4c", 4, "dct"},
		{"bfs-16c", 16, "bfs"},
	}
	for _, c := range mcmCases {
		wl, err := workloads.ByName(c.bench)
		if err != nil {
			b.Fatal(err)
		}
		cfg := config.MustScaleChiplets(config.Target16Chiplet(), c.chips)
		for _, loop := range []struct {
			name string
			opt  chiplet.Options
		}{
			{"event", chiplet.Options{}},
			{"legacy", chiplet.Options{UseLegacyLoop: true}},
		} {
			b.Run(c.name+"/"+loop.name, func(b *testing.B) {
				var cycles int64
				var events uint64
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s, err := chiplet.New(cfg, wl.Workload, loop.opt)
					if err != nil {
						b.Fatal(err)
					}
					st, err := s.Run()
					if err != nil {
						b.Fatal(err)
					}
					cycles += st.Cycles
					events += st.SimEvents
				}
				recordHotPath(b, c.name+"/"+loop.name, cycles, events)
			})
		}
	}
}

// recordHotPath reports the simulated-throughput metrics for one hot-path
// cell and stores them for TestMain's BENCH_hotpath.json summary.
func recordHotPath(b *testing.B, key string, cycles int64, events uint64) {
	secs := b.Elapsed().Seconds()
	if secs <= 0 {
		return
	}
	b.ReportMetric(float64(cycles)/1e6/secs, "simMcyc/s")
	b.ReportMetric(float64(events)/secs, "simEvents/s")
	hotPathMu.Lock()
	hotPathResults[key] = hotPathResult{
		SimMcyclesPerSec: float64(cycles) / 1e6 / secs,
		SimEventsPerSec:  float64(events) / secs,
		HostNsPerRun:     float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		SimCyclesPerRun:  cycles / int64(b.N),
	}
	hotPathMu.Unlock()
}

// BenchmarkSteadyStateCycle isolates the per-cycle cost of the event-driven
// loop on a synthetic memory-stalled workload without end-of-kernel effects.
func BenchmarkSteadyStateCycle(b *testing.B) {
	cfg := testConfig(16)
	mk := func() trace.Workload { return streamWorkload(256, 4, 100) }
	for _, loop := range []struct {
		name string
		opt  Options
	}{
		{"event", Options{}},
		{"legacy", Options{UseLegacyLoop: true}},
	} {
		b.Run(loop.name, func(b *testing.B) {
			var cycles int64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := RunWithOptions(cfg, mk(), loop.opt)
				if err != nil {
					b.Fatal(err)
				}
				cycles += st.Cycles
			}
			if secs := b.Elapsed().Seconds(); secs > 0 {
				b.ReportMetric(float64(cycles)/1e6/secs, "simMcyc/s")
			}
		})
	}
}
