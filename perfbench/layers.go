package main

// The traced run: the replay through tracedHandler under a CPU profile, and
// the per-layer metrics computed from its spans, counts and profile.

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"gpuscale"
)

// runTraced replays the untraced pass's requests through the traced
// handler under a CPU profile and returns the per-layer metrics.
func runTraced(c *checker, w workload, seed int64, store, prefix string, ref *untracedPass) ([]metric, int, int, []error, error) {
	tr := &tracer{}
	h, err := newTracedHandler(tr, store, serverOptions(store, w.MemoBytes, w.Workers))
	if err != nil {
		return nil, 0, 0, nil, err
	}
	defer h.Close()
	base, stop, err := listen(h)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	defer stop()

	profPath := prefix + ".cpu.pprof"
	pf, err := os.Create(profPath)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return nil, 0, 0, nil, err
	}
	cpu0 := cpuTime()
	rep, err := runLoadgen(base, w, seed, 0, max(1, len(ref.open)), true)
	cpuNS := float64(cpuTime() - cpu0)
	pprof.StopCPUProfile()
	if err != nil {
		pf.Close()
		return nil, 0, 0, nil, err
	}
	if err := pf.Close(); err != nil {
		return nil, 0, 0, nil, err
	}

	traced := append(append([]result{}, rep.Closed...), rep.Open...)
	for i := range traced {
		r := &traced[i]
		tr.record(span{ID: rootSpanID(r), Req: traceReqID(r), Name: "server.roundtrip",
			Start: time.Unix(0, r.RTStart), End: time.Unix(0, r.RTEnd)})
	}
	errs := checkAll(c, traced)
	failed := len(errs)
	// The traced bodies must equal the untraced run's, request by request.
	untraced := ref.all()
	byID := map[int][32]byte{}
	for i := range untraced {
		byID[traceReqID(&untraced[i])] = untraced[i].Sum
	}
	var tracedSvc, untracedSvc float64
	svc := map[int]float64{}
	for i := range untraced {
		svc[traceReqID(&untraced[i])] = ms(untraced[i].Done - untraced[i].Sent)
	}
	for i := range traced {
		r := &traced[i]
		id := traceReqID(r)
		want, ok := byID[id]
		if !ok || want != r.Sum {
			errs = append(errs, fmt.Errorf("%s %s: traced response differs from the untraced run", r.Req.Op, r.Req.Body))
			failed++
			continue
		}
		tracedSvc += ms(r.Done - r.Sent)
		untracedSvc += svc[id]
	}

	tr.mu.Lock()
	spans := append([]span(nil), tr.spans...)
	tr.mu.Unlock()
	t0 := time.Unix(0, rep.Closed[0].RTStart)
	for _, s := range spans {
		if s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	tf, err := os.Create(prefix + ".trace.json")
	if err != nil {
		return nil, 0, 0, nil, err
	}
	if err := chromeTrace(tf, spans, t0); err != nil {
		tf.Close()
		return nil, 0, 0, nil, err
	}
	if err := tf.Close(); err != nil {
		return nil, 0, 0, nil, err
	}
	fmt.Printf("trace: %s.trace.json (%d spans), profile %s\n", prefix, len(spans), profPath)

	cpuFrac, err := profileShares(profPath)
	if err != nil {
		return nil, 0, 0, nil, err
	}
	layers := perLayer(c, h, spans, cpuFrac, cpuNS, ref, len(traced))
	layers = append(layers,
		metric{"bench.unexplained_frac", 1 - sumSelf(spans)/untracedSvc, "ratio", "1 - sum of layer self times / untraced service time"},
		metric{"bench.trace_overhead_frac", tracedSvc/untracedSvc - 1, "ratio", fmt.Sprintf("traced %.1f ms vs untraced %.1f ms service time", tracedSvc, untracedSvc)},
	)
	return layers, len(traced), failed, errs, nil
}

// sumSelf is the total self time of all spans, in milliseconds.
func sumSelf(spans []span) float64 {
	var t time.Duration
	for _, d := range selfTimes(spans) {
		t += d
	}
	return ms(t)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// profileLayer maps a package path to the layer its CPU samples count for.
func profileLayer(pkg string) string {
	switch p := strings.TrimPrefix(pkg, "gpuscale/internal/"); p {
	case "sched":
		return "timing"
	case "workloads":
		return "trace"
	case "regress":
		return "core"
	default:
		return p
	}
}

// profileShares reads a CPU profile with `go tool pprof -top` and returns
// each layer's share of samples by leaf frame.
func profileShares(path string) (map[string]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", exe, path)
	raw, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return nil, fmt.Errorf("go tool pprof: %v: %s", err, ee.Stderr)
		}
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parsePprofTop(string(raw)), nil
}

// parsePprofTop sums the flat% column of `pprof -top` output by layer.
func parsePprofTop(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || f[1] == "flat%" {
			continue
		}
		var pct float64
		if _, err := fmt.Sscanf(strings.TrimSuffix(f[1], "%"), "%g", &pct); err != nil {
			continue
		}
		out[profileLayer(funcPackage(f[5]))] += pct / 100
	}
	return out
}

// funcPackage is the package path of a symbol such as
// "gpuscale/internal/sm.(*SM).Tick".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// perLayer computes the per-layer metrics of the traced pass.
func perLayer(c *checker, h *tracedHandler, spans []span, cpuFrac map[string]float64, cpuNS float64, ref *untracedPass, requests int) []metric {
	self := selfTimes(spans)
	byName := map[string][]span{}
	layerSelf := map[string]time.Duration{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		layerSelf[s.layer()] += self[s.ID]
	}
	meanDur := func(name string, unit time.Duration, keep func(span) bool) float64 {
		var sum time.Duration
		n := 0
		for _, s := range byName[name] {
			if keep == nil || keep(s) {
				sum += s.dur()
				n++
			}
		}
		return float64(sum) / float64(unit) / float64(n)
	}
	outcome := func(arg string) func(span) bool { return func(s span) bool { return s.Arg == arg } }
	storeLookup := func(arg string) float64 {
		var sum time.Duration
		n := 0
		for _, name := range []string{"harness.Lookup", "harness.Do"} {
			for _, s := range byName[name] {
				if s.Arg == arg {
					sum += s.dur()
					n++
				}
			}
		}
		return float64(sum) / float64(time.Microsecond) / float64(n)
	}
	var settle time.Duration
	nSettle := 0
	for _, s := range byName["harness.Do"] {
		if s.Arg == "computed" {
			settle += self[s.ID]
			nSettle++
		}
	}
	var submit, wait time.Duration
	for _, s := range byName["engine.Submit"] {
		submit += s.dur()
	}
	gpuSpans := map[int64]time.Duration{}
	for _, s := range byName["gpu.SimulateContext"] {
		gpuSpans[s.Parent] = s.dur()
	}
	for _, s := range byName["engine.Submit"] {
		wait += s.dur() - gpuSpans[s.ID]
	}
	nSubmit := float64(len(byName["engine.Submit"]))

	// Simulation counts.
	var g struct{ wall, cycles, insn, events, skipped, l1, l1m, llc, llcm, mshr, noc, dram float64 }
	var m struct{ wall, cycles, insn, events, remote, n float64 }
	h.mu.Lock()
	for _, s := range h.sims {
		if s.mono != nil {
			st := s.mono
			g.wall += float64(s.wall)
			g.cycles += float64(st.Cycles)
			g.insn += float64(st.Instructions)
			g.events += float64(st.SimEvents)
			g.skipped += float64(st.SkippedCycles)
			g.l1 += float64(st.L1Accesses)
			g.l1m += float64(st.L1Misses)
			g.llc += float64(st.LLCAccesses)
			g.llcm += float64(st.LLCMisses)
			g.mshr += float64(st.MSHRStalls)
			g.noc += float64(st.NoCBytes)
			g.dram += float64(st.DRAMBytes)
			continue
		}
		st := s.mcm
		m.wall += float64(s.wall)
		m.cycles += float64(st.Cycles)
		m.insn += float64(st.Instructions)
		m.events += float64(st.SimEvents)
		m.remote += st.RemoteFraction
		m.n++
		for k, v := range s.obs.Counters {
			switch {
			case strings.Contains(k, "/l1/") && strings.HasSuffix(k, "/hits"):
				g.l1 += float64(v)
			case strings.Contains(k, "/l1/") && strings.HasSuffix(k, "/misses"):
				g.l1 += float64(v)
				g.l1m += float64(v)
			case strings.HasSuffix(k, "/llc/accesses"):
				g.llc += float64(v)
			case strings.HasSuffix(k, "/llc/misses"):
				g.llcm += float64(v)
			case strings.HasSuffix(k, "/noc/bytes") || strings.HasSuffix(k, "/link/bytes"):
				g.noc += float64(v)
			case strings.HasSuffix(k, "/dram/bytes"):
				g.dram += float64(v)
			}
		}
	}
	var mrcAccesses float64
	for _, b := range h.mrcBench {
		v, _ := c.golden[fmt.Sprintf("strong/%s/8sm", b)]["MemInstructions"].(float64)
		mrcAccesses += v * float64(len(gpuscale.StandardConfigs()))
	}
	h.mu.Unlock()

	cpuOf := func(layer string) float64 { return cpuFrac[layer] * cpuNS }
	ctr := ref.counters
	hits := float64(ctr["server/cache/hits_memory"] + ctr["server/cache/hits_disk"])
	lookups := hits + float64(ctr["server/cache/coalesced"]+ctr["server/cache/misses"])
	var auto float64
	for _, r := range ref.all() {
		if strings.Contains(string(r.Req.Body), `"tier":"auto"`) {
			auto++
		}
	}
	var lags []float64
	for _, r := range ref.open {
		lags = append(lags, ms(r.Lag()))
	}
	lag, lagBeyond := percentile(lags, 99)
	batches := float64(ctr["server/batch/batches"])
	corePredict := float64(layerSelf["core"]) / float64(time.Microsecond) / float64(len(byName["core.Predict"]))
	n := float64(requests)

	return []metric{
		{"server.self_ms", ms(layerSelf["server"]) / n, "ms", "round trip minus child spans, per request"},
		{"server.rejected", float64(ctr["server/backpressure/rejected"]), "count", ""},
		{"server.tier_escalated", float64(ctr["server/tier/escalated"]), "count", ""},
		{"gpuscale.parse_us", meanDur("gpuscale.ParseRequest", time.Microsecond, nil), "us", ""},
		{"gpuscale.canonicalize_us", meanDur("gpuscale.Canonicalize", time.Microsecond, nil), "us", ""},
		{"harness.hits_memory", float64(ctr["server/cache/hits_memory"]), "count", ""},
		{"harness.hits_disk", float64(ctr["server/cache/hits_disk"]), "count", ""},
		{"harness.coalesced", float64(ctr["server/cache/coalesced"]), "count", ""},
		{"harness.misses", float64(ctr["server/cache/misses"]), "count", ""},
		{"harness.hit_ratio", hits / lookups, "ratio", "memory and disk hits over lookups"},
		{"harness.lookup_memory_us", storeLookup("memory"), "us", ""},
		{"harness.lookup_disk_us", storeLookup("disk"), "us", ""},
		{"harness.settle_ms", ms(settle) / float64(nSettle), "ms", "store self time of a computed answer"},
		{"engine.batches", batches, "count", ""},
		{"engine.jobs_per_batch", float64(ctr["server/batch/jobs"]) / batches, "count", ""},
		{"engine.submit_ms", ms(submit) / nSubmit, "ms", ""},
		{"engine.wait_ms", ms(wait) / nSubmit, "ms", "submit minus the job's own gpu.run_ms"},
		{"analytic.predict_us", meanDur("analytic.PredictAnalytic", time.Microsecond, nil), "us", ""},
		{"analytic.first_us", meanDur("analytic.PredictAnalytic", time.Microsecond, outcome("first")), "us", "first call per request hash in the pass"},
		{"analytic.escalation_ratio", float64(ctr["server/tier/escalated"]) / auto, "ratio", "escalated over auto-tier requests"},
		{"gpu.run_ms", g.wall / 1e6 / nSubmit, "ms", ""},
		{"gpu.sim_cycles", g.cycles, "count", ""},
		{"gpu.sim_insn", g.insn, "count", ""},
		{"gpu.sim_events", g.events, "count", ""},
		{"gpu.host_ns_per_event", g.wall / g.events, "ns", ""},
		{"gpu.skipped_cycle_frac", g.skipped / g.cycles, "ratio", ""},
		{"gpu.cpu_frac", cpuFrac["gpu"], "ratio", ""},
		{"chiplet.run_ms", m.wall / 1e6 / m.n, "ms", ""},
		{"chiplet.sim_cycles", m.cycles, "count", ""},
		{"chiplet.sim_events", m.events, "count", ""},
		{"chiplet.host_ns_per_event", m.wall / m.events, "ns", ""},
		{"chiplet.remote_frac", m.remote / m.n, "ratio", ""},
		{"chiplet.cpu_frac", cpuFrac["chiplet"], "ratio", ""},
		{"sm.cpu_frac", cpuFrac["sm"], "ratio", ""},
		{"sm.host_ns_per_insn", cpuOf("sm") / (g.insn + m.insn), "ns", ""},
		{"cache.cpu_frac", cpuFrac["cache"], "ratio", ""},
		{"cache.l1_accesses", g.l1, "count", ""},
		{"cache.l1_misses", g.l1m, "count", ""},
		{"cache.llc_accesses", g.llc, "count", ""},
		{"cache.llc_misses", g.llcm, "count", ""},
		{"cache.mshr_stalls", g.mshr, "count", "monolithic simulations only"},
		{"cache.host_ns_per_access", cpuOf("cache") / (g.l1 + g.llc), "ns", ""},
		{"noc.cpu_frac", cpuFrac["noc"], "ratio", ""},
		{"noc.bytes", g.noc, "B", "MCM includes inter-chiplet link bytes"},
		{"dram.cpu_frac", cpuFrac["dram"], "ratio", ""},
		{"dram.bytes", g.dram, "B", ""},
		{"bandwidth.cpu_frac", cpuFrac["bandwidth"], "ratio", "queueing model shared by noc, dram and chiplet links"},
		{"timing.cpu_frac", cpuFrac["timing"], "ratio", "timing and sched"},
		{"trace.cpu_frac", cpuFrac["trace"], "ratio", "trace and workloads"},
		{"mrc.sweep_ms", meanDur("mrc.MissRateCurve", time.Millisecond, nil), "ms", ""},
		{"mrc.cpu_frac", cpuFrac["mrc"], "ratio", ""},
		{"mrc.host_ns_per_access", cpuOf("mrc") / mrcAccesses, "ns", "per memory instruction per configuration"},
		{"core.predict_us", corePredict, "us", "Predict plus FitBaselines"},
		{"parallel.cpu_frac", cpuFrac["parallel"], "ratio", ""},
		{"runtime.gc_cpu_frac", ref.gcFrac, "ratio", "untraced pass"},
		{"runtime.alloc_mb_per_req", ref.allocBytes / (1 << 20) / float64(len(ref.all())), "MiB", "untraced pass"},
		{"loadgen.lag_p99_ms", lag, "ms", fmt.Sprintf("%d of %d open-loop samples beyond", lagBeyond, len(lags))},
	}
}
