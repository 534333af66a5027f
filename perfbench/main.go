// Command perfbench is the repository's benchmark. It starts an in-process
// internal/server with the daemon's defaults, drives it over loopback HTTP
// with seeded request bodies, checks every response, and prints every
// metric by name and unit, ending with one JSON line:
//
//	perfbench --workload mcm-simulate --seed 1 --seconds 30 --trace 0
//
// --trace 1 adds a traced pass that replays the same requests through a
// span-instrumented copy of the server's request path and prints the
// per-layer metrics instead. README.md lists the workloads and metrics.
// perfbench/run.sh builds it from the checkout and runs it.
package main

import (
	"bufio"
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"gpuscale/internal/server"
)

// The daemon defaults (cmd/gpuscaled) the benchmark's servers start with.
const (
	defaultMemoBytes = 64 << 20
	defaultLinger    = 2 * time.Millisecond
)

// setupStarts is how many server processes a run starts to take setup_s
// as their median.
const setupStarts = 61

// Class latency limits for slo_ok_frac.
const (
	fastLimit = 10 * time.Millisecond
	coldLimit = 5 * time.Second
)

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 30, "minimum length of the timed phase")
	traced := fs.Int("trace", 0, "1: add the traced pass and print per-layer metrics")
	root := fs.String("root", ".", "repository checkout holding testdata/ and perfbench/")
	out := fs.String("out", ".bench_build/perfbench", "directory for stores, profiles and traces")
	record := fs.Bool("record", false, "re-record perfbench/digests.json from this build, anchored by the golden grid")
	serve := fs.String("serve", "", "internal: serve on 127.0.0.1 with this store directory until stdin closes")
	memo := fs.Int64("memo-bytes", 0, "internal: memory-level budget for -serve")
	loadgen := fs.String("loadgen", "", "internal: drive the server at this base URL and print the results")
	openLimit := fs.Int("open-limit", 0, "internal: -loadgen replays exactly this many open-loop requests")
	fs.Parse(os.Args[1:])

	var err error
	switch {
	case *serve != "":
		err = serveChild(*serve, *memo)
	case *loadgen != "":
		err = loadgenChild(*loadgen, *name, *seed, time.Duration(*seconds)*time.Second, *openLimit, *traced == 1)
	case *record:
		err = recordDigests(*root, *out)
	default:
		err = bench(*root, *out, *name, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func serverOptions(store string, memo int64, workers int) server.Options {
	if memo <= 0 {
		memo = defaultMemoBytes
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return server.Options{
		StoreDir:            store,
		Workers:             workers,
		TenantCapacity:      64,
		BatchLinger:         defaultLinger,
		MCMShards:           0,
		MemoBytes:           memo,
		ConfidenceThreshold: 0.5,
	}
}

// listen serves h on an ephemeral loopback port and returns its base URL
// and a stop function that waits for the serving goroutine.
func listen(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		hs.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), func() {
		hs.Close()
		<-done
	}, nil
}

// serveChild is the process setup_s times: it opens the store, starts the
// server, prints its address and serves until stdin closes.
func serveChild(store string, memo int64) error {
	srv, err := server.New(serverOptions(store, memo, 0))
	if err != nil {
		return err
	}
	defer srv.Close()
	base, stop, err := listen(srv.Handler())
	if err != nil {
		return err
	}
	defer stop()
	fmt.Println(base)
	io.Copy(io.Discard, os.Stdin)
	return nil
}

// measureSetup starts the server process setupStarts times and returns the
// median time from process start to the first successful /healthz.
func measureSetup(store string, memo int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var secs []float64
	for i := 0; i < setupStarts; i++ {
		s, err := startOnce(exe, store, memo)
		if err != nil {
			return 0, fmt.Errorf("timing server start: %w", err)
		}
		secs = append(secs, s)
	}
	return median(secs), nil
}

func startOnce(exe, store string, memo int64) (float64, error) {
	cmd := exec.Command(exe, "-serve", store, "-memo-bytes", fmt.Sprint(memo))
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	defer func() {
		stdin.Close()
		cmd.Wait()
	}()
	line, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		return 0, fmt.Errorf("reading server address: %w", err)
	}
	url := strings.TrimSpace(line) + "/healthz"
	for {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return time.Since(t0).Seconds(), nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			return 0, fmt.Errorf("no healthy server after 30s: %v", err)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// loadReport is what the load-generator process hands back.
type loadReport struct {
	Closed, Open []result
	ClosedWall   time.Duration
}

// loadgenChild is the load-generator process. It runs apart from the
// server so that the clients are scheduled by the operating system, not
// queued on the server's Go scheduler behind running simulations.
func loadgenChild(base, name string, seed int64, minDur time.Duration, openLimit int, traced bool) error {
	w, err := buildWorkload(name, seed)
	if err != nil {
		return err
	}
	d := &loader{base: base, traced: traced}
	sched := w.schedule(seed)
	var rep loadReport
	rep.Closed, rep.Open, rep.ClosedWall = d.run(context.Background(), phase{
		cold: w.Cold, clients: w.Clients, keys: w.Keys, next: sched.next, minDur: minDur, openLimit: openLimit,
	})
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// runLoadgen drives a timed pass from a load-generator process and waits
// for it to exit.
func runLoadgen(base string, w workload, seed int64, minDur time.Duration, openLimit int, traced bool) (*loadReport, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "-loadgen", base, "-workload", w.Name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(int(minDur.Seconds())), "-open-limit", fmt.Sprint(openLimit), "-trace", trace)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	var rep loadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("load generator report: %w", err)
	}
	return &rep, nil
}

// sendAll sends rs over two closed-loop connections, outside any timed
// phase.
func sendAll(base string, rs []request) []result {
	d := &loader{base: base}
	closed, _, _ := d.run(context.Background(), phase{cold: rs, clients: 2})
	return closed
}

// fingerprint describes the host a result was measured on.
func fingerprint() string {
	model := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d cpu=%q go=%s gomaxprocs=%d", runtime.NumCPU(), model, runtime.Version(), runtime.GOMAXPROCS(0))
}

// peakRSSMiB is the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			var kb float64
			fmt.Sscan(f[1], &kb)
			return kb / 1024
		}
	}
	return math.NaN()
}

// metric is one printed measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Note  string
}

// printOnly metrics are shown but left out of the JSON line, which carries
// exactly the gated metrics (README.md says why each is not gated).
var printOnly = map[string]bool{"fast_p99_ms": true, "peak_rss_mb": true}

// untracedPass is what one pass against the real server yields.
type untracedPass struct {
	closed, open []result
	closedWall   time.Duration
	counters     map[string]uint64 // the server's own registry
	gcFrac       float64
	allocBytes   float64
}

func (p *untracedPass) all() []result { return append(append([]result{}, p.closed...), p.open...) }

// measured is what the end-to-end metrics are taken over: the closed loop
// and the open-loop requests due while it ran. Open-loop requests due after
// the last simulation finished meet a quiet server; they are checked but
// would mix a second regime into the latency figures in a share that
// depends on how fast the host ran the closed loop.
func (p *untracedPass) measured() []result {
	out := append([]result{}, p.closed...)
	for _, r := range p.open {
		if r.Due < p.closedWall {
			out = append(out, r)
		}
	}
	return out
}

// runUntraced serves the workload from the real server on store.
func runUntraced(w workload, seed int64, store string, minDur time.Duration) (*untracedPass, error) {
	srv, err := server.New(serverOptions(store, w.MemoBytes, w.Workers))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	base, stop, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	defer stop()
	before := readRuntime()
	rep, err := runLoadgen(base, w, seed, minDur, 0, false)
	if err != nil {
		return nil, err
	}
	after := readRuntime()
	p := &untracedPass{closed: rep.Closed, open: rep.Open, closedWall: rep.ClosedWall}
	p.gcFrac = (after[0] - before[0]) / (after[1] - before[1])
	p.allocBytes = after[2] - before[2]
	p.counters = srv.Registry().Snapshot().Counters
	return p, nil
}

// readRuntime samples GC CPU seconds, total CPU seconds and allocated heap
// bytes from runtime/metrics.
func readRuntime() [3]float64 {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	var out [3]float64
	for i, x := range s {
		switch x.Value.Kind() {
		case metrics.KindFloat64:
			out[i] = x.Value.Float64()
		case metrics.KindUint64:
			out[i] = float64(x.Value.Uint64())
		}
	}
	return out
}

// checkAll runs the output check on every result and returns the failures.
func checkAll(c *checker, rs []result) []error {
	var errs []error
	for i := range rs {
		if err := c.check(&rs[i]); err != nil {
			errs = append(errs, fmt.Errorf("%s %s: %w", rs[i].Req.Op, rs[i].Req.Body, err))
		}
	}
	return errs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd computes the end-to-end metrics of an untraced pass.
func endToEnd(c *checker, p *untracedPass, setup float64) []metric {
	all := p.measured()
	var cold, fast []float64
	var okSLO, closedOK int
	var insn float64
	for i := range all {
		r := &all[i]
		if r.Fail != "" {
			continue
		}
		if !r.Open {
			closedOK++
		}
		lat := r.Latency()
		if r.Cold() {
			cold = append(cold, ms(lat))
			if lat <= coldLimit {
				okSLO++
			}
		} else {
			fast = append(fast, ms(lat))
			if lat <= fastLimit {
				okSLO++
			}
		}
		if r.Cache == "computed" {
			insn += c.simInstructions(r)
		}
	}
	ctail, cp, cbeyond := tail(cold)
	fp99, fbeyond := percentile(fast, 99)
	anaErr, anaCells := c.analyticIPCError(p.all())
	return []metric{
		{"setup_s", setup, "s", fmt.Sprintf("median of %d server starts", setupStarts)},
		{"req_per_s", float64(closedOK) / p.closedWall.Seconds(), "1/s", fmt.Sprintf("%d closed-loop requests in %.2fs", closedOK, p.closedWall.Seconds())},
		{"cold_p50_ms", median(cold), "ms", fmt.Sprintf("%d cold samples; quartiles %s", len(cold), quartiles(cold))},
		{"cold_tail_ms", ctail, "ms", fmt.Sprintf("p%.1f, %d of %d cold samples beyond", cp, cbeyond, len(cold))},
		{"fast_p50_ms", median(fast), "ms", fmt.Sprintf("%d fast samples; quartiles %s", len(fast), quartiles(fast))},
		{"fast_p99_ms", fp99, "ms", fmt.Sprintf("%d of %d fast samples beyond; not gated, see README", fbeyond, len(fast))},
		{"slo_ok_frac", float64(okSLO) / float64(len(all)), "ratio", fmt.Sprintf("%d of %d due while the closed loop ran", okSLO, len(all))},
		{"sim_minsn_per_s", insn / p.closedWall.Seconds() / 1e6, "M/s", fmt.Sprintf("%.0f warp instructions in %.2fs", insn, p.closedWall.Seconds())},
		{"peak_rss_mb", peakRSSMiB(), "MiB", "VmHWM; not gated, see README"},
		{"analytic_ipc_err_pct", anaErr, "%", fmt.Sprintf("%d scale-model cells", anaCells)},
	}
}

// bench runs one workload and prints its metrics.
func bench(root, out, name string, seed int64, minDur time.Duration, traced bool) error {
	w, err := buildWorkload(name, seed)
	if err != nil {
		return err
	}
	c, err := loadChecker(filepath.Join(root, "testdata", "golden_stats.json"), filepath.Join(root, "perfbench", "digests.json"))
	if err != nil {
		return err
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%.0f trace=%v\n", w.Name, seed, minDur.Seconds(), traced)
	fmt.Printf("why: %s\n", w.Why)
	fmt.Printf("host: %s\n", fingerprint())

	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	storeA, storeB := filepath.Join(runDir, "store"), filepath.Join(runDir, "store-traced")

	var failures []error
	t0 := time.Now()
	// Prefill, outside every metric.
	srv, err := server.New(serverOptions(storeA, w.MemoBytes, w.Workers))
	if err != nil {
		return err
	}
	base, stop, err := listen(srv.Handler())
	if err != nil {
		return err
	}
	pre := sendAll(base, w.Prefill)
	stop()
	srv.Close()
	failures = append(failures, checkAll(c, pre)...)
	attempted, failed := len(pre), len(failures)
	if traced {
		if err := copyDir(storeA, storeB); err != nil {
			return err
		}
	}

	tPrefill := time.Since(t0)
	setup, err := measureSetup(storeA, w.MemoBytes)
	if err != nil {
		return err
	}
	tSetup := time.Since(t0)
	p, err := runUntraced(w, seed, storeA, minDur)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: prefill %.1fs, setup starts %.1fs, untraced pass %.1fs\n",
		tPrefill.Seconds(), (tSetup - tPrefill).Seconds(), (time.Since(t0) - tSetup).Seconds())
	all := p.all()
	passFailures := checkAll(c, all)
	failures = append(failures, passFailures...)
	attempted += len(all)
	failed += len(passFailures)
	e2e := endToEnd(c, p, setup)
	fmt.Printf("requests: %d prefill, %d closed-loop, %d open-loop; %d failed (fail_frac %.4f)\n",
		len(pre), len(p.closed), len(p.open), failed, float64(failed)/float64(attempted))

	metricsOut := e2e
	if traced {
		layers, tattempted, tfailed, terrs, err := runTraced(c, w, seed, storeB, filepath.Join(out, fmt.Sprintf("trace-%s-seed%d", w.Name, seed)), p)
		if err != nil {
			return err
		}
		attempted += tattempted
		failed += tfailed
		failures = append(failures, terrs...)
		metricsOut = layers
		for _, m := range e2e {
			fmt.Printf("untraced %s %.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	for _, m := range metricsOut {
		fmt.Printf("metric %-28s %14.6g %-6s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	for i, err := range failures {
		if i == 10 {
			fmt.Fprintf(os.Stderr, "... %d more failures\n", len(failures)-10)
			break
		}
		fmt.Fprintln(os.Stderr, "check failed:", err)
	}
	correct := len(failures) == 0
	final := map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": jsonMetrics(metricsOut)}
	line, err := json.Marshal(final)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !correct {
		return fmt.Errorf("%d responses failed the output check", len(failures))
	}
	return nil
}

func jsonMetrics(ms []metric) map[string]any {
	out := map[string]any{}
	for _, m := range ms {
		if printOnly[m.Name] {
			continue
		}
		v := m.Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // a layer the workload never reached
		}
		out[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	return out
}

// copyDir copies the regular files of a store directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// recordDigests evaluates every request any workload can send on a fresh
// server and writes perfbench/digests.json. Each body must first pass the
// golden checks, and every open-loop key must be answered without a
// simulation, or nothing is written.
func recordDigests(root, out string) error {
	c, err := loadChecker(filepath.Join(root, "testdata", "golden_stats.json"), "")
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	var all []request
	keys := map[string]bool{}
	for _, name := range workloadNames {
		w, err := buildWorkload(name, 1)
		if err != nil {
			return err
		}
		for _, r := range w.Keys {
			keys[string(r.Body)] = true
		}
		for _, set := range [][]request{w.Prefill, w.Keys, w.Cold} {
			for _, r := range set {
				if k := r.Op + string(r.Body); !seen[k] {
					seen[k] = true
					all = append(all, r)
				}
			}
		}
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, "record-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	srv, err := server.New(serverOptions(filepath.Join(dir, "store"), 0, 0))
	if err != nil {
		return err
	}
	defer srv.Close()
	base, stop, err := listen(srv.Handler())
	if err != nil {
		return err
	}
	defer stop()
	digests := map[string]string{}
	for _, r := range sendAll(base, all) {
		if r.Fail != "" {
			return fmt.Errorf("%s %s: %s", r.Req.Op, r.Req.Body, r.Fail)
		}
		if err := c.checkGolden(r.Req, r.Tier, r.Body); err != nil {
			return fmt.Errorf("%s %s: %w", r.Req.Op, r.Req.Body, err)
		}
		if keys[string(r.Req.Body)] && r.Req.Op == "predict" && r.Tier != "analytic" {
			return fmt.Errorf("open-loop key %s escalated to the cycle tier", r.Req.Body)
		}
		digests[digestKey(r.Tier, r.Hash)] = hex.EncodeToString(r.Sum[:])
	}
	ordered := make([]string, 0, len(digests))
	for k := range digests {
		ordered = append(ordered, k)
	}
	sort.Strings(ordered)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range ordered {
		sep := ","
		if i == len(ordered)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %q: %q%s\n", k, digests[k], sep)
	}
	b.WriteString("}\n")
	path := filepath.Join(root, "perfbench", "digests.json")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return err
	}
	fmt.Printf("recorded %d digests for %d requests in %s\n", len(digests), len(all), path)
	return nil
}
