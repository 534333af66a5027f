package main

// Workload definitions and the seeded request generator. Every request a
// run sends is built here from the seed alone; the server under test
// receives only the generated bodies.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"gpuscale"
)

// request is one generated service call: the /v1 endpoint and its body.
type request struct {
	Op   string
	Body []byte
}

// workload is one traffic mix. Every workload has the same two streams:
//
//   - a closed loop of Clients connections working through Cold, a fixed set
//     of distinct requests the seed only reorders, so every run measures the
//     same simulations;
//   - an open loop on one connection beside it: Poisson arrivals at
//     OpenRate with Zipf popularity over Keys, whose order the seed
//     shuffles.
//
// Prefill is sent through a separate server before timing, so the open
// loop's keys are served from the store; keys left out of it are solved on
// first touch during the timed phase (serve-mixed leaves out the 21 golden
// analytic keys).
type workload struct {
	Name      string
	Why       string
	Clients   int
	Cold      []request
	OpenRate  float64
	Keys      []request
	Prefill   []request
	MemoBytes int64 // server memory-level budget; 0 keeps the daemon default
	Workers   int   // server simulation workers; 0 keeps the daemon default (all CPUs)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"predict-cold", "mcm-simulate", "serve-mixed"}

// buildWorkload returns the named workload with its request order drawn
// from seed.
func buildWorkload(name string, seed int64) (workload, error) {
	rng := rand.New(rand.NewSource(seed))
	keys := popularityOrder(rng, goldenAnalyticKeys(), otherAnalyticKeys(), hotCells())
	served := append(hotCells(), otherAnalyticKeys()...)
	switch name {
	case "predict-cold":
		return workload{
			Name:     name,
			Why:      "cold cycle-tier predicts on 2 busy cores: gpu, sm, cache and mrc do the work; chiplet is bypassed",
			Clients:  2,
			Cold:     shuffled(rng, predictColdSet()),
			OpenRate: 50,
			Keys:     keys,
			Prefill:  append(served, goldenAnalyticKeys()...),
		}, nil
	case "mcm-simulate":
		return workload{
			Name:     name,
			Why:      "MCM simulations on 1 client with a core idle: chiplet does the work; engine, mrc and the monolithic gpu loop are bypassed",
			Clients:  1,
			Cold:     shuffled(rng, mcmSet()),
			OpenRate: 50,
			Keys:     keys,
			Prefill:  append(served, goldenAnalyticKeys()...),
		}, nil
	case "serve-mixed":
		return workload{
			Name:      name,
			Why:       "store hits and analytic solves at 100/s beside a cold stream: server, gpuscale, harness and analytic serve it",
			Clients:   1,
			Cold:      shuffled(rng, serveColdSet()),
			OpenRate:  100,
			Keys:      keys,
			Prefill:   served,
			MemoBytes: serveMixedMemoBytes,
			// One simulation worker keeps a core free for the open loop, as
			// an operator protecting cheap requests would run the daemon
			// (-parallel 1); with both cores simulating, 200 req/s overloaded
			// the one connection and its tail was a matter of luck.
			Workers: 1,
		}, nil
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// serveMixedMemoBytes is below the prefilled hot set's stored bytes (about
// 70 KiB of cycle bodies plus entry overhead), so part of the open loop's
// hits come from the disk level.
const serveMixedMemoBytes = 48 << 10

// newRequest builds one request body through the wire schema's own struct.
func newRequest(op string, target gpuscale.TargetSpec, wl gpuscale.WorkloadSpec, opts gpuscale.RequestOptions) request {
	body, err := json.Marshal(gpuscale.Request{Op: op, Target: target, Workload: wl, Options: opts})
	if err != nil {
		panic(err) // a fixed struct of strings and ints always marshals
	}
	return request{Op: op, Body: body}
}

// variant parses a uarch shorthand known to be valid; "default" is the
// Table III baseline, sent as an absent field.
func variant(s string) *gpuscale.UarchVariant {
	if s == "default" {
		return nil
	}
	v, err := gpuscale.ParseUarch(s)
	if err != nil {
		panic(err)
	}
	return &v
}

// strongNames are the 21 Table II strong-scaling benchmarks.
func strongNames() []string {
	var out []string
	for _, b := range gpuscale.Benchmarks() {
		out = append(out, b.Name)
	}
	return out
}

// predictColdSet is every Table II benchmark as a cycle-tier predict, plus
// one request per non-default uarch axis on cheap benchmarks.
func predictColdSet() []request {
	var out []request
	for _, b := range strongNames() {
		out = append(out, newRequest(gpuscale.OpPredict, gpuscale.TargetSpec{}, gpuscale.WorkloadSpec{Bench: b}, gpuscale.RequestOptions{}))
	}
	for _, v := range []struct{ bench, uarch string }{
		{"ht", "two-level"}, {"gemm", "sectored"}, {"2mm", "deflect"}, {"as", "iw=2"},
	} {
		out = append(out, newRequest(gpuscale.OpPredict, gpuscale.TargetSpec{}, gpuscale.WorkloadSpec{Bench: v.bench},
			gpuscale.RequestOptions{Uarch: variant(v.uarch)}))
	}
	return out
}

// mcmSet is the MCM simulate set: every Table II benchmark on the
// 2-chiplet system and the three uarch-chiplet bfs 2c cells — 24 cells of
// 0.6 to 2.6 s, enough of them and close enough in cost that the median
// and the tail each sit among several cells rather than on one.
func mcmSet() []request {
	sim := func(wl gpuscale.WorkloadSpec, opts gpuscale.RequestOptions) request {
		return newRequest(gpuscale.OpSimulate, gpuscale.TargetSpec{Chiplets: 2}, wl, opts)
	}
	var out []request
	for _, b := range strongNames() {
		out = append(out, sim(gpuscale.WorkloadSpec{Bench: b}, gpuscale.RequestOptions{}))
	}
	for _, v := range []string{"two-level", "sectored", "deflect"} {
		out = append(out, sim(gpuscale.WorkloadSpec{Bench: "bfs"}, gpuscale.RequestOptions{Uarch: variant(v)}))
	}
	return out
}

// serveColdSet is serve-mixed's closed-loop stream: monolithic simulate
// cells from the golden grid, miss-rate curves, and auto-tier predicts on
// uarch variants, which the analytic tier is not confident about and so
// escalates to the cycle pipeline.
func serveColdSet() []request {
	var out []request
	for _, sms := range []int{8, 16} {
		for _, b := range []string{"ht", "gemm", "2mm", "as", "st", "btree", "gr", "va", "bp", "at", "bs", "lu", "fwt", "unet"} {
			out = append(out, newRequest(gpuscale.OpSimulate, gpuscale.TargetSpec{SMs: sms}, gpuscale.WorkloadSpec{Bench: b}, gpuscale.RequestOptions{}))
		}
	}
	for _, b := range []string{"ht", "va", "gemm", "btree", "2mm", "at", "st", "gr", "bp", "as"} {
		out = append(out, newRequest(gpuscale.OpMRC, gpuscale.TargetSpec{}, gpuscale.WorkloadSpec{Bench: b}, gpuscale.RequestOptions{}))
	}
	for _, v := range []struct{ bench, uarch string }{
		{"ht", "iw=2"}, {"gemm", "two-level"}, {"2mm", "sectored"}, {"st", "deflect"}, {"btree", "two-level"}, {"gr", "iw=2"}, {"va", "sectored"}, {"at", "deflect"},
		{"bp", "two-level"}, {"as", "sectored"},
	} {
		out = append(out, newRequest(gpuscale.OpPredict, gpuscale.TargetSpec{}, gpuscale.WorkloadSpec{Bench: v.bench},
			gpuscale.RequestOptions{Tier: gpuscale.TierAuto, Uarch: variant(v.uarch)}))
	}
	return out
}

// hotCells are cheap cycle-tier simulate requests — weak-scaling inputs
// sized for 1–4 SMs, on every uarch axis — that a prefill stores before
// timing.
func hotCells() []request {
	var out []request
	for _, b := range []string{"bfs", "bs", "btree", "as", "bp", "va"} {
		for sms := 1; sms <= 4; sms++ {
			for _, v := range []string{"default", "two-level", "sectored", "deflect"} {
				out = append(out, newRequest(gpuscale.OpSimulate, gpuscale.TargetSpec{SMs: sms},
					gpuscale.WorkloadSpec{Bench: b, Weak: true}, gpuscale.RequestOptions{Uarch: variant(v)}))
			}
		}
	}
	return out
}

// goldenAnalyticKeys are analytic-tier predicts on every Table II
// benchmark, whose scale-model IPCs the golden grid holds: the cells
// analytic_ipc_err_pct averages over.
func goldenAnalyticKeys() []request {
	var out []request
	for _, b := range strongNames() {
		out = append(out, newRequest(gpuscale.OpPredict, gpuscale.TargetSpec{}, gpuscale.WorkloadSpec{Bench: b},
			gpuscale.RequestOptions{Tier: gpuscale.TierAnalytic}))
	}
	return out
}

// otherAnalyticKeys are the remaining analytic-tier predicts: Table II on
// the two-level variant, the weak families, two MCM families, and
// auto-tier spellings the analytic model answers with confidence.
func otherAnalyticKeys() []request {
	ana := gpuscale.RequestOptions{Tier: gpuscale.TierAnalytic}
	var out []request
	for _, b := range strongNames() {
		out = append(out, newRequest(gpuscale.OpPredict, gpuscale.TargetSpec{}, gpuscale.WorkloadSpec{Bench: b},
			gpuscale.RequestOptions{Tier: gpuscale.TierAnalytic, Uarch: variant("two-level")}))
	}
	for _, b := range []string{"bfs", "bs", "btree", "as", "bp", "va"} {
		out = append(out, newRequest(gpuscale.OpPredict, gpuscale.TargetSpec{}, gpuscale.WorkloadSpec{Bench: b, Weak: true}, ana))
	}
	for _, b := range []string{"bfs", "va"} {
		out = append(out, newRequest(gpuscale.OpPredict, gpuscale.TargetSpec{Chiplets: 16}, gpuscale.WorkloadSpec{Bench: b, Weak: true}, ana))
	}
	// Auto spellings only on weak families: no workload sends a cycle predict
	// for them, so auto never finds a settled cycle answer to prefer, and
	// the traced and untraced passes see the same bodies.
	for _, b := range []string{"as", "bp", "va"} {
		out = append(out, newRequest(gpuscale.OpPredict, gpuscale.TargetSpec{}, gpuscale.WorkloadSpec{Bench: b, Weak: true},
			gpuscale.RequestOptions{Tier: gpuscale.TierAuto}))
	}
	return out
}

// shuffled returns a seeded permutation of rs.
func shuffled(rng *rand.Rand, rs []request) []request {
	out := append([]request(nil), rs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// popularityOrder ranks the open-loop keys, most popular first: the
// golden analytic keys take the top ranks (the schedule's opening sweep
// touches each of them, so analytic_ipc_err_pct averages over the same
// cells every run); the other analytic keys then interleave one-for-one
// with the hot cells. The seed shuffles each group.
func popularityOrder(rng *rand.Rand, golden, analytic, hot []request) []request {
	out := shuffled(rng, golden)
	a, h := shuffled(rng, analytic), shuffled(rng, hot)
	for len(a) > 0 || len(h) > 0 {
		if len(a) > 0 {
			out, a = append(out, a[0]), a[1:]
		}
		if len(h) > 0 {
			out, h = append(out, h[0]), h[1:]
		}
	}
	return out
}

// zipfS is the open loop's Zipf exponent over key ranks.
const zipfS = 1.1

// arrival is one open-loop request: when it is due, relative to the start
// of the timed phase, and which key it asks for.
type arrival struct {
	Due time.Duration
	Key int
}

// schedule generates the open loop's arrivals: exponential inter-arrival
// gaps at rate per second and Zipf-distributed key ranks, all drawn from
// one seeded source, so a seed fixes the whole sequence. The first sweep
// arrivals ask for ranks 0 to sweep-1 in turn, so every run touches the
// golden analytic keys, which hold those ranks, even where the Zipf draws
// would miss one.
type schedule struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	rate  float64
	sweep int
	n     int
	t     float64 // seconds
}

// schedule returns the workload's open-loop arrivals for seed.
func (w workload) schedule(seed int64) *schedule {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed0f0e))
	return &schedule{
		rng:   rng,
		zipf:  rand.NewZipf(rng, zipfS, 1, uint64(len(w.Keys)-1)),
		rate:  w.OpenRate,
		sweep: len(goldenAnalyticKeys()),
	}
}

// next returns the next arrival.
func (s *schedule) next() arrival {
	s.t += s.rng.ExpFloat64() / s.rate
	key := int(s.zipf.Uint64())
	if s.n < s.sweep {
		key = s.n
	}
	s.n++
	return arrival{Due: time.Duration(math.Round(s.t * 1e9)), Key: key}
}
